"""Independent reference implementations used as test oracles.

Everything here is computed from first principles: explicit DFT matrices
instead of np.fft, a hand-written DCT-II, a hand-built mel filterbank.
Nothing imports from the package under test, so agreement between the two
routes is evidence rather than tautology. The per-window loops at the end
are the package's earlier loop implementations of rpg and the VAD frame
energies, kept as references for the vectorized code.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _dft_matrix(n):
    # Full one-sided DFT matrix: rows are bins 0 .. n//2, columns time.
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, t) / n)


def direct_rfft(x, fft_size):
    """One-sided DFT of x zero-padded to fft_size, by explicit summation."""
    x = np.asarray(x, dtype=np.float64)
    padded = np.zeros(fft_size)
    padded[: len(x)] = x
    return _dft_matrix(fft_size) @ padded


def direct_window_mags(x, w):
    """Per-window one-sided magnitude spectra at the natural window length.

    Splits x into non-overlapping windows of w samples (shorter tail kept)
    and returns a list of |DFT| arrays, one per window.
    """
    x = np.asarray(x, dtype=np.float64)
    out = []
    full = len(x) // w
    if full:
        body = x[: full * w].reshape(full, w)
        mags = np.abs(body @ _dft_matrix(w).T)
        out.extend(mags)
    tail = x[full * w:]
    if len(tail):
        out.append(np.abs(_dft_matrix(len(tail)) @ tail))
    return out


def direct_idft(bins_onesided, n):
    """Inverse of direct_rfft via explicit two-sided reconstruction.

    Returns the complex time signal; its imaginary part measures how far the
    one-sided bins are from a valid real-signal spectrum.
    """
    bins_onesided = np.asarray(bins_onesided, dtype=np.complex128)
    full = np.zeros(n, dtype=np.complex128)
    half = n // 2 + 1
    full[:half] = bins_onesided
    if n > 1:
        full[half:] = np.conj(bins_onesided[1: n - half + 1][::-1])
    k = np.arange(n)
    t = np.arange(n)
    W = np.exp(2j * np.pi * np.outer(t, k) / n)
    return (W @ full) / n


def hamming_window(m):
    if m == 1:
        return np.ones(1)
    n = np.arange(m)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (m - 1))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_bank_reference(n_filters, fft_size, sample_rate, f_min=0.0, f_max=None):
    """Triangular mel filterbank built point-by-point (no vectorized tricks)."""
    if f_max is None:
        f_max = sample_rate / 2.0
    edges = _mel_to_hz(
        np.linspace(_hz_to_mel(f_min), _hz_to_mel(f_max), n_filters + 2)
    )
    n_bins = fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * (sample_rate / fft_size)
    bank = np.zeros((n_filters, n_bins))
    for j in range(n_filters):
        left, center, right = edges[j], edges[j + 1], edges[j + 2]
        for b in range(n_bins):
            f = bin_hz[b]
            if left < f < center:
                bank[j, b] = (f - left) / (center - left)
            elif f == center:
                bank[j, b] = 1.0
            elif center < f < right:
                bank[j, b] = (right - f) / (right - center)
    return bank


def dct2_reference(v):
    """Orthonormal DCT-II of a 1-D vector by direct cosine summation."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    out = np.zeros(n)
    for k in range(n):
        s = 0.0
        for i in range(n):
            s += v[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def mfcc_reference(samples, sample_rate, frame_ms=20.0, hop_ms=10.0,
                   window="hamming", n_filters=26, n_coeffs=13,
                   use_power=True, log_floor=1e-10, pre_emphasis=0.0,
                   include_dct=True, f_min=0.0, f_max=None):
    """Brute-force cepstral pipeline sharing no code with the implementation."""
    x = np.asarray(samples, dtype=np.float64)
    if pre_emphasis:
        y = np.empty_like(x)
        y[0] = x[0]
        y[1:] = x[1:] - pre_emphasis * x[:-1]
        x = y
    frame_len = int(round(frame_ms * sample_rate / 1000.0))
    hop = int(round(hop_ms * sample_rate / 1000.0))
    n_frames = (len(x) - frame_len) // hop + 1
    fft_size = _next_pow2(frame_len)
    win = hamming_window(frame_len) if window == "hamming" else np.ones(frame_len)
    bank = mel_bank_reference(n_filters, fft_size, sample_rate, f_min, f_max)
    rows = []
    for i in range(n_frames):
        frame = x[i * hop: i * hop + frame_len] * win
        bins = direct_rfft(frame, fft_size)
        spec = np.abs(bins) ** 2 if use_power else np.abs(bins)
        energies = bank @ spec
        logs = np.log(np.maximum(energies, log_floor))
        rows.append(dct2_reference(logs)[:n_coeffs] if include_dct else logs)
    return np.array(rows)


def sine_fit_amplitude(x, sample_rate, freq_hz):
    """Least-squares amplitude of a known-frequency sine in x."""
    x = np.asarray(x, dtype=np.float64)
    t = np.arange(len(x)) / sample_rate
    basis = np.column_stack(
        [np.cos(2.0 * np.pi * freq_hz * t), np.sin(2.0 * np.pi * freq_hz * t)]
    )
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def rpg_loop(x, w, seed):
    """rpg one window at a time: each window (and the natural-length tail)
    gets fresh uniform phases on its interior bins, drawn in window order
    from one generator seeded per call."""
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    out = np.empty_like(x)
    for start in range(0, len(x), w):
        seg = x[start:start + w]
        n = len(seg)
        bins = np.fft.rfft(seg)
        hi = (n + 1) // 2  # first non-interior index from above (Nyquist/none)
        if hi > 1:
            theta = rng.uniform(0.0, 2.0 * np.pi, hi - 1)
            bins[1:hi] = np.abs(bins[1:hi]) * np.exp(1j * theta)
        out[start:start + n] = np.fft.irfft(bins, n=n)
    return out


def vad_energies_loop(x, frame_len):
    """Mean-square energy per frame_len frame, the shorter tail included."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = (len(x) + frame_len - 1) // frame_len
    energies = np.empty(n_frames)
    for i in range(n_frames):
        seg = x[i * frame_len:(i + 1) * frame_len]
        energies[i] = float(np.mean(seg ** 2))
    return energies
