"""Independent reference implementations used as test oracles.

The signal references are computed from first principles: explicit DFT
matrices instead of np.fft, a hand-written DCT-II, a hand-built mel
filterbank. They import nothing from the package under test, so agreement
between the two routes is evidence rather than tautology. stft_one_shot
is the exception: it is the features' spectrum with every frame in one
np.fft call, which the blocked spectrum must match byte for byte.
measure_snr is the SNR the channel tests hold the simulator to; low_pass
is the package's FIR design and filter composed into the low-pass the
tests strip tones with. The per-window loops after them are tdi by its
definition and the package's earlier loop implementations of rpg, the VAD
frame energies and the VAD run finder, kept as references for the
vectorized code, its earlier direct-convolution FIR, the reference for
the FFT one, and canonicalize's earlier np.interp body, the reference for
its cached plan. The attack searches at the end are the package's earlier
eager versions, which render the whole schedule before the first query;
they reuse the package's renderer, features and types, so they pin down
only the search order and the query accounting of the lazy versions.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from garble.attack import AttackCandidate, ExhaustionReport, QueryRecord, distortion_key
from garble import vad
from garble.audio_io import AudioBuffer
from garble.dsp import apply_fir, design_lowpass, lowpass_length, window_ms_to_samples
from garble.features import extract_features, feature_distance
from garble.perturb import apply_params


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


def mel_bank_reference(n_filters, fft_size, sample_rate):
    """Triangular mel filterbank from 0 Hz to Nyquist, built point-by-point
    (no vectorized tricks)."""
    edges = _mel_to_hz(
        np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_filters + 2)
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
                   use_power=True, pre_emphasis=0.0, include_dct=True):
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
    bank = mel_bank_reference(n_filters, fft_size, sample_rate)
    rows = []
    for i in range(n_frames):
        frame = x[i * hop: i * hop + frame_len] * win
        bins = direct_rfft(frame, fft_size)
        spec = np.abs(bins) ** 2 if use_power else np.abs(bins)
        energies = bank @ spec
        logs = np.log(np.maximum(energies, 1e-10))
        rows.append(dct2_reference(logs)[:n_coeffs] if include_dct else logs)
    return np.array(rows)


def stft_one_shot(samples, sample_rate, frame_ms=20.0, hop_ms=10.0,
                  window="hamming", use_power=True, pre_emphasis=0.0):
    """The feature front end's spectrum of every full frame in one pass:
    all frames windowed at once and transformed by one np.fft.rfft call,
    zero padded to the next power of two, then the power re^2 + im^2 or
    the magnitude |X|. These are the numpy operations a blocked transform
    must reproduce row for row."""
    x = np.asarray(samples, dtype=np.float64)
    if pre_emphasis:
        x = np.concatenate([[x[0]], x[1:] - pre_emphasis * x[:-1]])
    frame_len = int(round(frame_ms * sample_rate / 1000.0))
    hop = int(round(hop_ms * sample_rate / 1000.0))
    rows = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    if window == "hamming":
        rows = rows * np.hamming(frame_len)
    spec = np.fft.rfft(rows, n=_next_pow2(frame_len), axis=1)
    return spec.real ** 2 + spec.imag ** 2 if use_power else np.abs(spec)


def sine_fit_amplitude(x, sample_rate, freq_hz):
    """Least-squares amplitude of a known-frequency sine in x."""
    x = np.asarray(x, dtype=np.float64)
    t = np.arange(len(x)) / sample_rate
    basis = np.column_stack(
        [np.cos(2.0 * np.pi * freq_hz * t), np.sin(2.0 * np.pi * freq_hz * t)]
    )
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def measure_snr(reference, test):
    """10*log10(P_ref / P_residual) in dB for two AudioBuffers; +inf when
    they are identical, -inf when the reference is silent."""
    if len(reference.samples) != len(test.samples):
        raise ValueError("length mismatch")
    if reference.sample_rate != test.sample_rate:
        raise ValueError("sample rate mismatch")
    p_ref = float(np.mean(reference.samples ** 2)) if len(reference) else 0.0
    residual = test.samples - reference.samples
    p_res = float(np.mean(residual ** 2)) if len(reference) else 0.0
    if p_res == 0.0:
        return math.inf
    if p_ref == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_ref / p_res)


def low_pass(audio, cutoff_hz):
    """The package's zero-phase-aligned FIR low-pass at cutoff_hz:
    apply_fir with design_lowpass taps of lowpass_length at the buffer's rate."""
    rate = audio.sample_rate
    taps = design_lowpass(cutoff_hz, rate, lowpass_length(cutoff_hz, rate))
    return AudioBuffer(apply_fir(audio.samples, taps), rate)


def tdi_loop(x, w):
    """tdi one window at a time: each window of w samples, and the shorter
    tail, reversed in place."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for start in range(0, len(x), w):
        out[start:start + w] = x[start:start + w][::-1]
    return out


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


def detect_speech_loop(audio, frame_ms=vad.FRAME_MS, percentile=vad.FLOOR_PERCENTILE,
                       cap_db=vad.FLOOR_CAP_DB, margin_db=vad.MARGIN_DB,
                       hangover=vad.HANGOVER_FRAMES, min_region_ms=vad.MIN_REGION_MS):
    """vad.detect_speech with its active runs found by a per-frame loop;
    energies are the package's own, and the frame, floor, margin, hangover
    and minimum region are the package's unless given."""
    x = audio.samples
    frame_len = window_ms_to_samples(frame_ms, audio.sample_rate)
    if len(x) == 0:
        return []
    energies = vad.frame_energies(x, frame_len)
    n_frames = len(energies)
    floor = min(float(np.percentile(energies, percentile)),
                float(np.max(energies)) / (10.0 ** (cap_db / 10.0)))
    raw = energies > floor * (10.0 ** (margin_db / 10.0))
    active = raw.copy()
    for k in range(1, hangover + 1):
        active[k:] |= raw[:-k]

    regions = []
    start = None
    for i, flag in enumerate(active):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            regions.append((start, i))
            start = None
    if start is not None:
        regions.append((start, n_frames))

    out = []
    for i0, i1 in regions:
        start_s = i0 * frame_len / audio.sample_rate
        end_s = min(i1 * frame_len, len(x)) / audio.sample_rate
        if end_s - start_s >= min_region_ms / 1000.0:
            out.append(vad.SpeechRegion(start_s, end_s))
    return out


def apply_fir_direct(x, taps):
    """dsp.apply_fir by direct np.convolve: full convolution, then the
    (numtaps-1)/2 group delay compensated; length preserved."""
    numtaps = len(taps)
    if numtaps % 2 == 0:
        raise ValueError("only odd-length (linear-phase, integer-delay) taps")
    if len(x) == 0:
        return x
    full = np.convolve(x, taps)
    delay = (numtaps - 1) // 2
    return full[delay:delay + len(x)]


def resample_interp(audio):
    """audio_io.canonicalize by np.interp: round(n * 16000 / rate) outputs,
    output k read at k * (rate / 16000), clamped to the last sample, then
    the public constructor, which raises ValueError on an overflow."""
    rate = audio.sample_rate
    n_out = int(round(len(audio.samples) * 16000 / rate))
    if n_out == 0:
        return AudioBuffer(np.zeros(0), 16000)
    positions = np.arange(n_out) * (rate / 16000)
    return AudioBuffer(np.interp(positions, np.arange(len(audio.samples)), audio.samples),
                       16000)


def _rank_eager(audio, schedule):
    """Render every schedule point, then stable-sort worst-sounding first and
    number the (params, distortion_rank, audio) triples 0, 1, ..."""
    rendered = [(p, apply_params(audio, p)) for p in schedule]
    ranked = sorted(rendered, key=lambda pair: distortion_key(pair[0]))
    return [(p, i, a) for i, (p, a) in enumerate(ranked)]


def _query_eager(backend, candidates):
    issued = []
    for params, rank, audio in candidates:
        if backend.queries_remaining == 0:
            break
        verdict = backend.transcribe(audio)
        if verdict.accepted:
            return AttackCandidate(params, rank, verdict, audio)
        issued.append(QueryRecord(params, rank, verdict))
    return ExhaustionReport(tuple(issued))


def generic_attack_eager(source, backend, schedule):
    """generic_attack rendering the whole schedule before the first query
    (input checks left out)."""
    return _query_eager(backend, _rank_eager(source, schedule))


def improved_attack_eager(words, per_word_variants, backend, schedule,
                          feature_threshold=math.inf):
    """improved_attack rendering and filtering every word's whole schedule,
    then building the concatenations as they are queried (input checks left
    out)."""
    per_word = []
    for word in words:
        ranked = _rank_eager(word, schedule)
        if math.isfinite(feature_threshold):
            ref = extract_features(word)
            ranked = [(p, i, a) for p, i, a in ranked if feature_distance(
                extract_features(a), ref) <= feature_threshold]
            if not ranked:
                raise ValueError("a word has no variants under the feature threshold")
        per_word.append(ranked[:per_word_variants])
    combos = ((tuple(p for p, _, _ in combo), rank,
               AudioBuffer(np.concatenate([a.samples for _, _, a in combo]),
                           words[0].sample_rate))
              for rank, combo in enumerate(itertools.product(*per_word)))
    return _query_eager(backend, combos)
