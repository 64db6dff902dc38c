"""Deterministic signal builders, the traced memory peak of a call and
extract_features' bound on it, shared across the test modules."""

import tracemalloc

import numpy as np

from garble.audio_io import AudioBuffer
from garble.dsp import next_pow2
from garble.features import _BLOCK_FRAMES

SR = 16000


def _band_limited(rng, n, sr, lo_hz=300.0, hi_hz=3400.0):
    """n samples of rng's normal noise limited to [lo_hz, hi_hz]: a 2n-sample
    draw, its rfft zeroed outside the band, then the first n samples back."""
    spec = np.fft.rfft(rng.standard_normal(2 * n))
    freqs = np.fft.rfftfreq(2 * n, 1.0 / sr)
    spec[(freqs < lo_hz) | (freqs > hi_hz)] = 0.0
    return np.fft.irfft(spec)[:n]


def band_noise(seed, duration_s=1.0, sr=SR, lo_hz=300.0, hi_hz=3400.0,
               amp=0.35, am_hz=4.0):
    """Speech-band noise with slow amplitude modulation.

    Broadband like real speech, so windowed perturbations distort it in a
    smoothly window-dependent way (pure tones do not).
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sr))
    x = _band_limited(rng, n, sr, lo_hz, hi_hz)
    t = np.arange(n) / sr
    x = x * (1.0 + 0.5 * np.sin(2.0 * np.pi * am_hz * t))
    return AudioBuffer(x * (amp / np.max(np.abs(x))), sr)


def burst_fixture(seed, duration_s=2.0, spans=((0.3, 0.8), (1.2, 1.7)),
                  sr=SR, amp=0.35, edge_ms=10.0):
    """Digital silence with speech-band noise bursts on the given spans.

    Burst edges get a raised-cosine ramp inside the span so there are no
    clicks; returns (buffer, spans).
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sr))
    x = np.zeros(n)
    edge = int(round(edge_ms * sr / 1000.0))
    for b0, b1 in spans:
        i0, i1 = int(round(b0 * sr)), int(round(b1 * sr))
        burst = _band_limited(rng, i1 - i0, sr)
        burst *= amp / np.max(np.abs(burst))
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
        burst[:edge] *= ramp
        burst[-edge:] *= ramp[::-1]
        x[i0:i1] = burst
    return AudioBuffer(x, sr), tuple(spans)


# mean adult-male F1-F3 in Hz of five vowels (Peterson & Barney, "Control
# methods used in a study of the vowels", JASA 24(2), 1952): /i/, /E/, /A/,
# /O/, /u/
VOWEL_FORMANTS = ((270.0, 2290.0, 3010.0), (530.0, 1840.0, 2480.0), (730.0, 1090.0, 2440.0),
                  (570.0, 840.0, 2410.0), (300.0, 870.0, 2240.0))
FORMANT_BANDWIDTHS = (60.0, 90.0, 150.0)  # Hz, F1 to F3


def _cascade_response(formants, n_fft, sr):
    """Frequency response, on the rfft grid of n_fft, of three two-pole
    resonators in cascade, each of unit gain at 0 Hz: the cascade branch of
    Klatt, "Software for a cascade/parallel formant synthesizer", JASA
    67(3), 1980."""
    z1 = np.exp(-2j * np.pi * np.fft.rfftfreq(n_fft))  # z^-1 on the grid
    h = np.ones(len(z1), dtype=complex)
    for f, bw in zip(formants, FORMANT_BANDWIDTHS):
        c = -np.exp(-2.0 * np.pi * bw / sr)
        b = 2.0 * np.exp(-np.pi * bw / sr) * np.cos(2.0 * np.pi * f / sr)
        h *= (1.0 - b - c) / (1.0 - b * z1 - c * z1 * z1)
    return h


def voiced_utterance(seed, words=(0.3, 0.3, 0.3), gap_s=0.15, floor_db=None,
                     sr=SR, peak=0.35, edge_ms=10.0):
    """Vowel-like "words" of the given durations (s), each gap_s after the
    last and the last followed by gap_s more; returns (buffer, word spans).

    One F0 in 100-180 Hz is drawn per utterance, with 1 % Gaussian jitter
    on every glottal period. A word is two vowels drawn from
    VOWEL_FORMANTS, each half the word: its impulse train through the
    three-resonator cascade, left to ring on to the word's end. Word edges
    get the raised-cosine ramp of burst_fixture inside the span, and the
    whole is scaled to the given peak. The gaps are digital silence; a
    floor_db adds white Gaussian noise throughout, floor_db dB relative to
    the mean-square level of the words.
    """
    rng = np.random.default_rng(seed)
    period = sr / rng.uniform(100.0, 180.0)
    spans, t = [], gap_s
    for duration in words:
        spans.append((t, t + duration))
        t += duration + gap_s
    x = np.zeros(int(round(t * sr)))
    edge = int(round(edge_ms * sr / 1000.0))
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    for w0, w1 in spans:
        i0, i1 = int(round(w0 * sr)), int(round(w1 * sr))
        m = i1 - i0
        n_fft = next_pow2(2 * m)  # the rings past m decay long before they wrap
        word = np.zeros(m)
        for v0, v1 in ((0, m // 2), (m // 2, m)):
            pulses = np.zeros(m - v0)
            pos = rng.uniform(0.0, period)
            while pos < v1 - v0:
                pulses[int(pos)] = 1.0
                pos += period * (1.0 + 0.01 * rng.standard_normal())
            formants = VOWEL_FORMANTS[rng.integers(len(VOWEL_FORMANTS))]
            spec = np.fft.rfft(pulses, n_fft) * _cascade_response(formants, n_fft, sr)
            word[v0:] += np.fft.irfft(spec, n_fft)[:m - v0]
        word[:edge] *= ramp
        word[-edge:] *= ramp[::-1]
        x[i0:i1] = word
    x *= peak / np.max(np.abs(x))
    if floor_db is not None:
        level = np.mean(np.concatenate([x[int(round(a * sr)):int(round(b * sr))]
                                        for a, b in spans]) ** 2)
        x = x + rng.standard_normal(len(x)) * np.sqrt(level * 10.0 ** (floor_db / 10.0))
    return AudioBuffer(x, sr), tuple(spans)


def sine_buffer(freq_hz, duration_s=1.0, sr=SR, amp=0.5, phase=0.0):
    t = np.arange(int(round(duration_s * sr))) / sr
    return AudioBuffer(amp * np.sin(2.0 * np.pi * freq_hz * t + phase), sr)


def random_buffer(seed, n, sr=SR, amp=0.35):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.uniform(-amp, amp, n), sr)


# numpy < 2 zero-pads an FFT's input to the transform length in a new array
# before the transform (np.fft's _raw_fft); numpy 2 pads inside it
FFT_PADS_INPUT = np.lib.NumpyVersion(np.__version__) < "2.0.0"


def warm_peak_bytes(call, *args):
    """Peak bytes tracemalloc sees allocated during call(*args), measured on
    a second call, so that tables the first call caches are not counted."""
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def features_peak_bound(n_frames, frame_len=320, n_filters=26, n_coefficients=13):
    """The most extract_features may allocate on n_frames frames of
    frame_len samples (the default config: 20 ms at 16 kHz, 26 filters, 13
    coefficients). The frames that hold a nonzero sample stream through the
    front end in blocks of at most _BLOCK_FRAMES, read in place and never
    gathered, so only the (n_frames, n_filters) energies grow with the
    clip. Beside them is live either one block or, at the end, the
    (n_frames, n_coefficients) MFCC rows; the frame scan's masks, a few
    bytes per frame, are freed before the first block is built. A block is
    its zero-padded frames, their power, and either their complex spectrum
    or the three buffers of np.getbufsize() values that numpy's ufunc loop
    allocates to window the strided frames. 16 KiB covers the array objects
    around them."""
    fft_size = next_pow2(frame_len)
    bins = fft_size // 2 + 1
    block = (_BLOCK_FRAMES * (fft_size + bins) * 8
             + max(_BLOCK_FRAMES * bins * 16, 3 * np.getbufsize() * 8))
    return n_frames * n_filters * 8 + max(block, n_frames * n_coefficients * 8) + 16 * 1024
