"""Shared signal kernels: ms-to-samples conversion, framing and tiling, peak
renormalization, FIR low-pass design and FFT filtering."""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .audio_io import AudioBuffer


def next_pow2(n: int) -> int:
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()


# the longest window whose float64 byte span numpy can stride over
_MAX_WINDOW = sys.maxsize // np.dtype(np.float64).itemsize


def window_ms_to_samples(window_ms: float, sample_rate: int) -> int:
    """Whole samples in a window of window_ms at sample_rate, at least one:
    max(1, round(window_ms * sample_rate / 1000)). Rejects window_ms that
    is not positive and finite, and a window longer than _MAX_WINDOW
    samples, which no frame view can index."""
    if not 0 < window_ms < math.inf:
        raise ValueError("window length in ms must be positive and finite")
    samples = window_ms * sample_rate / 1000.0
    if not samples <= _MAX_WINDOW:  # inf fails too
        raise ValueError(f"a window of {window_ms!r} ms is too long to index "
                         f"at {sample_rate} Hz")
    return max(1, round(samples))


def frames(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Read-only (n_frames, length) strided view of the full frames of x.

    Frames start at 0, hop, 2*hop, ... and only those that fit whole are
    included, so input shorter than one frame gives zero rows. To cover
    all of x with consecutive windows, shorter remainder included, use
    tiles.
    """
    if length < 1 or hop < 1:
        raise ValueError("length and hop must be >= 1")
    x = np.asarray(x)
    n_frames = (len(x) - length) // hop + 1 if len(x) >= length else 0
    step = x.strides[0]
    return np.lib.stride_tricks.as_strided(
        x, (n_frames, length), (hop * step, step), writeable=False)


def tiles(x: np.ndarray, length: int) -> list[np.ndarray]:
    """Consecutive length-sample windows covering x, as read-only blocks
    of rows: the (n, length) view of the full windows, then the shorter
    remainder as a one-row block when there is one. The raveled blocks
    concatenate back to x."""
    full = frames(x, length, length)
    tail = np.asarray(x)[None, full.size:]
    tail.flags.writeable = False
    return [full, tail] if tail.size else [full]


def renormalize(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale x by 1/peak when it peaks past full scale; returns (x, scale).

    scale is 1.0 (and x is returned as is) when |x| <= 1 throughout, so the
    caller can report every rescale instead of hard-clipping.
    """
    peak = float(np.max(np.abs(x), initial=0.0))
    if peak <= 1.0:
        return x, 1.0
    scale = 1.0 / peak
    return x * scale, scale


def lowpass_length(cutoff_hz: float, sample_rate: int) -> int:
    """Default odd tap count for a low-pass edge at cutoff_hz.

    4 * fs / transition_width with the transition band spanning
    [0.8, 1.2] * cutoff, rounded up to odd.
    """
    numtaps = int(round(4.0 * sample_rate / (0.4 * cutoff_hz)))
    return numtaps + 1 if numtaps % 2 == 0 else numtaps


def design_lowpass(cutoff_hz: float, sample_rate: int, numtaps: int) -> np.ndarray:
    """Hamming windowed-sinc low-pass taps, numtaps long (odd), unit DC gain.

    lowpass_length gives the tap count for one edge. Cutoff at Nyquist
    degenerates to a unit impulse, which apply_fir passes through to
    rounding (~1e-16).
    """
    nyquist = sample_rate / 2.0
    if not 0.0 < cutoff_hz <= nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist}] Hz")
    if numtaps < 1 or numtaps % 2 == 0:
        raise ValueError("numtaps must be odd and positive")
    fc = cutoff_hz / sample_rate  # normalized, 0.5 == Nyquist
    m = np.arange(numtaps) - (numtaps - 1) / 2
    h = 2.0 * fc * np.sinc(2.0 * fc * m)
    h *= np.hamming(numtaps)
    return h / np.sum(h)


@functools.lru_cache(maxsize=8)
def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2**a * 3**b * 5**c) >= n, an FFT size
    that np.fft transforms without falling back to a slow prime factor."""
    best = next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * next_pow2(-(-n // p35)))
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _taps_spectrum(taps_bytes: bytes, size: int) -> np.ndarray:
    """Read-only rfft of the float64 taps (given as raw bytes) at size:
    zero padded, or cropped when size is shorter."""
    spec = np.fft.rfft(np.frombuffer(taps_bytes), size)
    spec.flags.writeable = False
    return spec


def apply_fir(audio: AudioBuffer, taps: np.ndarray) -> AudioBuffer:
    """Convolve by FFT and compensate the group delay, (numtaps-1)/2 = delay;
    length preserved. Matches direct convolution to rounding, not bit for
    bit.

    The FFT (np.fft) is zero padded to the 5-smooth size _fast_len(n +
    delay): the circular wrap-around then lands only in the first delay
    samples, which are cut, and the taps that a shorter FFT crops reach no
    kept sample. The taps' spectrum is built once per (taps bytes, FFT
    size) and reused from a small cache, so repeated calls with the same
    taps on same-length audio transform only the audio."""
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or len(taps) % 2 == 0:
        raise ValueError("only 1-D odd-length (linear-phase, integer-delay) taps")
    n = len(audio.samples)
    delay = (len(taps) - 1) // 2
    size = _fast_len(n + delay)
    product = np.fft.rfft(audio.samples, size) * _taps_spectrum(taps.tobytes(), size)
    full = np.fft.irfft(product, size)
    return AudioBuffer(full[delay:delay + n], audio.sample_rate)

