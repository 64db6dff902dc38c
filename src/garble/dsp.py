"""Shared array kernels and rules: ms-to-samples conversion, the seed rule,
framing and tiling, the runs of a mask, FIR low-pass design, FFT filtering
and the table cache, on plain numpy arrays. This module imports nothing
from the package."""

from __future__ import annotations

import functools
import math
import operator
import sys

import numpy as np


def cached_table(build):
    """The one cache policy for per-configuration tables: build's results
    kept in an lru_cache of 8 entries keyed by the arguments and their types
    (a float32 argument never shares an equal float64's entry), with every
    ndarray in a result, alone or in a tuple, made read-only before it is
    cached. A hit stays in C and returns the same object. A cache of
    clip-length arrays (rpg's phasors, channel noise, ts's index) holds up
    to eight of them."""
    @functools.lru_cache(maxsize=8, typed=True)
    @functools.wraps(build)
    def frozen(*args, **kwargs):
        table = build(*args, **kwargs)
        for array in table if isinstance(table, tuple) else (table,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return table
    return frozen


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


def checked_seed(seed) -> int:
    """The seed rule of every random stream (rpg's phases, channel noise): an
    integer >= 0, returned as an int; a float is a TypeError, not a cast."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def frames(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Read-only (n_frames, length) strided view of the full frames of x
    (of a contiguous copy of x when x is not contiguous).

    Frames start at 0, hop, 2*hop, ... and only those that fit whole are
    included, so input shorter than one frame gives zero rows. To cover
    all of x with consecutive windows, shorter remainder included, use
    tiles.
    """
    if length < 1 or hop < 1:
        raise ValueError("length and hop must be >= 1")
    x = np.ascontiguousarray(x)
    n_frames = (len(x) - length) // hop + 1 if len(x) >= length else 0
    step = x.itemsize
    # the view as_strided would build, without its Python-level set-up
    view = np.ndarray((n_frames, length), x.dtype, buffer=x, strides=(hop * step, step))
    view.flags.writeable = False
    return view


def tiles(x: np.ndarray, length: int) -> list[np.ndarray]:
    """Consecutive length-sample windows covering x, as read-only blocks
    of rows: the (n, length) view of the full windows, then the shorter
    remainder as a one-row block when there is one. The raveled blocks
    concatenate back to x. The full windows are a plain reshape (a view of
    contiguous x), which costs a fraction of frames' strided view."""
    if length < 1:
        raise ValueError("length must be >= 1")
    x = np.asarray(x)
    cut = len(x) - len(x) % length  # the full windows end here
    full = x[:cut].reshape(-1, length)
    tail = x[None, cut:]
    full.flags.writeable = tail.flags.writeable = False
    return [full, tail] if tail.size else [full]


def true_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of each run of True in the 1-D bool mask, earliest
    first, each end exclusive: the edges where the mask, padded with False
    at both ends, changes value, starts at even and ends at odd positions
    (np.diff of a bool array is this not_equal)."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.nonzero(padded[1:] != padded[:-1])[0]
    return edges[0::2], edges[1::2]


# the most taps lowpass_length gives: 128 MiB of float64 taps, and a
# filter design and FFT size that fit in memory
_MAX_TAPS = 2**24


def lowpass_length(cutoff_hz: float, sample_rate: int) -> int:
    """Default odd tap count for a low-pass edge at cutoff_hz.

    4 * fs / transition_width with the transition band spanning
    [0.8, 1.2] * cutoff, rounded, then up to odd. Rejects an edge so low
    that the count is not finite or passes _MAX_TAPS (2**24), which is an
    edge below about 0.0095 Hz at 16 kHz and 0.029 Hz at 48 kHz.
    """
    width = 0.4 * cutoff_hz
    count = 4.0 * sample_rate / width if width else math.inf
    # inf and NaN stay past the cap; an even count rounds up to odd
    numtaps = round(count) | 1 if count <= _MAX_TAPS else math.inf
    if numtaps > _MAX_TAPS:
        raise ValueError(f"a low-pass edge at {cutoff_hz!r} Hz needs too many "
                         f"taps at {sample_rate} Hz")
    return numtaps


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


@cached_table
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


@cached_table
def _taps_spectrum(taps_bytes: bytes, size: int) -> np.ndarray:
    """rfft of the float64 taps (given as raw bytes) at size: zero padded,
    or cropped when size is shorter."""
    return np.fft.rfft(np.frombuffer(taps_bytes), size)


def apply_fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve the float64 samples x by FFT and compensate the group
    delay, (numtaps-1)/2 = delay: float64 samples of x's length, equal to
    direct convolution to rounding, not bit for bit. Unchecked: input near
    the float64 maximum can give inf or NaN, which the caller must reject.

    The FFT (np.fft) is zero padded to the 5-smooth size _fast_len(n +
    delay): the circular wrap-around then lands only in the first delay
    samples, which are cut, and the taps that a shorter FFT crops reach no
    kept sample. The taps' spectrum is built once per (taps bytes, FFT
    size) (_taps_spectrum), so repeated calls with the same taps on
    same-length input transform only the input."""
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or len(taps) % 2 == 0:
        raise ValueError("only 1-D odd-length (linear-phase, integer-delay) taps")
    n = len(x)
    delay = (len(taps) - 1) // 2
    size = _fast_len(n + delay)
    product = np.fft.rfft(x, size)
    product *= _taps_spectrum(taps.tobytes(), size)
    return np.fft.irfft(product, size)[delay:delay + n]
