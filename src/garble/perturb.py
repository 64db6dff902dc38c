"""Audio perturbations that wreck intelligibility while preserving the
short-window spectral magnitudes speech recognizers consume.

Four primitives:

* tdi - time-domain inversion: each fixed-length window is reversed in place.
* rpg - random phase generation: per window, every interior FFT bin keeps its
  magnitude but gets a fresh uniform-random phase.
* hfa - high-frequency addition: pure sine tones (normally above 8 kHz) are
  mixed on top of the signal.
* ts  - time scaling: playback is compressed by keeping sample k*s (rounded,
  and clamped to the last) and dropping the rest, leaving the sample rate
  untouched.

Window sizes are given in milliseconds and convert to whole samples via
dsp.window_ms_to_samples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import renormalize, tiles, window_ms_to_samples


def tdi(audio: AudioBuffer, window_ms: float) -> AudioBuffer:
    """Reverse every consecutive window; a partial tail reverses at its own
    length. Applying tdi twice with the same window is the exact identity."""
    w = window_ms_to_samples(window_ms, audio.sample_rate)
    blocks = tiles(audio.samples, w)
    return AudioBuffer(np.concatenate([b[:, ::-1].ravel() for b in blocks]),
                       audio.sample_rate)


def rpg(audio: AudioBuffer, window_ms: float, seed: int = 0) -> AudioBuffer:
    """Randomize interior-bin phases per window, preserving bin magnitudes.

    Each window (and the natural-length tail) is transformed at exactly its
    own length, so the per-window magnitude spectrum of the output matches
    the input to machine precision. DC and Nyquist bins stay untouched. The
    windows take consecutive phasors, in window order, from one stream that
    is a pure function of (seed, clip length) and is built once per pair
    (_phasor_stream), so the output is a pure function of (samples, window,
    seed).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    w = window_ms_to_samples(window_ms, audio.sample_rate)
    phasors = _phasor_stream(seed, len(audio.samples))
    out = []
    for rows in tiles(audio.samples, w):  # full windows take the stream first
        n = rows.shape[1]
        hi = (n + 1) // 2  # first non-interior index from above (Nyquist/none)
        used = len(rows) * (hi - 1)
        bins = np.fft.rfft(rows, axis=1)
        bins[:, 1:hi] = np.abs(bins[:, 1:hi]) * phasors[:used].reshape(len(rows), hi - 1)
        phasors = phasors[used:]
        out.append(np.fft.irfft(bins, n=n, axis=1).ravel())
    return AudioBuffer(np.concatenate(out), audio.sample_rate)


@functools.lru_cache(maxsize=4)
def _phasor_stream(seed: int, n: int) -> np.ndarray:
    """Read-only exp(1j*theta) for n // 2 uniform phases theta in [0, 2*pi)
    from default_rng(seed).

    A window of w samples has (w - 1) // 2 interior bins, so n // 2 phasors
    cover the windows of an n-sample clip at any window length. The
    generator fills element by element, so a prefix of this stream is
    exactly what drawing window by window from default_rng(seed) gives.
    """
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n // 2)
    phasors = np.exp(1j * theta)
    phasors.flags.writeable = False
    return phasors


def hfa(audio: AudioBuffer,
        components: tuple[tuple[float, float], ...]) -> tuple[AudioBuffer, float]:
    """Add amplitude * sin(2*pi*f*n/rate) per (f, amplitude) component; the
    unit tone of each (f, length, rate) is built once (_tone).

    Returns (buffer, scale). If the mix peaks past full scale the whole
    buffer is rescaled by 1/peak (scale < 1.0 reports that); samples are
    never hard-clipped, so the spectral shape survives.
    """
    nyquist = audio.sample_rate / 2.0
    out = audio.samples.copy()
    for freq, amp in components:
        if not 0.0 < freq < nyquist:
            raise ValueError(f"component frequency {freq} Hz outside (0, {nyquist})")
        if not 0.0 <= amp < math.inf:
            raise ValueError(f"component amplitude {amp} must be finite and >= 0")
        out += amp * _tone(float(freq), len(out), audio.sample_rate)
    out, scale = renormalize(out)
    return AudioBuffer(out, audio.sample_rate), scale


@functools.lru_cache(maxsize=8)
def _tone(freq: float, n: int, rate: int) -> np.ndarray:
    """Read-only sin(2*pi*freq*k/rate) for k = 0 .. n-1."""
    tone = np.sin(2.0 * np.pi * freq * np.arange(n) / rate)
    tone.flags.writeable = False
    return tone


def ts(audio: AudioBuffer, factor_percent: float) -> AudioBuffer:
    """Speed up by s = factor/100 by decimation:
    output[k] = input[min(round(k*s), n - 1)] for n input samples.

    The sample rate field is left alone, so the audio simply plays faster
    and shorter. Factor 100 is the exact identity; factors below 100 are
    rejected (this primitive only ever drops samples), as are inf and NaN.
    The output has floor((n - 0.5) / s) + 1 samples (none for empty input).
    """
    if not 100.0 <= factor_percent < math.inf:
        raise ValueError("ts factor must be finite and >= 100 percent")
    s = factor_percent / 100.0
    n = len(audio.samples)
    count = math.floor((n - 0.5) / s) + 1
    idx = np.minimum(np.round(np.arange(count) * s), n - 1).astype(np.int64)
    return AudioBuffer(audio.samples[idx], audio.sample_rate)


@dataclass(frozen=True)
class PerturbationParams:
    """One point in perturbation space; None/empty axes are skipped."""

    tdi_window_ms: float | None = None
    rpg_window_ms: float | None = None
    rpg_seed: int = 0
    hfa_components: tuple[tuple[float, float], ...] = ()
    ts_factor_percent: float | None = None

    def __post_init__(self):
        comps = tuple((float(f), float(a)) for f, a in self.hfa_components)
        object.__setattr__(self, "hfa_components", comps)


def apply_params(audio: AudioBuffer, params: PerturbationParams) -> AudioBuffer:
    """Apply the set axes of params in the fixed order ts, tdi, rpg, hfa.

    Time scaling first so window sizes act on the final timeline; the
    additive tones last so their amplitude is not re-shuffled. Any hfa
    rescale factor is dropped.
    """
    if params.ts_factor_percent is not None:
        audio = ts(audio, params.ts_factor_percent)
    if params.tdi_window_ms is not None:
        audio = tdi(audio, params.tdi_window_ms)
    if params.rpg_window_ms is not None:
        audio = rpg(audio, params.rpg_window_ms, seed=params.rpg_seed)
    if params.hfa_components:
        audio, _scale = hfa(audio, params.hfa_components)
    return audio


@dataclass(frozen=True)
class ParamGrid:
    """Axis values for expand_grid; each axis lists its alternatives."""

    tdi_window_ms: tuple[float | None, ...] = (None,)
    rpg_window_ms: tuple[float | None, ...] = (None,)
    hfa_components: tuple[tuple[tuple[float, float], ...], ...] = ((),)
    ts_factor_percent: tuple[float | None, ...] = (None,)
    rpg_seed: int = 0


def expand_grid(grid: ParamGrid) -> list[PerturbationParams]:
    """Cartesian product of the axes, deterministic lexicographic order
    (tdi-major, then rpg, hfa, ts)."""
    return [PerturbationParams(tdi_window_ms=t, rpg_window_ms=r, rpg_seed=grid.rpg_seed,
                               hfa_components=h, ts_factor_percent=s)
            for t, r, h, s in itertools.product(
                grid.tdi_window_ms, grid.rpg_window_ms, grid.hfa_components,
                grid.ts_factor_percent)]


def tdi_probe_schedule(start_ms: float = 1.0, step_ms: float = 0.5,
                       count: int = 10, rpg_seed: int = 0) -> list[PerturbationParams]:
    """The standard probe ladder: tdi windows start_ms, start_ms+step, ...

    Defaults give ten points at 1.00 ms spacing 0.50 ms; smaller windows
    sound worse, so ascending window order is descending distortion order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [PerturbationParams(tdi_window_ms=start_ms + i * step_ms, rpg_seed=rpg_seed)
            for i in range(count)]
