"""Audio perturbations that wreck intelligibility while preserving the
short-window spectral magnitudes speech recognizers consume.

Four primitives:

* tdi - time-domain inversion: each fixed-length window is reversed in place.
* rpg - random phase generation: per window, every interior FFT bin keeps its
  magnitude but gets a fresh uniform-random phase.
* hfa - high-frequency addition: pure sine tones (normally above 8 kHz) are
  mixed on top of the signal.
* ts  - time scaling: playback is compressed by keeping sample k*s and
  dropping the rest, leaving the sample rate untouched.

Window sizes are given in milliseconds and convert to whole samples via
dsp.window_ms_to_samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioBuffer
from .dsp import frames, renormalize, window_ms_to_samples


def tdi(audio: AudioBuffer, window_ms: float) -> AudioBuffer:
    """Reverse every consecutive window; a partial tail reverses at its own
    length. Applying tdi twice with the same window is the exact identity."""
    w = window_ms_to_samples(window_ms, audio.sample_rate)
    x = audio.samples
    windows = frames(x, w, w)
    full = windows.size
    out = np.empty_like(x)
    out[:full] = windows[:, ::-1].ravel()
    out[full:] = x[full:][::-1]
    return AudioBuffer(out, audio.sample_rate)


def rpg(audio: AudioBuffer, window_ms: float, seed: int = 0) -> AudioBuffer:
    """Randomize interior-bin phases per window, preserving bin magnitudes.

    Each window (and the natural-length tail) is transformed at exactly its
    own length, so the per-window magnitude spectrum of the output matches
    the input to machine precision. DC and Nyquist bins stay untouched; the
    phase stream is drawn from a generator seeded once per call, making the
    output a pure function of (samples, window, seed).
    """
    w = window_ms_to_samples(window_ms, audio.sample_rate)
    rng = np.random.default_rng(seed)
    x = audio.samples
    windows = frames(x, w, w)
    full = windows.size
    out = np.empty_like(x)
    out[:full] = _randomize_phases(windows, rng)
    if full < len(x):
        out[full:] = _randomize_phases(x[None, full:], rng)
    return AudioBuffer(out, audio.sample_rate)


def _randomize_phases(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """rpg on each row at the row's own length, flattened; the phases are
    drawn row by row from rng, as a per-window loop would draw them."""
    n = rows.shape[1]
    bins = np.fft.rfft(rows, axis=1)
    hi = (n + 1) // 2  # first non-interior index from above (Nyquist/none)
    if hi > 1:
        theta = rng.uniform(0.0, 2.0 * np.pi, (len(rows), hi - 1))
        bins[:, 1:hi] = np.abs(bins[:, 1:hi]) * np.exp(1j * theta)
    return np.fft.irfft(bins, n=n, axis=1).ravel()


def hfa(audio: AudioBuffer,
        components: tuple[tuple[float, float], ...]) -> tuple[AudioBuffer, float]:
    """Add amplitude * sin(2*pi*f*n/rate) per (f, amplitude) component.

    Returns (buffer, scale). If the mix peaks past full scale the whole
    buffer is rescaled by 1/peak (scale < 1.0 reports that); samples are
    never hard-clipped, so the spectral shape survives.
    """
    nyquist = audio.sample_rate / 2.0
    out = audio.samples.copy()
    n = np.arange(len(out))
    for freq, amp in components:
        if not 0.0 < freq < nyquist:
            raise ValueError(f"component frequency {freq} Hz outside (0, {nyquist})")
        if amp < 0.0:
            raise ValueError("component amplitude must be >= 0")
        out += amp * np.sin(2.0 * np.pi * freq * n / audio.sample_rate)
    out, scale = renormalize(out)
    return AudioBuffer(out, audio.sample_rate), scale


def ts(audio: AudioBuffer, factor_percent: float) -> AudioBuffer:
    """Speed up by factor/100 by decimation: output[k] = input[round(k*s)].

    The sample rate field is left alone, so the audio simply plays faster
    and shorter. Factor 100 is the exact identity; factors below 100 are
    rejected (this primitive only ever drops samples).
    """
    if factor_percent < 100.0:
        raise ValueError("ts factor must be >= 100 percent")
    s = factor_percent / 100.0
    x = audio.samples
    count = int(math.floor((len(x) - 0.5) / s)) + 1 if len(x) else 0
    idx = np.round(np.arange(count) * s).astype(np.int64)
    idx = idx[idx < len(x)]  # guard the float boundary
    return AudioBuffer(x[idx], audio.sample_rate)


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


@dataclass(frozen=True)
class PerturbationChain:
    """Explicitly ordered perturbation steps: ("tdi", {"window_ms": 1.0}), ..."""

    steps: tuple[tuple[str, dict], ...] = ()

    @classmethod
    def from_params(cls, params: PerturbationParams) -> "PerturbationChain":
        """Canonical composition order: ts, then tdi, then rpg, then hfa.

        Time scaling first so window sizes act on the final timeline; the
        additive tones last so their amplitude is not re-shuffled.
        """
        steps: list[tuple[str, dict]] = []
        if params.ts_factor_percent is not None:
            steps.append(("ts", {"factor_percent": params.ts_factor_percent}))
        if params.tdi_window_ms is not None:
            steps.append(("tdi", {"window_ms": params.tdi_window_ms}))
        if params.rpg_window_ms is not None:
            steps.append(("rpg", {"window_ms": params.rpg_window_ms,
                                  "seed": params.rpg_seed}))
        if params.hfa_components:
            steps.append(("hfa", {"components": params.hfa_components}))
        return cls(tuple(steps))


def apply_chain(audio: AudioBuffer, chain: PerturbationChain) -> AudioBuffer:
    """Run the chain steps in order. Any hfa rescale factor is absorbed."""
    out = audio
    for name, kwargs in chain.steps:
        if name == "tdi":
            out = tdi(out, **kwargs)
        elif name == "rpg":
            out = rpg(out, **kwargs)
        elif name == "hfa":
            out, _scale = hfa(out, **kwargs)
        elif name == "ts":
            out = ts(out, **kwargs)
        else:
            raise ValueError(f"unknown chain step {name!r}")
    return out


def apply_params(audio: AudioBuffer, params: PerturbationParams) -> AudioBuffer:
    return apply_chain(audio, PerturbationChain.from_params(params))


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
    out = []
    for t in grid.tdi_window_ms:
        for r in grid.rpg_window_ms:
            for h in grid.hfa_components:
                for s in grid.ts_factor_percent:
                    out.append(PerturbationParams(
                        tdi_window_ms=t, rpg_window_ms=r, rpg_seed=grid.rpg_seed,
                        hfa_components=tuple(h), ts_factor_percent=s))
    return out


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
