"""Energy-based voice activity detection.

A detector in the adaptive-energy family: frame energies are compared
against a per-file noise-floor estimate with a fixed dB margin, a short
hangover bridges gaps, and tiny regions are discarded. Decisions depend
only on energy ratios, so rescaling the input leaves regions unchanged.

The floor's 10th percentile is numpy's default (linear) percentile: with n
frame energies it interpolates between the order statistics at
floor((n - 1) / 10) and the next one, both found by one partition. It is
computed here with numpy's own arithmetic, so it equals np.percentile bit
for bit without that helper's per-call overhead on the per-query path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import tiles, true_runs, window_ms_to_samples

FRAME_MS = 10.0
MARGIN_DB = 9.0
HANGOVER_FRAMES = 5
MIN_REGION_MS = 30.0
FLOOR_PERCENTILE = 10.0
# The percentile floor is capped this far below the loudest frame so that
# uniformly loud input (e.g. full-scale noise) still reads as active.
FLOOR_CAP_DB = 20.0


@dataclass(frozen=True)
class SpeechRegion:
    start_s: float
    end_s: float

    @property
    def duration(self) -> float:
        return self.end_s - self.start_s


def frame_energies(x: np.ndarray, frame_len: int) -> np.ndarray:
    """Mean-square energy of each consecutive frame_len frame of x; a
    shorter trailing frame counts at its own length."""
    return np.concatenate([np.add.reduce(np.square(b), axis=1) / b.shape[1]
                           for b in tiles(x, frame_len)])


def _percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) of a non-empty 1-D float array, bit for bit:
    numpy's linear method from one partition and its _lerp arithmetic."""
    n = len(values)
    v = (n - 1) * (q / 100)
    lo = int(v)
    hi = min(lo + 1, n - 1)
    part = np.partition(values, (lo, hi))
    a, b, t = float(part[lo]), float(part[hi]), v - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def detect_speech(audio: AudioBuffer) -> list[SpeechRegion]:
    """Detected speech spans in seconds, earliest first.

    Frames are FRAME_MS long at the buffer's rate, a shorter tail included.
    A frame is active when its mean-square energy exceeds the noise floor by
    MARGIN_DB, where the floor is min(10th percentile of frame energies,
    peak frame energy reduced by FLOOR_CAP_DB). The percentile is linear
    interpolation between the order statistics at floor((n - 1) / 10) and
    the next one of the n energies, taken with one partition; it equals
    np.percentile's default. Active runs are extended by HANGOVER_FRAMES,
    merged, and dropped when shorter than MIN_REGION_MS.
    """
    x = audio.samples
    frame_len = window_ms_to_samples(FRAME_MS, audio.sample_rate)
    if len(x) == 0:
        return []
    energies = frame_energies(x, frame_len)

    peak = float(energies.max())
    floor = min(_percentile(energies, FLOOR_PERCENTILE),
                peak / (10.0 ** (FLOOR_CAP_DB / 10.0)))
    threshold = floor * (10.0 ** (MARGIN_DB / 10.0))
    raw = energies > threshold

    active = raw.copy()
    for k in range(1, HANGOVER_FRAMES + 1):
        active[k:] |= raw[:-k]

    first, stop = true_runs(active)
    starts = first * frame_len / audio.sample_rate
    ends = np.minimum(stop * frame_len, len(x)) / audio.sample_rate
    keep = ends - starts >= MIN_REGION_MS / 1000.0
    return [SpeechRegion(start_s, end_s)
            for start_s, end_s in zip(starts[keep].tolist(), ends[keep].tolist())]


def format_regions(regions: list[SpeechRegion]) -> str:
    """One tab-separated "start<TAB>end" line per region, seconds."""
    return "".join(f"{r.start_s:.3f}\t{r.end_s:.3f}\n" for r in regions)
