"""Energy-based voice activity detection.

A detector in the adaptive-energy family: frame energies are compared
against a per-file noise-floor estimate with a fixed dB margin, a short
hangover bridges gaps, and tiny regions are discarded. Decisions depend
only on energy ratios, so rescaling the input leaves regions unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import frames

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
    full = frames(x, frame_len, frame_len)
    energies = np.mean(full ** 2, axis=1)
    tail = x[full.size:]
    if len(tail):
        energies = np.append(energies, np.mean(tail ** 2))
    return energies


def detect_speech(audio: AudioBuffer,
                  frame_ms: float = FRAME_MS,
                  margin_db: float = MARGIN_DB,
                  hangover_frames: int = HANGOVER_FRAMES,
                  min_region_ms: float = MIN_REGION_MS) -> list[SpeechRegion]:
    """Detected speech spans in seconds, earliest first.

    A frame is active when its mean-square energy exceeds the noise floor by
    margin_db, where the floor is min(10th percentile of frame energies,
    peak frame energy reduced by FLOOR_CAP_DB). Active runs are extended by
    hangover_frames, merged, and dropped when shorter than min_region_ms.
    """
    x = audio.samples
    frame_len = max(1, round(frame_ms * audio.sample_rate / 1000.0))
    if len(x) == 0:
        return []
    energies = frame_energies(x, frame_len)
    n_frames = len(energies)

    peak = float(np.max(energies))
    floor = min(float(np.percentile(energies, FLOOR_PERCENTILE)),
                peak / (10.0 ** (FLOOR_CAP_DB / 10.0)))
    threshold = floor * (10.0 ** (margin_db / 10.0))
    raw = energies > threshold

    active = raw.copy()
    for k in range(1, hangover_frames + 1):
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
    min_dur = min_region_ms / 1000.0
    for i0, i1 in regions:
        start_s = i0 * frame_len / audio.sample_rate
        end_s = min(i1 * frame_len, len(x)) / audio.sample_rate
        if end_s - start_s >= min_dur:
            out.append(SpeechRegion(start_s, end_s))
    return out


def format_regions(regions: list[SpeechRegion]) -> str:
    """One tab-separated "start<TAB>end" line per region, seconds."""
    return "".join(f"{r.start_s:.3f}\t{r.end_s:.3f}\n" for r in regions)
