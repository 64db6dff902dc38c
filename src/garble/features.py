"""Filterbank cepstral features (MFCC) and log filterbank energies (MFSC).

Pipeline per frame: optional pre-emphasis, analysis window, real FFT zero
padded to the next power of two, magnitude-squared spectrum (or plain
magnitude), triangular mel filterbank, log with an absolute floor, and an
orthonormal DCT-II when cepstral output is wanted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import frames, next_pow2, tiles, window_ms_to_samples

_ANALYSIS_WINDOWS = ("hamming", "rectangular")
_LOG_FLOOR = 1e-10  # absolute floor on filterbank energies before the log


def hz_to_mel(hz):
    """mel = 2595 * log10(1 + hz/700)"""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class FeatureConfig:
    frame_ms: float = 20.0
    hop_ms: float = 10.0
    analysis_window: str = "hamming"
    n_filters: int = 26
    n_coefficients: int = 13      # MFCC only; MFSC keeps all n_filters
    include_dct: bool = True      # True -> MFCC, False -> MFSC (log energies)
    use_power: bool = True        # magnitude-squared spectrum vs magnitude
    pre_emphasis: float = 0.0     # 0 disables; typical speech value 0.97

    def __post_init__(self):
        if self.analysis_window not in _ANALYSIS_WINDOWS:
            raise ValueError(f"analysis_window must be one of {_ANALYSIS_WINDOWS}")
        if not (0 < self.frame_ms < math.inf and 0 < self.hop_ms < math.inf):
            raise ValueError("frame_ms and hop_ms must be positive and finite")
        if not math.isfinite(self.pre_emphasis):
            raise ValueError("pre_emphasis must be finite")
        if self.n_filters < 1:
            raise ValueError("n_filters must be >= 1")
        if self.include_dct and not 1 <= self.n_coefficients <= self.n_filters:
            raise ValueError("need 1 <= n_coefficients <= n_filters")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Feature rows (one per frame) plus the config and rate that made them."""

    data: np.ndarray
    config: FeatureConfig
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    def to_text(self) -> str:
        """One frame per line, 9-significant-digit decimals, space separated."""
        lines = [" ".join(f"{v:.9g}" for v in row) for row in self.data]
        return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_filters: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters spanning 0 Hz to Nyquist, vertices equally spaced
    in mel, peak weight 1.

    Returns a read-only (n_filters, fft_size//2 + 1) matrix of bin weights,
    built once per argument triple and kept in a small cache; each row
    rises linearly in Hz from its left vertex to its center and falls to its
    right vertex.
    """
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")
    vertices = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_filters + 2))
    left, center, right = vertices[:-2, None], vertices[1:-1, None], vertices[2:, None]
    freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    rise = (freqs - left) / (center - left)
    fall = (right - freqs) / (right - center)
    bank = np.maximum(0.0, np.minimum(rise, fall))
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=8)
def _hamming(length: int) -> np.ndarray:
    """Read-only np.hamming(length), built once per length."""
    window = np.hamming(length)
    window.flags.writeable = False
    return window


@functools.lru_cache(maxsize=8)
def _dct_rows(n_coeffs: int, n_filters: int) -> np.ndarray:
    """Read-only first n_coeffs rows of the orthonormal DCT-II matrix on
    n = n_filters points, built once per pair and kept in a small cache:
    row k weights point i by sqrt((1 if k == 0 else 2) / n) *
    cos(pi * k * (2i + 1) / (2n))."""
    k = np.arange(n_coeffs)[:, None]
    i = np.arange(n_filters)
    # reduce the phase k * (2i + 1) mod 4 * n_filters exactly, in integers
    phase = (k * (2 * i + 1)) % (4 * n_filters)
    rows = np.cos(np.pi * phase / (2 * n_filters))
    rows *= np.where(k == 0, math.sqrt(1.0 / n_filters), math.sqrt(2.0 / n_filters))
    rows.flags.writeable = False
    return rows


def has_frames(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> bool:
    """Whether audio holds one full analysis frame, as spectrum requires."""
    return len(audio) >= window_ms_to_samples(config.frame_ms, audio.sample_rate)


def spectrum(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-frame one-sided spectrum of the full analysis frames.

    Pre-emphasis, analysis window, real FFT zero padded to the next power of
    two, then |X|^2 (config.use_power) or |X|. Returns an
    (n_frames, fft_size//2 + 1) matrix, which mel_energies weights by the
    cached mel_filterbank. The Hamming window is built once per frame
    length and comes from a small cache.
    """
    frame_len = window_ms_to_samples(config.frame_ms, audio.sample_rate)
    hop = window_ms_to_samples(config.hop_ms, audio.sample_rate)
    x = audio.samples
    if not has_frames(audio, config):
        raise ValueError("audio shorter than one analysis frame")
    if config.pre_emphasis:
        x = np.concatenate([[x[0]], x[1:] - config.pre_emphasis * x[:-1]])
    rows = frames(x, frame_len, hop)
    if config.analysis_window == "hamming":
        rows = rows * _hamming(frame_len)
    mags = np.abs(np.fft.rfft(rows, n=next_pow2(frame_len), axis=1))
    return mags ** 2 if config.use_power else mags


def mel_energies(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-frame filterbank energies before the log (n_frames x n_filters)."""
    spec = spectrum(audio, config)
    fft_size = max(1, 2 * (spec.shape[1] - 1))  # a power of two, so the bins fix it
    bank = mel_filterbank(config.n_filters, fft_size, audio.sample_rate)
    return spec @ bank.T


def extract_features(audio: AudioBuffer,
                     config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Feature matrix for the buffer; MFCC rows by default, MFSC rows when
    config.include_dct is False. Frame count obeys
    (len - frame) // hop + 1 (99 rows for 1 s at 16 kHz defaults).

    MFCC rows are the log energies times the cached DCT-II rows of
    _dct_rows, so only the kept coefficients are computed. They match an
    orthonormal FFT-based DCT-II to rounding (within 6e-14 on log
    energies), not bit for bit."""
    energies = mel_energies(audio, config)
    logs = np.log(np.maximum(energies, _LOG_FLOOR))
    if config.include_dct:
        data = logs @ _dct_rows(config.n_coefficients, config.n_filters).T
    else:
        data = logs
    return FeatureMatrix(data, config, audio.sample_rate)


def feature_distance(a: FeatureMatrix, b: FeatureMatrix) -> float:
    """Mean Euclidean distance between aligned frames (extra frames of the
    longer matrix are ignored). Zero iff the aligned parts are identical."""
    if a.config != b.config:
        raise ValueError("feature configs differ")
    if a.sample_rate != b.sample_rate:
        raise ValueError("sample rates differ")
    n = min(a.n_frames, b.n_frames)
    if n == 0:
        raise ValueError("no frames to compare")
    diff = a.data[:n] - b.data[:n]
    return float(np.mean(np.linalg.norm(diff, axis=1)))


def max_window_magnitude_diff(a: AudioBuffer, b: AudioBuffer, window_ms: float) -> float:
    """Largest |FFT| difference between aligned windows of a and b, relative
    to the larger peak magnitude of the two windows.

    Windows of window_ms (at least one sample) tile the common length, the
    shorter tail at its own length; windows silent in both are skipped.
    Zero when every window's magnitude spectrum matches exactly.
    """
    if a.sample_rate != b.sample_rate:
        raise ValueError("sample rates differ")
    w = window_ms_to_samples(window_ms, a.sample_rate)
    n = min(len(a), len(b))
    worst = 0.0
    for wa, wb in zip(tiles(a.samples[:n], w), tiles(b.samples[:n], w)):
        ma = np.abs(np.fft.rfft(wa, axis=1))
        mb = np.abs(np.fft.rfft(wb, axis=1))
        denom = np.maximum(np.max(ma, axis=1), np.max(mb, axis=1))
        live = denom > 0.0
        ratios = np.max(np.abs(ma - mb), axis=1)[live] / denom[live]
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return worst
