"""Filterbank cepstral features (MFCC) and log filterbank energies (MFSC).

Pipeline per frame: optional pre-emphasis, analysis window, real FFT zero
padded to the next power of two, magnitude-squared spectrum (or plain
magnitude), triangular mel filterbank, log with an absolute floor, and an
orthonormal DCT-II when cepstral output is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .audio_io import AudioBuffer
from .dsp import frames, next_pow2

_ANALYSIS_WINDOWS = ("hamming", "rectangular")


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
    n_coefficients: int = 13
    include_dct: bool = True      # True -> MFCC, False -> MFSC (log energies)
    use_power: bool = True        # magnitude-squared spectrum vs magnitude
    log_floor: float = 1e-10
    pre_emphasis: float = 0.0     # 0 disables; typical speech value 0.97
    f_min: float = 0.0
    f_max: float | None = None    # None -> Nyquist

    def __post_init__(self):
        if self.analysis_window not in _ANALYSIS_WINDOWS:
            raise ValueError(f"analysis_window must be one of {_ANALYSIS_WINDOWS}")
        if self.frame_ms <= 0 or self.hop_ms <= 0:
            raise ValueError("frame_ms and hop_ms must be positive")
        if self.n_filters < 1:
            raise ValueError("n_filters must be >= 1")
        if not 1 <= self.n_coefficients <= self.n_filters:
            raise ValueError("need 1 <= n_coefficients <= n_filters")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")


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


def mel_filterbank(n_filters: int, fft_size: int, sample_rate: int,
                   f_min: float = 0.0, f_max: float | None = None) -> np.ndarray:
    """Triangular filters, vertices equally spaced in mel, peak weight 1.

    Returns an (n_filters, fft_size//2 + 1) matrix of bin weights; each row
    rises linearly in Hz from its left vertex to its center and falls to its
    right vertex.
    """
    nyquist = sample_rate / 2.0
    if f_max is None:
        f_max = nyquist
    if not 0.0 <= f_min < f_max <= nyquist:
        raise ValueError("need 0 <= f_min < f_max <= Nyquist")
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")
    vertices = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_filters + 2))
    freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    bank = np.zeros((n_filters, len(freqs)))
    for i in range(n_filters):
        left, center, right = vertices[i], vertices[i + 1], vertices[i + 2]
        rise = (freqs - left) / (center - left)
        fall = (right - freqs) / (right - center)
        bank[i] = np.maximum(0.0, np.minimum(rise, fall))
    return bank


def filter_centers(config: FeatureConfig, sample_rate: int) -> np.ndarray:
    """Center frequency (Hz) of each mel filter under this config."""
    f_max = config.f_max if config.f_max is not None else sample_rate / 2.0
    vertices = mel_to_hz(np.linspace(hz_to_mel(config.f_min), hz_to_mel(f_max),
                                     config.n_filters + 2))
    return vertices[1:-1]


def spectrum(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-frame one-sided spectrum of the full analysis frames.

    Pre-emphasis, analysis window, real FFT zero padded to the next power of
    two, then |X|^2 (config.use_power) or |X|. Returns an
    (n_frames, fft_size//2 + 1) matrix.
    """
    frame_len = max(1, round(config.frame_ms * audio.sample_rate / 1000.0))
    hop = max(1, round(config.hop_ms * audio.sample_rate / 1000.0))
    x = audio.samples
    if len(x) < frame_len:
        raise ValueError("audio shorter than one analysis frame")
    if config.pre_emphasis:
        x = np.concatenate([[x[0]], x[1:] - config.pre_emphasis * x[:-1]])
    rows = frames(x, frame_len, hop)
    if config.analysis_window == "hamming":
        rows = rows * np.hamming(frame_len)
    mags = np.abs(np.fft.rfft(rows, n=next_pow2(frame_len), axis=1))
    return mags ** 2 if config.use_power else mags


def mel_energies(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-frame filterbank energies before the log (n_frames x n_filters)."""
    spec = spectrum(audio, config)
    fft_size = max(1, 2 * (spec.shape[1] - 1))  # a power of two, so the bins fix it
    bank = mel_filterbank(config.n_filters, fft_size, audio.sample_rate,
                          config.f_min, config.f_max)
    return spec @ bank.T


def extract_features(audio: AudioBuffer,
                     config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Feature matrix for the buffer; MFCC rows by default, MFSC rows when
    config.include_dct is False. Frame count obeys
    (len - frame) // hop + 1 (99 rows for 1 s at 16 kHz defaults)."""
    energies = mel_energies(audio, config)
    logs = np.log(np.maximum(energies, config.log_floor))
    if config.include_dct:
        data = scipy.fft.dct(logs, type=2, norm="ortho", axis=1)[:, :config.n_coefficients]
    else:
        data = logs
    return FeatureMatrix(np.ascontiguousarray(data), config, audio.sample_rate)


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
    w = max(1, round(window_ms * a.sample_rate / 1000.0))
    n = min(len(a), len(b))
    xa, xb = a.samples[:n], b.samples[:n]
    full = n // w * w
    blocks = ((frames(xa, w, w), frames(xb, w, w)),  # full windows
              (xa[None, full:], xb[None, full:]))    # the tail, maybe empty
    worst = 0.0
    for wa, wb in blocks:
        if wa.size == 0:
            continue
        ma = np.abs(np.fft.rfft(wa, axis=1))
        mb = np.abs(np.fft.rfft(wb, axis=1))
        denom = np.maximum(np.max(ma, axis=1), np.max(mb, axis=1))
        live = denom > 0.0
        ratios = np.max(np.abs(ma - mb), axis=1)[live] / denom[live]
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return worst
