"""Filterbank cepstral features (MFCC) and log filterbank energies (MFSC).

Pipeline per frame: optional pre-emphasis, analysis window, real FFT zero
padded to the next power of two, power spectrum re^2 + im^2 (or the
magnitude |X|), triangular mel filterbank, log with an absolute floor, and
an orthonormal DCT-II when cepstral output is wanted. Frames stream through
the front end _BLOCK_FRAMES at a time, each block weighted by the mel bank
as it is transformed, so the feature path holds the energies plus one block.
Only the frames that hold a nonzero sample are transformed: an all-zero
frame's spectrum and energies are exactly zero, so its log row is the floor
row. A clip with no zero sample is a single run, blocked from its first
frame on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import cached_table, frames, next_pow2, tiles, true_runs, window_ms_to_samples

_WINDOWS = {"hamming": np.hamming, "rectangular": np.ones}  # name -> builder(length)
_LOG_FLOOR = 1e-10  # absolute floor on filterbank energies before the log
# frames the front end windows, transforms and weights at a time, within each
# run of frames that hold a nonzero sample. The figures below were measured
# on dense streams, before all-zero frames were skipped. Against 32
# (in-process A/B, seed 301, 60 ops x 8 rounds), attack_line read 64 at -4 %,
# 80 at -9 % and 128 at +19 % with 671 minor page faults per op; attack_air
# read 80 at +2 % with 262 faults per op, where 32 has none. bench/run.py put
# 80 ahead on attack_line (op_cost.p50 1.248 -> 1.190) and behind on
# attack_air in 4 of 4 pairs. Other sizes also move feature bits: 64 fails
# test_golden's extract_features rows.
_BLOCK_FRAMES = 32


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
    use_power: bool = True        # power re^2 + im^2 vs magnitude |X|
    pre_emphasis: float = 0.0     # 0 disables; typical speech value 0.97

    def __post_init__(self):
        if self.analysis_window not in _WINDOWS:
            raise ValueError(f"analysis_window must be one of {tuple(_WINDOWS)}")
        if not (0 < self.frame_ms < math.inf and 0 < self.hop_ms < math.inf):
            raise ValueError("frame_ms and hop_ms must be positive and finite")
        if not -1 <= self.pre_emphasis <= 1:  # NaN fails too
            raise ValueError(
                f"pre_emphasis must be finite and in [-1, 1], got {self.pre_emphasis}")
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


@cached_table
def mel_filterbank(n_filters: int, fft_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters spanning 0 Hz to Nyquist, vertices equally spaced
    in mel, peak weight 1.

    Returns an (n_filters, fft_size//2 + 1) matrix of bin weights, built
    once per argument triple; each row rises linearly in Hz from its left
    vertex to its center and falls to its right vertex. There are at least
    one and at most as many filters as bins, checked before any is built.
    """
    n_bins = fft_size // 2 + 1
    if not 1 <= n_filters <= n_bins:
        raise ValueError(f"n_filters must be in [1, {n_bins}] (FFT bins), got {n_filters}")
    vertices = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_filters + 2))
    left, center, right = vertices[:-2, None], vertices[1:-1, None], vertices[2:, None]
    freqs = np.arange(n_bins) * (sample_rate / fft_size)
    rise = (freqs - left) / (center - left)
    fall = (right - freqs) / (right - center)
    return np.maximum(0.0, np.minimum(rise, fall))


@cached_table
def _window(name: str, length: int) -> np.ndarray:
    """The analysis window of that name and length, built once per pair."""
    return _WINDOWS[name](length)


@cached_table
def _dct_rows(n_coeffs: int, n_filters: int) -> np.ndarray:
    """First n_coeffs rows of the orthonormal DCT-II matrix on n =
    n_filters points, built once per pair: row k weights point i by
    sqrt((1 if k == 0 else 2) / n) * cos(pi * k * (2i + 1) / (2n))."""
    k = np.arange(n_coeffs)[:, None]
    i = np.arange(n_filters)
    # reduce the phase k * (2i + 1) mod 4 * n_filters exactly, in integers
    phase = (k * (2 * i + 1)) % (4 * n_filters)
    rows = np.cos(np.pi * phase / (2 * n_filters))
    rows *= np.where(k == 0, math.sqrt(1.0 / n_filters), math.sqrt(2.0 / n_filters))
    return rows


def has_frames(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> bool:
    """Whether audio holds one full analysis frame, as spectrum requires."""
    return len(audio) >= window_ms_to_samples(config.frame_ms, audio.sample_rate)


def _power(spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a complex array into out with no temporary: its
    float64 (re, im) pairs are squared in place, then each pair summed."""
    pairs = spec.view(np.float64)
    np.square(pairs, out=pairs)
    return np.add(pairs[..., 0::2], pairs[..., 1::2], out=out)


def _spectrum_blocks(audio: AudioBuffer, config: FeatureConfig):
    """Yield (n_frames, fft_size) before any transform, then (start, block)
    for each block of up to _BLOCK_FRAMES consecutive full frames from
    frame start on. The blocks tile the runs of frames that hold a nonzero
    sample (dsp.true_runs) and no others: an all-zero frame's spectrum is
    exactly zero, which the caller's zeroed output already holds. A clip
    with no zero sample (one x.all() pass) is a single run and pays no
    frame scan.

    One zero-padded (min(_BLOCK_FRAMES, n_frames), fft_size) scratch is
    built per call: each block's frames times its cached window (_window)
    fill its first frame_len columns and the columns past them stay zero,
    so one np.fft.rfft of the scratch is the transform zero padded to the
    next power of two. Its power (_power) or magnitude (np.abs) is written
    into one reused (block, bins) buffer, and each block yielded is that
    buffer, so it holds only until the next one is drawn.
    """
    frame_len = window_ms_to_samples(config.frame_ms, audio.sample_rate)
    hop = window_ms_to_samples(config.hop_ms, audio.sample_rate)
    x = audio.samples
    if not has_frames(audio, config):
        raise ValueError("audio shorter than one analysis frame")
    if config.pre_emphasis:
        x = np.concatenate([[x[0]], x[1:] - config.pre_emphasis * x[:-1]])
    rows = frames(x, frame_len, hop)
    window = _window(config.analysis_window, frame_len)
    fft_size = next_pow2(frame_len)
    level = _power if config.use_power else np.abs
    yield len(rows), fft_size
    live = ([0], [len(rows)]) if x.all() else true_runs(rows.any(axis=1))
    padded = np.zeros((min(_BLOCK_FRAMES, len(rows)), fft_size))
    out = np.empty((len(padded), fft_size // 2 + 1))
    for first, stop in zip(*live):
        for start in range(first, stop, _BLOCK_FRAMES):
            block = rows[start:min(start + _BLOCK_FRAMES, stop)]
            n = len(block)
            np.multiply(block, window, out=padded[:n, :frame_len])
            # the complex block is dropped before the next block is windowed
            yield start, level(np.fft.rfft(padded[:n], axis=1), out=out[:n])


def spectrum(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-frame one-sided spectrum of the full analysis frames.

    Pre-emphasis, analysis window, real FFT zero padded to the next power of
    two, then the power re^2 + im^2 (config.use_power) or the magnitude |X|.
    Returns an (n_frames, fft_size//2 + 1) matrix: the blocks of
    _spectrum_blocks written into zeros, so an all-zero frame's row stays
    exactly zero and memory is this matrix plus one block (plus
    a pre-emphasized copy of the clip when pre_emphasis is set). The
    feature path never builds it; garble spectrogram draws it. The analysis
    window is built once per name and frame length (_window).
    """
    blocks = _spectrum_blocks(audio, config)
    n_frames, fft_size = next(blocks)
    out = np.zeros((n_frames, fft_size // 2 + 1))
    for start, block in blocks:
        out[start:start + len(block)] = block
    return out


def mel_energies(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Per-frame filterbank energies before the log (n_frames x n_filters).

    The cached mel_filterbank is fetched before the first transform, so a
    filter count outside [1, bins], the rule mel_filterbank owns, is
    refused before any spectrum is computed. Each block of spectrum rows
    is then weighted by the bank in its own product, written into the
    energies, which start at zero: an all-zero frame is never transformed,
    and its energies stay exactly 0. Memory is these energies plus one
    block."""
    blocks = _spectrum_blocks(audio, config)
    n_frames, fft_size = next(blocks)
    bank = mel_filterbank(config.n_filters, fft_size, audio.sample_rate)
    energies = np.zeros((n_frames, config.n_filters))
    for start, block in blocks:
        np.matmul(block, bank.T, out=energies[start:start + len(block)])
    return energies


def extract_features(audio: AudioBuffer,
                     config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Feature matrix for the buffer; MFCC rows by default, MFSC rows when
    config.include_dct is False. Frame count obeys
    (len - frame) // hop + 1 (99 rows for 1 s at 16 kHz defaults).

    The energies are floored and logged in place. MFCC rows are the log
    energies times the cached DCT-II rows of _dct_rows, so only the kept
    coefficients are computed. They match an orthonormal FFT-based DCT-II
    to rounding (within 6e-14 on log energies), not bit for bit."""
    logs = mel_energies(audio, config)
    np.log(np.maximum(logs, _LOG_FLOOR, out=logs), out=logs)
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
    # np.mean(np.linalg.norm(diff, axis=1)) as those helpers evaluate it
    return float(np.add.reduce(np.sqrt(np.add.reduce(diff * diff, axis=1))) / n)


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
