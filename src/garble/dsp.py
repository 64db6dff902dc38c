"""Shared signal kernels: ms-to-samples conversion, framing, peak
renormalization, FIR low-pass, SNR measurement."""

from __future__ import annotations

import math

import numpy as np

from .audio_io import AudioBuffer


def next_pow2(n: int) -> int:
    if n < 1:
        return 1
    return 1 << (n - 1).bit_length()


def window_ms_to_samples(window_ms: float, sample_rate: int) -> int:
    """Whole samples in a window of window_ms at sample_rate, at least one:
    max(1, round(window_ms * sample_rate / 1000)). Rejects window_ms <= 0."""
    if window_ms <= 0:
        raise ValueError("window length in ms must be positive")
    return max(1, round(window_ms * sample_rate / 1000.0))


def frames(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Read-only (n_frames, length) strided view of the full frames of x.

    Frames start at 0, hop, 2*hop, ... and only those that fit whole are
    included. Callers that tile x (hop == length) and keep the shorter
    remainder slice it themselves as x[view.size:]. Input shorter than one
    frame gives zero rows.
    """
    if length < 1 or hop < 1:
        raise ValueError("length and hop must be >= 1")
    x = np.asarray(x)
    n_frames = (len(x) - length) // hop + 1 if len(x) >= length else 0
    step = x.strides[0]
    return np.lib.stride_tricks.as_strided(
        x, (n_frames, length), (hop * step, step), writeable=False)


def renormalize(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale x by 1/peak when it peaks past full scale; returns (x, scale).

    scale is 1.0 (and x is returned as is) when |x| <= 1 throughout, so the
    caller can report every rescale instead of hard-clipping.
    """
    peak = float(np.max(np.abs(x))) if len(x) else 0.0
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


def design_lowpass(cutoff_hz: float, sample_rate: int,
                   numtaps: int | None = None) -> np.ndarray:
    """Hamming windowed-sinc low-pass taps, odd length, unit DC gain.

    The default order is lowpass_length(cutoff_hz, sample_rate). Cutoff at
    Nyquist degenerates to a unit impulse (exact pass-through).
    """
    nyquist = sample_rate / 2.0
    if not 0.0 < cutoff_hz <= nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist}] Hz")
    if numtaps is None:
        numtaps = lowpass_length(cutoff_hz, sample_rate)
    if numtaps < 1 or numtaps % 2 == 0:
        raise ValueError("numtaps must be odd and positive")
    fc = cutoff_hz / sample_rate  # normalized, 0.5 == Nyquist
    m = np.arange(numtaps) - (numtaps - 1) / 2
    h = 2.0 * fc * np.sinc(2.0 * fc * m)
    h *= np.hamming(numtaps)
    return h / np.sum(h)


def apply_fir(audio: AudioBuffer, taps: np.ndarray) -> AudioBuffer:
    """Convolve and compensate the (numtaps-1)/2 group delay; length preserved."""
    numtaps = len(taps)
    if numtaps % 2 == 0:
        raise ValueError("only odd-length (linear-phase, integer-delay) taps")
    if len(audio.samples) == 0:
        return audio
    full = np.convolve(audio.samples, taps)
    delay = (numtaps - 1) // 2
    return AudioBuffer(full[delay:delay + len(audio.samples)], audio.sample_rate)


def low_pass(audio: AudioBuffer, cutoff_hz: float) -> AudioBuffer:
    """Zero-phase-aligned FIR low-pass at cutoff_hz (see design_lowpass)."""
    return apply_fir(audio, design_lowpass(cutoff_hz, audio.sample_rate))


def measure_snr(reference: AudioBuffer, test: AudioBuffer) -> float:
    """10*log10(P_ref / P_residual) in dB; +inf when the signals are identical."""
    if len(reference.samples) != len(test.samples):
        raise ValueError("length mismatch")
    if reference.sample_rate != test.sample_rate:
        raise ValueError("sample rate mismatch")
    p_ref = float(np.mean(reference.samples ** 2)) if len(reference) else 0.0
    residual = test.samples - reference.samples
    p_res = float(np.mean(residual ** 2)) if len(reference) else 0.0
    if p_res == 0.0:
        return math.inf
    if p_ref == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_ref / p_res)
