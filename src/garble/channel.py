"""Desk-scale over-the-air channel: band-limit, optional reverb tap train,
seeded additive noise at a target SNR.

Configs come from presets ("transparent", "harsh") or from a key=value file
with the fields of ChannelConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import AudioBuffer
from .dsp import apply_fir, design_lowpass, lowpass_length, renormalize


@dataclass(frozen=True)
class ChannelConfig:
    band_low: float = 0.0            # Hz; 0 disables the high-pass side
    band_high: float | None = None   # Hz; None -> Nyquist (no low-pass side)
    snr_db: float = math.inf         # inf -> no added noise
    seed: int = 0
    reverb_delay_ms: float = 0.0
    reverb_decay: float = 0.0
    reverb_taps: int = 0             # 0 disables reverb


PRESETS = {
    "transparent": ChannelConfig(),
    "harsh": ChannelConfig(band_low=100.0, band_high=7000.0, snr_db=20.0,
                           reverb_delay_ms=15.0, reverb_decay=0.4, reverb_taps=4),
}


def _band_taps(config: ChannelConfig, sample_rate: int) -> np.ndarray | None:
    """Band-pass FIR from the same windowed-sinc family as dsp.design_lowpass.

    Built as lowpass(high) - lowpass(low) on a shared odd length; a band of
    (0, Nyquist) needs no filter at all.
    """
    nyquist = sample_rate / 2.0
    low = config.band_low
    high = config.band_high if config.band_high is not None else nyquist
    if not 0.0 <= low < high <= nyquist:
        raise ValueError("need 0 <= band_low < band_high <= Nyquist")
    lowpass_needed = high < nyquist
    highpass_needed = low > 0.0
    if not lowpass_needed and not highpass_needed:
        return None

    numtaps = max(lowpass_length(high, sample_rate) if lowpass_needed else 1,
                  lowpass_length(low, sample_rate) if highpass_needed else 1)
    if lowpass_needed:
        taps = design_lowpass(high, sample_rate, numtaps)
    else:
        taps = np.zeros(numtaps)
        taps[(numtaps - 1) // 2] = 1.0  # unit impulse: pass everything
    if highpass_needed:
        taps = taps - design_lowpass(low, sample_rate, numtaps)
    return taps


def _add_reverb(x: np.ndarray, config: ChannelConfig, sample_rate: int) -> np.ndarray:
    if config.reverb_taps < 0 or config.reverb_decay < 0:
        raise ValueError("reverb_taps and reverb_decay must be >= 0")
    if config.reverb_taps == 0:
        return x
    delay = round(config.reverb_delay_ms * sample_rate / 1000.0)
    if delay < 1:
        raise ValueError("reverb_delay_ms too small for one sample of delay")
    out = x.copy()
    for i in range(1, config.reverb_taps + 1):
        d = i * delay
        if d >= len(x):
            break
        out[d:] += (config.reverb_decay ** i) * x[:-d]
    return out


def simulate(audio: AudioBuffer, config: ChannelConfig) -> tuple[AudioBuffer, float]:
    """Push the buffer through the simulated channel.

    Returns (output, scale): scale < 1.0 when the result had to be
    renormalized to keep |sample| <= 1. Noise is white Gaussian from a
    generator seeded by config.seed, scaled so the clean-vs-noisy power
    ratio equals snr_db exactly; identical (audio, config) always produce
    identical output.
    """
    taps = _band_taps(config, audio.sample_rate)
    out = apply_fir(audio, taps).samples if taps is not None else audio.samples.copy()
    out = _add_reverb(out, config, audio.sample_rate)

    if math.isfinite(config.snr_db):
        rng = np.random.default_rng(config.seed)
        noise = rng.standard_normal(len(out))
        p_sig = float(np.mean(out ** 2)) if len(out) else 0.0
        p_noise_raw = float(np.mean(noise ** 2)) if len(noise) else 0.0
        target = p_sig * 10.0 ** (-config.snr_db / 10.0)
        if p_noise_raw > 0.0 and target > 0.0:
            out = out + noise * math.sqrt(target / p_noise_raw)

    out, scale = renormalize(out)
    return AudioBuffer(out, audio.sample_rate), scale


def parse_channel_config(text: str) -> ChannelConfig:
    """key=value lines ('#' comments allowed) over the ChannelConfig fields.

    snr_db accepts "inf"; unknown keys are rejected so typos fail loudly.
    """
    floats = {"band_low", "band_high", "snr_db", "reverb_delay_ms", "reverb_decay"}
    ints = {"seed", "reverb_taps"}
    config = ChannelConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in floats:
            config = replace(config, **{key: float(value)})
        elif key in ints:
            config = replace(config, **{key: int(value)})
        else:
            raise ValueError(f"line {lineno}: unknown channel key {key!r}")
    return config


def resolve_channel(name_or_path: str) -> ChannelConfig:
    """Preset name if it matches one, otherwise a config file path."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return parse_channel_config(fh.read())
