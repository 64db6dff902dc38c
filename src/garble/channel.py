"""Desk-scale over-the-air channel: band-limit, optional reverb tap train,
seeded additive noise at a target SNR.

Configs come from presets ("transparent", "harsh") or from a key=value file
with the fields of ChannelConfig.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import apply_fir, cached_table, checked_seed, design_lowpass, lowpass_length

# the noise gain factor 10 ** (-snr_db / 20) is 1e154 here, so noise scaled
# to any signal read_wav can return (up to float32 max, raised by the band
# and any reverb) stays far inside the float range
_MIN_SNR_DB = -3080.0


@dataclass(frozen=True)
class ChannelConfig:
    """One room. Every rule that needs no sample rate is checked here, at
    construction; the band's upper edge is checked against Nyquist, and the
    reverb delay against one sample and the float range, when simulate
    runs."""

    band_low: float = 0.0            # Hz; 0 disables the high-pass side
    band_high: float | None = None   # Hz; None -> Nyquist (no low-pass side)
    snr_db: float = math.inf         # inf -> no added noise
    seed: int = 0
    reverb_delay_ms: float = 0.0
    reverb_decay: float = 0.0
    reverb_taps: int = 0             # 0 disables reverb

    def __post_init__(self):
        high = math.inf if self.band_high is None else self.band_high
        if not 0.0 <= self.band_low < high:
            raise ValueError("need 0 <= band_low < band_high")
        if not _MIN_SNR_DB <= self.snr_db <= math.inf:
            raise ValueError(f"snr_db must be >= {_MIN_SNR_DB} or +inf, got {self.snr_db}")
        checked_seed(self.seed)
        # index(): a float tap count is a TypeError, not a silent cast
        if operator.index(self.reverb_taps) < 0:
            raise ValueError("reverb_taps must be >= 0")
        # a decay above 1 makes a growing tap train, not a reverb
        if not 0.0 <= self.reverb_decay <= 1.0:
            raise ValueError(f"reverb_decay must be in [0, 1], got {self.reverb_decay}")
        if not math.isfinite(self.reverb_delay_ms):
            raise ValueError("reverb_delay_ms must be finite")


PRESETS = {
    "transparent": ChannelConfig(),
    "harsh": ChannelConfig(band_low=100.0, band_high=7000.0, snr_db=20.0,
                           reverb_delay_ms=15.0, reverb_decay=0.4, reverb_taps=4),
}


@cached_table
def _band_taps(low: float, high: float | None, sample_rate: int) -> np.ndarray | None:
    """Band-pass FIR from the same windowed-sinc family as
    dsp.design_lowpass, built once per (band_low, band_high, sample_rate).

    Built as lowpass(high) - lowpass(low) on a shared odd length (high None
    means Nyquist, where the low-pass is a unit impulse to rounding); a band
    of (0, Nyquist) needs no filter at all.
    """
    nyquist = sample_rate / 2.0
    high = high if high is not None else nyquist
    if not low < high <= nyquist:  # ChannelConfig holds the rest of the band rule
        raise ValueError("need band_low < band_high <= Nyquist")
    if low == 0.0 and high == nyquist:
        return None

    # lowpass_length never grows with the cutoff, so the lower edge sets it
    numtaps = lowpass_length(low if low > 0.0 else high, sample_rate)
    taps = design_lowpass(high, sample_rate, numtaps)
    if low > 0.0:
        taps = taps - design_lowpass(low, sample_rate, numtaps)
    return taps


@cached_table
def _unit_noise(seed: int, n: int) -> tuple[np.ndarray, float]:
    """Standard normal noise, n >= 1 samples from default_rng(seed), and
    its mean power."""
    noise = np.random.default_rng(seed).standard_normal(n)
    return noise, float(np.mean(noise ** 2))


def _add_reverb(x: np.ndarray, config: ChannelConfig, sample_rate: int) -> np.ndarray:
    if config.reverb_taps == 0:
        return x
    samples = config.reverb_delay_ms * sample_rate / 1000.0
    if not math.isfinite(samples):  # a finite delay in ms can still overflow
        raise ValueError("reverb_delay_ms too large to count in samples")
    delay = round(samples)
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
    generator seeded by config.seed, scaled by the amplitude gain
    sqrt(p_sig / p_noise) * 10 ** (-snr_db / 20), where p_sig is the mean
    power of the band-limited, reverberated signal and p_noise that of the
    drawn noise, so the clean-vs-noisy power ratio equals snr_db to
    rounding (a silent or empty clip gets none); identical (audio, config)
    always produce identical output.

    The band-pass taps are built once per (band_low, band_high, sample
    rate), and the unscaled noise and its power once per (seed, length),
    as is the taps' spectrum in dsp.apply_fir.

    The config has checked its own fields; only the rules that need the
    sample rate (band_high <= Nyquist, a reverb delay of at least one
    sample and a finite count of them) are checked here, and raise
    ValueError, as does output that overflowed, in the FIR or after it
    (AudioBuffer._renormalized scans the final peak).
    """
    taps = _band_taps(config.band_low, config.band_high, audio.sample_rate)
    out = apply_fir(audio.samples, taps) if taps is not None else audio.samples.copy()
    out = _add_reverb(out, config, audio.sample_rate)

    if math.isfinite(config.snr_db) and len(out):
        noise, p_noise = _unit_noise(config.seed, len(out))
        p_sig = float(np.add.reduce(np.square(out)) / len(out))
        if p_sig > 0.0 and p_noise > 0.0:  # silence gets none; never divide by 0
            out = out + noise * (math.sqrt(p_sig / p_noise) * 10.0 ** (-config.snr_db / 20.0))

    return AudioBuffer._renormalized(out, audio.sample_rate)  # raises on overflow


def parse_channel_config(text: str) -> ChannelConfig:
    """key=value lines ('#' comments allowed) over the ChannelConfig fields.

    snr_db accepts "inf"; unknown keys are rejected so typos fail loudly.
    The file is judged as a whole: its values go into one ChannelConfig,
    whose checks raise ValueError.
    """
    ints = {"seed", "reverb_taps"}
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ChannelConfig.__dataclass_fields__:
            raise ValueError(f"line {lineno}: unknown channel key {key!r}")
        fields[key] = int(value) if key in ints else float(value)
    return ChannelConfig(**fields)


def resolve_channel(name_or_path: str) -> ChannelConfig:
    """Preset name if it matches one, otherwise a config file path."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    with open(name_or_path, "r", encoding="utf-8") as fh:
        return parse_channel_config(fh.read())
