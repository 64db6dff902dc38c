"""WAV reading/writing and the AudioBuffer type shared by every other module.

Readable input: RIFF/WAVE, PCM 16-bit or IEEE float 32-bit, mono or stereo.
Written output is always 16-bit PCM mono. All samples live in [-1.0, 1.0]
as float64 once loaded; one scale, 32768, maps PCM-16 codes both ways.

Every AudioBuffer holds finite samples. The public constructor scans for
NaN and infinity; package code skips that scan (AudioBuffer._of_checked)
only for samples already known to be finite: PCM-16 codes and float-32
data read_wav has checked, and selections and permutations of a checked
buffer's samples. AudioBuffer._renormalized finds the peak of samples
that may have overflowed, which is the same check: hfa and
channel.simulate build their output with it, so it also covers the
simulator's FIR, whose array kernel checks nothing. rpg and canonicalize
keep the constructor's scan, since their FFT and interpolation can
overflow on samples near the float64 maximum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dsp import cached_table

CANONICAL_RATE = 16000  # the attack pipeline operates on 16 kHz mono

_PCM_FULL_SCALE = 32768.0  # int16 / 32768 -> [-1.0, 1.0), both ways


class WavFormatError(ValueError):
    """Malformed RIFF/WAVE structure (bad magic, missing chunks, truncation)."""


class UnsupportedCodecError(WavFormatError):
    """Structurally valid WAV whose encoding we do not decode."""


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Immutable-by-convention audio: float64 samples plus a sample rate.

    AudioBuffer(samples, rate) checks its input: one-dimensional, finite
    samples and a positive integer rate, else ValueError. Package code
    whose samples are already known to be finite (see the module
    docstring) builds its buffers with _of_checked, which skips the
    scan."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("AudioBuffer samples must be one-dimensional")
        if not np.isfinite(arr).all():
            raise ValueError("AudioBuffer samples must be finite")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @classmethod
    def _of_checked(cls, samples: np.ndarray, sample_rate: int) -> AudioBuffer:
        """A buffer over samples, with no check and no copy. The caller
        guarantees what the constructor would check: samples is a 1-D
        float64 ndarray whose every value is finite, and sample_rate a
        positive int."""
        audio = object.__new__(cls)
        object.__setattr__(audio, "samples", samples)
        object.__setattr__(audio, "sample_rate", sample_rate)
        return audio

    @classmethod
    def _renormalized(cls, samples: np.ndarray, rate: int) -> tuple[AudioBuffer, float]:
        """(buffer, scale): samples scaled by 1/peak when they peak past full
        scale (scale 1.0, samples as they are, when not), so a caller can
        report every rescale instead of clipping. A non-finite peak raises the
        constructor's ValueError; the caller guarantees the rest, as for
        _of_checked."""
        peak = float(np.abs(samples).max(initial=0.0))
        if not np.isfinite(peak):
            raise ValueError("AudioBuffer samples must be finite")
        if peak <= 1.0:
            return cls._of_checked(samples, rate), 1.0
        scale = 1.0 / peak
        return cls._of_checked(samples * scale, rate), scale

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def _iter_chunks(data: bytes):
    """Yield (chunk_id, payload) for every top-level RIFF sub-chunk."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8:pos + 8 + size]
        if len(payload) < size:
            raise WavFormatError(
                f"chunk {cid!r} declares {size} bytes but only {len(payload)} present"
            )
        yield cid, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def read_wav(data: bytes) -> AudioBuffer:
    """Decode WAV bytes to a mono AudioBuffer.

    16-bit codes map to floats by division by 32768, write_wav's scale, so
    a PCM-16 mono payload re-encodes byte for byte; float32 samples are
    taken as-is, and NaN or infinity among them raises WavFormatError, so
    every buffer returned is finite. Stereo is downmixed by averaging the
    channels. Anything other than PCM-16/float32 in 1-2 channels raises
    UnsupportedCodecError; structural damage raises WavFormatError.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE stream")

    fmt = None
    payload = None
    for cid, body in _iter_chunks(data):
        if cid == b"fmt " and fmt is None:
            if len(body) < 16:
                raise WavFormatError("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data" and payload is None:
            payload = body
    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if payload is None:
        raise WavFormatError("missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedCodecError(f"{channels} channels (only mono/stereo readable)")
    if sample_rate <= 0:
        raise WavFormatError("non-positive sample rate")

    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64)
        samples /= _PCM_FULL_SCALE
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        if not np.isfinite(raw).all():  # before the cast, which warns on signalling NaN
            raise WavFormatError("float-32 data contains NaN or infinity")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedCodecError(
            f"format tag {audio_format} at {bits} bits (PCM-16 or float-32 only)"
        )

    if channels == 2:
        samples = samples[: len(samples) - len(samples) % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioBuffer._of_checked(samples, int(sample_rate))


def write_wav(audio: AudioBuffer) -> bytes:
    """Encode to 16-bit PCM mono WAV bytes.

    Quantization is round(x * 32768) clipped to [-32768, 32767]: half a step
    at most, except just below +1.0, which clips to 32767. The output is a
    pure function of (samples, rate), so equal buffers give identical bytes.
    """
    if audio.sample_rate > 0x7FFFFFFF:  # the header's byte rate, 2 * rate, is 32-bit
        raise ValueError(f"sample rate {audio.sample_rate} does not fit a WAV header")
    q = audio.samples * _PCM_FULL_SCALE
    np.rint(q, out=q)  # what np.round runs at 0 decimals
    np.clip(q, -32768, 32767, out=q)
    payload = q.astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, audio.sample_rate,
        audio.sample_rate * 2, 2, 16,
        b"data", len(payload),
    )
    return header + payload


@cached_table
def _resample_plan(n: int, rate: int) -> tuple:
    """canonicalize's plan for n samples at rate. Output k sits at
    position k * (rate / 16000); the plan holds its left sample, clamped to
    the last, and for the outputs before the last sample their fraction
    past the left one and the mask of those that interpolate (fraction
    nonzero). Fraction and mask are None when no output interpolates, as
    from 32, 48 and 96 kHz, where every position is a whole sample."""
    n_out = round(n * CANONICAL_RATE / rate)
    positions = np.arange(n_out) * (rate / CANONICAL_RATE)
    lo = np.minimum(positions, n - 1).astype(np.intp)  # floor: positions >= 0
    head = np.searchsorted(positions, n - 1)  # outputs before the last sample
    frac = positions[:head] - lo[:head]
    mask = frac != 0.0
    if not mask.any():
        return lo, None, None
    return lo, frac, mask


def canonicalize(audio: AudioBuffer) -> AudioBuffer:
    """Linear-interpolation resample to the one pipeline rate, 16 kHz: n samples
    at rate give round(n * 16000 / rate), sample k read at source position
    k * (rate / 16000), the ratio rounded before the product, clamped to the
    last. 16 kHz input is returned as is.

    The output's bytes are np.interp's. Its arithmetic, y[j] + (y[j+1] -
    y[j]) * fraction, runs over a plan built once per (n, rate)
    (_resample_plan): each output's left sample, fraction and whether
    it interpolates at all. Whole-sample positions and the clamped tail
    keep y[j] itself, signed zeros included, so from 48 kHz the resample
    is one gather. A cached plan holds 17 bytes per output sample, 8 when
    no output interpolates, and the cache keeps up to 8 plans. Near the
    float64 maximum the difference can overflow: the public constructor's
    scan then raises ValueError, with no warning, as after np.interp.

    No anti-alias filter runs first, so content above 8 kHz aliases into the
    band: from 48 kHz, 0.9-amplitude tones at 12 and 9 kHz come out at 4 and
    7 kHz at full level. A band-limited resampler is ROADMAP item 4."""
    if audio.sample_rate == CANONICAL_RATE:
        return audio
    x = audio.samples
    lo, frac, mask = _resample_plan(len(x), audio.sample_rate)
    out = x[lo]
    if mask is not None:
        head = out[:len(mask)]  # the outputs before the last sample
        step = x[1:][lo[:len(mask)]]  # x[lo + 1]
        # an overflow leaves inf for the scan below, and a masked-off output
        # may compute inf * 0; neither warns, as neither does in np.interp
        with np.errstate(over="ignore", invalid="ignore"):
            step -= head
            step *= frac
        np.add(head, step, out=head, where=mask)
    return AudioBuffer(out, CANONICAL_RATE)
