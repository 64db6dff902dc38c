"""WAV reading/writing and the AudioBuffer type shared by every other module.

Readable input: RIFF/WAVE, PCM 16-bit or IEEE float 32-bit, mono or stereo.
Written output is always 16-bit PCM mono. All samples live in [-1.0, 1.0]
as float64 once loaded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CANONICAL_RATE = 16000  # the attack pipeline operates on 16 kHz mono

_PCM_FULL_SCALE = 32768.0   # read scale: int16 / 32768 -> [-1.0, 1.0)
_PCM_WRITE_SCALE = 32767.0  # write scale: round(x * 32767), clipped symmetric


class WavFormatError(ValueError):
    """Malformed RIFF/WAVE structure (bad magic, missing chunks, truncation)."""


class UnsupportedCodecError(WavFormatError):
    """Structurally valid WAV whose encoding we do not decode."""


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Immutable-by-convention audio: float64 samples plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("AudioBuffer samples must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("AudioBuffer samples must be finite")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

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

    16-bit samples map to floats by division by 32768; float32 samples are
    taken as-is. Stereo is downmixed by averaging the channels. Anything
    other than PCM-16/float32 in 1-2 channels raises UnsupportedCodecError;
    structural damage raises WavFormatError.
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
        samples = raw.astype(np.float64) / _PCM_FULL_SCALE
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        if not np.all(np.isfinite(raw)):  # before the cast, which warns on signalling NaN
            raise WavFormatError("float-32 data contains NaN or infinity")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedCodecError(
            f"format tag {audio_format} at {bits} bits (PCM-16 or float-32 only)"
        )

    if channels == 2:
        samples = samples[: len(samples) - len(samples) % 2]
        samples = samples.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples, int(sample_rate))


def write_wav(audio: AudioBuffer) -> bytes:
    """Encode to 16-bit PCM mono WAV bytes.

    Quantization is round(x * 32767) clipped to [-32767, 32767]; the output
    is a pure function of (samples, rate), so equal buffers give identical
    bytes.
    """
    if audio.sample_rate > 0x7FFFFFFF:  # the header's byte rate, 2 * rate, is 32-bit
        raise ValueError(f"sample rate {audio.sample_rate} does not fit a WAV header")
    q = np.round(audio.samples * _PCM_WRITE_SCALE)
    q = np.clip(q, -32767, 32767).astype("<i2")
    payload = q.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, audio.sample_rate,
        audio.sample_rate * 2, 2, 16,
        b"data", len(payload),
    )
    return header + payload


def resample(audio: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Linear-interpolation resample; identity when rates already match."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == audio.sample_rate:
        return audio
    n_out = int(round(len(audio.samples) * target_rate / audio.sample_rate))
    if n_out == 0 or len(audio.samples) == 0:
        return AudioBuffer(np.zeros(0), target_rate)
    # output sample k sits at source position k * src/target, clamped at the edge
    positions = np.arange(n_out) * (audio.sample_rate / target_rate)
    out = np.interp(positions, np.arange(len(audio.samples)), audio.samples)
    return AudioBuffer(out, target_rate)


def canonicalize(audio: AudioBuffer, rate: int = CANONICAL_RATE) -> AudioBuffer:
    """Bring a decoded buffer to the canonical pipeline rate (16 kHz mono)."""
    return resample(audio, rate)
