import platform
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garble import audio_io
from garble.audio_io import (
    CANONICAL_RATE,
    AudioBuffer,
    UnsupportedCodecError,
    WavFormatError,
    canonicalize,
    read_wav,
    write_wav,
)
from oracles import resample_interp, sine_fit_amplitude
from synth import random_buffer, sine_buffer


def make_wav(fmt_tag, channels, rate, bits, frames_bytes, extra_chunks=b""):
    """Assemble a RIFF/WAVE byte string by hand, field by field."""
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, rate, rate * block_align, block_align, bits
    )
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += extra_chunks
    body += b"data" + struct.pack("<I", len(frames_bytes)) + frames_bytes
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm16(values):
    return struct.pack(f"<{len(values)}h", *values)


# --- decoding ---------------------------------------------------------------


def test_read_float32_passthrough():
    vals = np.array([0.25, -0.5, 1.0, -1.0], dtype=np.float32)
    raw = make_wav(3, 1, 22050, 32, vals.tobytes())
    buf = read_wav(raw)
    assert buf.sample_rate == 22050
    assert np.array_equal(buf.samples, vals.astype(np.float64))


def test_read_stereo_downmix_is_mean():
    left = [10000, -20000, 0]
    right = [20000, -10000, 32000]
    inter = []
    for l, r in zip(left, right):
        inter += [l, r]
    buf = read_wav(make_wav(1, 2, 16000, 16, pcm16(inter)))
    want = (np.array(left) / 32768 + np.array(right) / 32768) / 2.0
    assert np.allclose(buf.samples, want, atol=0)


def test_read_skips_unknown_chunks():
    junk = b"LIST" + struct.pack("<I", 6) + b"abcdef"
    # odd-sized chunk must be padded to an even boundary per RIFF
    odd = b"cue " + struct.pack("<I", 3) + b"xyz\x00"
    raw = make_wav(1, 1, 16000, 16, pcm16([100, -100]), extra_chunks=junk + odd)
    buf = read_wav(raw)
    assert len(buf) == 2


def test_read_rejects_garbage_and_truncation():
    with pytest.raises(WavFormatError):
        read_wav(b"not a riff file at all")
    good = make_wav(1, 1, 16000, 16, pcm16([1, 2, 3]))
    with pytest.raises(WavFormatError):
        read_wav(good[:20])
    # missing data chunk
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + struct.pack(
        "<HHIIHH", 1, 1, 16000, 32000, 2, 16
    )
    with pytest.raises(WavFormatError):
        read_wav(b"RIFF" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_float32_rejects_nonfinite(bad):
    vals = np.array([0.25, bad, -0.5], dtype=np.float32)
    with pytest.raises(WavFormatError, match="NaN or infinity"):
        read_wav(make_wav(3, 1, 16000, 32, vals.tobytes()))


def test_read_float32_signalling_nan_raises_without_warning():
    snan = struct.pack("<3I", 0x3E800000, 0x7F810000, 0xBF000000)  # 0.25, sNaN, -0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WavFormatError, match="NaN or infinity"):
            read_wav(make_wav(3, 1, 16000, 32, snan))


def test_read_rejects_unsupported_codecs():
    with pytest.raises(UnsupportedCodecError):
        read_wav(make_wav(6, 1, 8000, 8, b"\x00\x00"))  # a-law
    with pytest.raises(UnsupportedCodecError):
        read_wav(make_wav(1, 1, 16000, 8, b"\x80\x80"))  # 8-bit pcm
    three = pcm16([0, 0, 0])
    with pytest.raises(UnsupportedCodecError):
        read_wav(make_wav(1, 3, 16000, 16, three))


# --- encoding ---------------------------------------------------------------


def test_write_header_fields():
    raw = write_wav(AudioBuffer(np.zeros(5), 44100))
    assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
    fmt_tag, channels, rate = struct.unpack("<HHI", raw[20:28])
    assert (fmt_tag, channels, rate) == (1, 1, 44100)
    assert len(raw) == 44 + 10


def test_write_rejects_rate_too_large_for_header():
    assert len(write_wav(AudioBuffer(np.zeros(1), 2**31 - 1))) == 46
    with pytest.raises(ValueError, match="does not fit"):
        write_wav(AudioBuffer(np.zeros(1), 2**31))


def test_roundtrip_error_bound():
    # encode and decode share the scale 32768, so a round trip moves a
    # sample by half a step at most; the one exception is +1.0, which
    # clips to the highest code, 32767, one step below it
    x = np.concatenate([random_buffer(7, 4096, amp=1.0).samples, [-1.0, 1.0]])
    err = np.abs(read_wav(write_wav(AudioBuffer(x, 16000))).samples - x)
    assert np.max(err[:-1]) <= 0.5 / 32768 + 1e-12
    assert err[-1] == 1.0 / 32768


def test_write_read_write_is_byte_stable():
    # The encode->decode->encode loop is the identity on codewords up to
    # full scale, so the second file must equal the first byte for byte.
    x = np.concatenate([random_buffer(11, 2048, amp=1.0).samples, [-1.0, 1.0]])
    first = write_wav(AudioBuffer(x, 16000))
    second = write_wav(read_wav(first))
    assert first == second


def test_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([np.inf]), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((2, 2)), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(4), 0)
    buf = AudioBuffer(np.zeros(8000), 16000)
    assert len(buf) == 8000 and buf.duration == 0.5


# --- canonicalization -------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 4000), rate=st.integers(8000, 192000), seed=st.integers(0, 2**32 - 1))
@example(n=4800, rate=48000, seed=0)
@example(n=1001, rate=44100, seed=0)
@example(n=500, rate=CANONICAL_RATE, seed=3)
def test_resample_length_law(n, rate, seed):
    buf = random_buffer(seed, n, sr=rate)
    out = canonicalize(buf)
    assert out.sample_rate == CANONICAL_RATE
    assert len(out) == round(n * CANONICAL_RATE / rate)


FLOAT64_MAX = float(np.finfo(np.float64).max)


def resampled_or_error(audio, resample):
    try:
        return resample(audio).samples.tobytes()
    except ValueError:
        return ValueError


# the rates a recording comes at, and two next to 16 kHz, which have no
# whole-sample position past the first
@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 3000),
       rate=st.sampled_from((8000, 11025, 22050, 32000, 44100, 48000, 96000, 15999, 16001)),
       seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from((0.0, 0.5, 1.0)),
       scale=st.sampled_from((1.0, FLOAT64_MAX)))
@example(n=1, rate=8000, seed=0, zeros=1.0, scale=1.0)
@example(n=441 * 3 + 1, rate=44100, seed=1, zeros=0.5, scale=1.0)
@example(n=3000, rate=44100, seed=2, zeros=0.0, scale=FLOAT64_MAX)
def test_canonicalize_bytes_are_np_interp_s(n, rate, seed, zeros, scale):
    # a share `zeros` of the samples are +0.0 or -0.0: np.interp keeps
    # y[j], sign included, at whole-sample positions and the clamped tail
    # (past the last sample, below 16 kHz), and interpolates the rest;
    # near the float64 maximum the differences overflow, and then both
    # sides raise ValueError
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n) * scale
    signed = rng.random(n) < zeros
    x[signed] = np.copysign(0.0, rng.uniform(-1.0, 1.0, np.count_nonzero(signed)))
    audio = AudioBuffer(x, rate)
    want = resampled_or_error(audio, resample_interp)
    audio_io._resample_plan.cache_clear()
    for plan in ("cold", "warm"):
        assert resampled_or_error(audio, canonicalize) == want, (
            f"{plan} plan differs from np.interp on {platform.machine()} "
            f"{platform.system()}, numpy {np.__version__}")


@pytest.mark.parametrize("rate", [11025, 44100])
def test_canonicalize_raises_value_error_where_np_interp_overflows(rate):
    audio = AudioBuffer(np.resize([FLOAT64_MAX, -FLOAT64_MAX], 1000), rate)
    with pytest.raises(ValueError):
        resample_interp(audio)
    with pytest.raises(ValueError):
        canonicalize(audio)


def test_resample_identity_same_rate():
    buf = random_buffer(3, 500)
    assert buf.sample_rate == CANONICAL_RATE
    out = canonicalize(buf)
    assert out is buf


def test_canonicalize_upsamples_8k_by_midpoints():
    # PCM-16 codes are multiples of 2**-15, so every midpoint is exact
    codes = np.random.default_rng(7).integers(-32768, 32768, 801).astype("<i2")
    src = read_wav(make_wav(1, 1, 8000, 16, codes.tobytes()))
    out = canonicalize(src).samples
    assert len(out) == 2 * len(src)
    assert out[0::2].tobytes() == src.samples.tobytes()
    # sample 2k + 1 sits halfway between k and k + 1; the last one clamps
    mid = (src.samples[:-1] + src.samples[1:]) / 2.0
    assert out[1:-1:2].tobytes() == mid.tobytes()
    assert out[-1] == src.samples[-1]


def test_canonicalize_reads_position_k_times_the_rate_ratio():
    # sample k is read at k * (rate / 16000), the ratio rounded first; at
    # 44.1 kHz over 1 s the ungrouped k * rate / 16000 differs in the last
    # bit at 3200 positions, so the bytes below tell the two apart
    src = random_buffer(44100, 44100, sr=44100)
    k = np.arange(CANONICAL_RATE)
    positions = k * (44100 / CANONICAL_RATE)
    assert np.count_nonzero(positions != k * 44100 / CANONICAL_RATE) == 3200
    want = np.interp(positions, np.arange(44100), src.samples)
    assert canonicalize(src).samples.tobytes() == want.tobytes()


def test_canonicalize_preserves_tone_amplitude():
    buf = sine_buffer(1000.0, duration_s=0.5, sr=48000, amp=0.5)
    out = canonicalize(buf)
    assert out.sample_rate == 16000
    amp = sine_fit_amplitude(out.samples, 16000, 1000.0)
    assert abs(20 * np.log10(amp / 0.5)) < 0.2
