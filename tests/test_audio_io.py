import struct
import warnings

import numpy as np
import pytest

from garble.audio_io import (
    CANONICAL_RATE,
    AudioBuffer,
    UnsupportedCodecError,
    WavFormatError,
    canonicalize,
    read_wav,
    resample,
    write_wav,
)
from oracles import sine_fit_amplitude
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


def test_read_pcm16_scaling():
    raw = make_wav(1, 1, 16000, 16, pcm16([0, 16384, -32768, 32767]))
    buf = read_wav(raw)
    assert buf.sample_rate == 16000
    assert np.array_equal(
        buf.samples, np.array([0.0, 16384 / 32768, -1.0, 32767 / 32768])
    )


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


def test_write_full_scale_codewords():
    raw = write_wav(AudioBuffer(np.array([1.0, -1.0, 0.0]), 16000))
    words = struct.unpack("<3h", raw[44:])
    assert words == (32767, -32767, 0)


def test_write_clips_out_of_range():
    raw = write_wav(AudioBuffer(np.array([2.0, -3.0]), 16000))
    assert struct.unpack("<2h", raw[44:]) == (32767, -32767)


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
    # Worst case is u = 0.5 ulp of the decoder grid stretched by the
    # 32767/32768 encode/decode mismatch: |x - round(32767 x)/32768| is
    # maximized near full scale at 1.5/32768. The spec's nominal 1/32767
    # bound is not attainable; see the ledger.
    buf = random_buffer(7, 4096, amp=1.0)
    back = read_wav(write_wav(buf))
    err = np.max(np.abs(back.samples - buf.samples))
    assert err <= 1.5 / 32768 + 1e-12
    assert err > 1.0 / 32767  # documents why the looser bound is the real one


def test_write_read_write_is_byte_stable():
    # At or below half scale the encode->decode->encode loop is the identity
    # on codewords, so the second file must equal the first byte for byte.
    buf = random_buffer(11, 2048, amp=0.5)
    first = write_wav(buf)
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


# --- resampling -------------------------------------------------------------


def test_resample_length_law():
    buf = AudioBuffer(np.zeros(4800), 48000)
    assert len(resample(buf, 16000)) == 1600
    assert len(resample(AudioBuffer(np.zeros(1001), 44100), 16000)) == round(
        1001 * 16000 / 44100
    )


def test_resample_identity_same_rate():
    buf = random_buffer(3, 500)
    out = resample(buf, buf.sample_rate)
    assert out is buf


def test_resample_preserves_tone_amplitude():
    buf = sine_buffer(1000.0, duration_s=0.5, sr=48000, amp=0.5)
    out = resample(buf, 16000)
    assert out.sample_rate == 16000
    amp = sine_fit_amplitude(out.samples, 16000, 1000.0)
    assert abs(20 * np.log10(amp / 0.5)) < 0.2


def test_canonicalize_targets_16k():
    assert canonicalize(sine_buffer(440.0, sr=48000)).sample_rate == CANONICAL_RATE
    buf = sine_buffer(440.0, sr=CANONICAL_RATE)
    assert canonicalize(buf) is buf
