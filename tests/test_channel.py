import math
from dataclasses import replace

import numpy as np
import pytest

from garble.audio_io import AudioBuffer
from garble.channel import (
    PRESETS,
    ChannelConfig,
    _band_taps,
    parse_channel_config,
    resolve_channel,
    simulate,
)
from garble.dsp import _fast_len
from oracles import measure_snr, sine_fit_amplitude
from synth import FFT_PADS_INPUT, SR, band_noise, random_buffer, sine_buffer, warm_peak_bytes


def test_noise_snr_is_calibrated_exactly():
    buf = band_noise(51)
    for snr in [10.0, 20.0, 30.0]:
        out, scale = simulate(buf, ChannelConfig(snr_db=snr, seed=4))
        assert scale == 1.0
        assert abs(measure_snr(buf, out) - snr) < 1e-9


def test_noise_is_deterministic_per_seed():
    buf = band_noise(52)
    config = ChannelConfig(snr_db=15.0, seed=7)
    a, _ = simulate(buf, config)
    b, _ = simulate(buf, config)
    assert np.array_equal(a.samples, b.samples)
    c, _ = simulate(buf, ChannelConfig(snr_db=15.0, seed=8))
    assert not np.array_equal(a.samples, c.samples)


def test_band_pass_frequency_response():
    config = ChannelConfig(band_low=300.0, band_high=3400.0)
    mid = sine_buffer(1000.0, duration_s=1.5, amp=0.4)
    out, _ = simulate(mid, config)
    amp = sine_fit_amplitude(out.samples[4000:-4000], SR, 1000.0)
    assert abs(20 * np.log10(amp / 0.4)) < 0.5
    for freq in [60.0, 6000.0]:  # below and above the band, past transition
        tone = sine_buffer(freq, duration_s=1.5, amp=0.4)
        out, _ = simulate(tone, config)
        amp = sine_fit_amplitude(out.samples[4000:-4000], SR, freq)
        assert 20 * np.log10(amp / 0.4) < -40.0


def test_reverb_tap_train_on_impulse():
    n = 4000
    x = np.zeros(n)
    x[0] = 0.5
    config = ChannelConfig(reverb_delay_ms=15.0, reverb_decay=0.4, reverb_taps=3)
    out, scale = simulate(AudioBuffer(x, SR), config)
    assert scale == 1.0
    delay = round(15.0 * SR / 1000.0)
    want = np.zeros(n)
    for i in range(0, 4):
        want[i * delay] = 0.5 * 0.4 ** i
    assert np.allclose(out.samples, want, atol=1e-12)


def test_reverb_taps_past_the_end_are_dropped():
    x = np.zeros(100)
    x[0] = 1.0
    config = ChannelConfig(reverb_delay_ms=50.0, reverb_decay=0.5, reverb_taps=5)
    out, _ = simulate(AudioBuffer(x, SR), config)  # delay=800 > len
    assert np.array_equal(out.samples, x)


def test_renormalization_reports_scale():
    buf = random_buffer(53, 8000, amp=0.98)
    config = ChannelConfig(reverb_delay_ms=5.0, reverb_decay=0.9, reverb_taps=3)
    out, scale = simulate(buf, config)
    assert scale < 1.0
    assert np.max(np.abs(out.samples)) <= 1.0 + 1e-12


def test_invalid_bands_rejected():
    buf = random_buffer(55, 1000)
    with pytest.raises(ValueError):
        simulate(buf, ChannelConfig(band_low=4000.0, band_high=300.0))
    with pytest.raises(ValueError):
        simulate(buf, ChannelConfig(band_high=9000.0))
    with pytest.raises(ValueError):
        simulate(buf, ChannelConfig(band_low=-1.0))
    with pytest.raises(ValueError, match="Nyquist"):  # band_high None means Nyquist
        simulate(buf, ChannelConfig(band_low=8000.0))


def test_negative_seed_rejected_for_every_config():
    buf = random_buffer(56, 1000)
    for config in (ChannelConfig(), ChannelConfig(snr_db=15.0), PRESETS["harsh"]):
        with pytest.raises(ValueError, match="seed"):
            simulate(buf, replace(config, seed=-1))


@pytest.mark.parametrize("fields, error", [
    ({"band_low": -1.0}, ValueError),
    ({"band_low": 4000.0, "band_high": 300.0}, ValueError),
    ({"band_low": 300.0, "band_high": 300.0}, ValueError),
    ({"snr_db": math.nan}, ValueError),
    ({"snr_db": -math.inf}, ValueError),
    ({"seed": -1}, ValueError),
    ({"seed": 1.5}, TypeError),
    ({"reverb_taps": -1}, ValueError),
    ({"reverb_taps": 1.5}, TypeError),
    ({"reverb_decay": math.inf}, ValueError),
    ({"reverb_decay": math.nan}, ValueError),
    ({"reverb_decay": 1.0 + 1e-9}, ValueError),
    ({"reverb_delay_ms": math.inf}, ValueError),
    ({"snr_db": -4000.0}, ValueError),
], ids=["band-low-negative", "band-inverted", "band-empty", "snr-nan", "snr-minus-inf",
        "seed-negative", "seed-float", "taps-negative", "taps-float", "decay-inf",
        "decay-nan", "decay-above-one", "delay-inf", "snr-past-float-range"])
def test_channel_config_checks_itself(fields, error):
    # rejected at construction, before any audio or sample rate is seen
    with pytest.raises(error, match=next(iter(fields)) if error is ValueError else None):
        ChannelConfig(**fields)


def test_reverb_delay_under_one_sample_rejected():
    config = ChannelConfig(reverb_taps=1, reverb_delay_ms=0.01)  # needs the rate
    with pytest.raises(ValueError, match="one sample"):
        simulate(random_buffer(57, 1000), config)


def test_reverb_delay_past_the_float_range_rejected():
    # finite in ms, but 1e306 ms at 16 kHz is an infinite count of samples
    config = ChannelConfig(reverb_taps=2, reverb_delay_ms=1e306)
    with pytest.raises(ValueError, match="reverb_delay_ms"):
        simulate(random_buffer(58, 1000), config)


def test_lowest_snr_on_a_loud_reverberant_clip_stays_finite():
    # four in-phase taps of decay 1 lift a constant 0.99 to 4.95, a power of
    # 24.5, and the noise gain factor at -3080 dB is 1e154: the noise
    # drowns the signal, and every sample stays finite
    config = ChannelConfig(snr_db=-3080.0, reverb_taps=4, reverb_delay_ms=1.0,
                           reverb_decay=1.0)
    out, scale = simulate(AudioBuffer(np.full(SR, 0.99), SR), config)
    assert len(out) == SR and np.all(np.isfinite(out.samples))
    assert scale < 1.0 and np.max(np.abs(out.samples)) <= 1.0
    assert np.std(out.samples) > 0.1  # what is left is the noise


def test_harsh_simulate_peak_is_its_largest_phase():
    # 6 s at 16 kHz through the 1601-tap band-pass: the FFT size is
    # _fast_len(n + 800) = 97200, and one real array of that size is `fft`
    # bytes. What is live at the two largest phases, plus 16 KiB for the
    # array objects and small temporaries:
    # - the reverb: apply_fir's output, held whole by the view simulate
    #   keeps, the reverb's copy of the clip and one scaled tap (a clip at
    #   most);
    # - the inverse FFT: the product (FFT size // 2 + 1 complex values, one
    #   fft array and 16 bytes) and the real output, and on numpy < 2 also
    #   the product zero-padded to the FFT size in complex (two fft arrays).
    # Measured: 3.01x the clip's bytes with numpy 2.4 (the reverb), and
    # 4.05x (the inverse FFT) with np.fft padding its input as numpy 1.24's
    # does.
    audio = random_buffer(6, 6 * SR)
    clip = audio.samples.nbytes
    harsh = PRESETS["harsh"]
    taps = _band_taps(harsh.band_low, harsh.band_high, SR)
    fft = 8 * _fast_len(len(audio) + (len(taps) - 1) // 2)
    reverb = fft + 2 * clip
    inverse = 2 * fft + (2 * fft if FFT_PADS_INPUT else 0)
    assert warm_peak_bytes(simulate, audio, harsh) <= max(reverb, inverse) + 16 * 1024


def test_parse_channel_config_roundtrip():
    text = """
    # a deliberately nasty room
    band_low = 100
    band_high = 7000   # telephone-ish top end
    snr_db = 20
    seed = 3
    reverb_delay_ms = 15
    reverb_decay = 0.4
    reverb_taps = 4
    """
    config = parse_channel_config(text)
    assert config == ChannelConfig(band_low=100.0, band_high=7000.0, snr_db=20.0,
                                   seed=3, reverb_delay_ms=15.0, reverb_decay=0.4,
                                   reverb_taps=4)
    assert parse_channel_config("snr_db = inf").snr_db == np.inf
    assert parse_channel_config("") == ChannelConfig()


def test_parse_channel_config_rejects_junk():
    with pytest.raises(ValueError):
        parse_channel_config("volume = 11")
    with pytest.raises(ValueError):
        parse_channel_config("band_low 100")
    with pytest.raises(ValueError):
        parse_channel_config("seed = 1.5")
    with pytest.raises(ValueError, match="reverb_decay"):
        parse_channel_config("reverb_decay = inf")  # checked with no taps to use it


def test_resolve_channel_preset_and_file(tmp_path):
    assert resolve_channel("harsh") == PRESETS["harsh"]
    assert resolve_channel("transparent") == ChannelConfig()
    path = tmp_path / "room.cfg"
    path.write_text("band_low = 200\nsnr_db = 12\n")
    config = resolve_channel(str(path))
    assert config.band_low == 200.0 and config.snr_db == 12.0
    with pytest.raises(OSError):
        resolve_channel(str(tmp_path / "missing.cfg"))
