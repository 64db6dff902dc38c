"""The per-configuration tables (band-pass taps, their spectrum, channel
noise, Hamming window, mel filterbank, DCT rows) are built once and
cached: every cached array is read-only, a repeated call returns the same
object, and cold and warm caches give the same bytes."""

from dataclasses import replace

import pytest

from garble import channel, dsp, features
from garble.audio_io import write_wav
from garble.channel import PRESETS, ChannelConfig, simulate
from garble.features import FeatureConfig, extract_features
from synth import random_buffer

CACHES = (channel._band_taps, channel._unit_noise, dsp._taps_spectrum,
          features.mel_filterbank, features._hamming, features._dct_rows)
LENGTHS = (1, 300, 1601, 24000)
RATES = (16000, 22050)
CHANNELS = (PRESETS["harsh"], replace(PRESETS["harsh"], seed=5),
            ChannelConfig(band_low=300.0, band_high=3400.0, snr_db=10.0, seed=9))
FEATURES = (FeatureConfig(), FeatureConfig(frame_ms=10.0, hop_ms=5.0,
                                           include_dct=False, n_filters=20))


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def interleaved_inputs():
    """Every (length, rate) pair, the lengths alternating between calls."""
    return [random_buffer(7 * n + rate, n, sr=rate) for rate in RATES for n in LENGTHS]


def aired(audio, config):
    return write_wav(simulate(audio, config)[0])


def feature_bytes(audio, config):
    try:
        return extract_features(audio, config).data.tobytes()
    except ValueError:  # shorter than one analysis frame
        return None


def outputs(cold):
    """Aired WAVs and feature bytes for every config and input; cold clears
    every cache before each call."""
    calls = [(aired, c) for c in CHANNELS] + [(feature_bytes, c) for c in FEATURES]
    out = []
    for fn, config in calls:
        for x in interleaved_inputs():
            if cold:
                clear_caches()
            out.append(fn(x, config))
    return out


def test_cached_tables_are_read_only():
    clear_caches()
    harsh = PRESETS["harsh"]
    simulate(random_buffer(1, 24000), harsh)
    extract_features(random_buffer(2, 24000))
    taps = channel._band_taps(harsh.band_low, harsh.band_high, 16000)
    size = dsp._fast_len(24000 + (len(taps) - 1) // 2)
    tables = [
        taps,
        dsp._taps_spectrum(taps.tobytes(), size),
        channel._unit_noise(harsh.seed, 24000)[0],
        features.mel_filterbank(26, 512, 16000),
        features._hamming(320),
        features._dct_rows(13, 26),
    ]
    for cache in CACHES:  # the two calls above built every table fetched here
        assert cache.cache_info().hits >= 1
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert features.mel_filterbank(26, 512, 16000) is tables[3]


def test_cold_and_warm_caches_give_the_same_bytes():
    cold = outputs(cold=True)
    assert any(out is None for out in cold) and any(out is not None for out in cold)
    assert outputs(cold=False) == cold
    assert outputs(cold=False) == cold  # warm, with entries evicted and rebuilt
