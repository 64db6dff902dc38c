"""The per-configuration tables (band-pass taps, their spectrum, channel
noise, Hamming window, mel filterbank, DCT rows, rpg's phasor stream,
hfa's unit tones) are built once and cached: every cached array is
read-only, a repeated call returns the same object, and cold and warm
caches give the same bytes."""

import random
from dataclasses import replace

import numpy as np
import pytest

from garble import channel, dsp, features, perturb
from garble.audio_io import AudioBuffer, write_wav
from garble.channel import PRESETS, ChannelConfig, simulate
from garble.features import FeatureConfig, extract_features
from garble.perturb import hfa, rpg
from oracles import rpg_loop
from synth import SR, random_buffer

# every cached function in the modules that keep tables, so a new cache is
# cleared by the cold runs below without being listed here
CACHES = tuple(fn for module in (channel, dsp, features, perturb)
               for fn in vars(module).values() if hasattr(fn, "cache_clear"))
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
    rpg(random_buffer(3, 24000), 2.0, seed=4)
    hfa(random_buffer(4, 24000), ((7500.0, 0.1),))
    taps = channel._band_taps(harsh.band_low, harsh.band_high, 16000)
    size = dsp._fast_len(24000 + (len(taps) - 1) // 2)
    tables = {
        channel._band_taps: taps,
        dsp._taps_spectrum: dsp._taps_spectrum(taps.tobytes(), size),
        channel._unit_noise: channel._unit_noise(harsh.seed, 24000)[0],
        features.mel_filterbank: features.mel_filterbank(26, 512, 16000),
        features._hamming: features._hamming(320),
        features._dct_rows: features._dct_rows(13, 26),
        perturb._phasor_stream: perturb._phasor_stream(4, 24000),
        perturb._tone: perturb._tone(7500.0, 24000, 16000),
    }
    # every cache holds a table but _fast_len, which returns an int
    assert set(tables) == set(CACHES) - {dsp._fast_len}
    for cache in CACHES:  # the calls above built every table fetched here
        assert cache.cache_info().hits >= 1
    for table in tables.values():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert features.mel_filterbank(26, 512, 16000) is tables[features.mel_filterbank]


def test_cold_and_warm_caches_give_the_same_bytes():
    cold = outputs(cold=True)
    assert any(out is None for out in cold) and any(out is not None for out in cold)
    assert outputs(cold=False) == cold
    assert outputs(cold=False) == cold  # warm, with entries evicted and rebuilt


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 101, 160])
def test_rpg_at_every_window_matches_the_window_loop(n, cold):
    """Every window from 1 to n + 2 samples, in shuffled order, on one
    (seed, n): windows of 1 and 2 samples draw nothing, 101 at 50 leaves a
    one-sample tail and at 33 a two-sample tail (no interior bin), and
    windows past n leave the whole clip as the tail."""
    x = random_buffer(n, n).samples
    windows = list(range(1, n + 3))
    random.Random(n).shuffle(windows)
    for w in windows:
        if cold:
            clear_caches()
        got = rpg(AudioBuffer(x, SR), w * 1000.0 / SR, seed=3).samples
        assert got.tobytes() == rpg_loop(x, w, 3).tobytes(), f"window {w}"


@pytest.mark.parametrize("cold", [True, False])
def test_hfa_on_interleaved_lengths_matches_direct_tones(cold):
    components = ((7500.0, 0.1), (5000.0, 0.05))
    for n in (1601, 24000, 1601, 24000):
        if cold:
            clear_caches()
        x = random_buffer(n, n, amp=0.3)
        want = x.samples.copy()
        k = np.arange(n)
        for freq, amp in components:
            want += amp * np.sin(2.0 * np.pi * freq * k / SR)
        out, scale = hfa(x, components)
        assert scale == 1.0
        assert out.samples.tobytes() == want.tobytes(), f"length {n}"
