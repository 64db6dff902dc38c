"""The per-configuration tables (band-pass taps, their spectrum, the FFT
size, channel noise, analysis window, mel filterbank, DCT rows, rpg's phasor
stream, hfa's unit tones, ts's selection index, canonicalize's resample
plan) are built once, each through dsp.cached_table: every cached array is
read-only, a repeated call returns the same object, and cold and warm caches
give the same bytes, tdi and rpg at every window included."""

import importlib
import pkgutil
import random
from dataclasses import replace

import numpy as np
import pytest

import garble
from garble import audio_io, dsp
from garble.audio_io import AudioBuffer, canonicalize, write_wav
from garble.channel import PRESETS, ChannelConfig, simulate
from garble.features import FeatureConfig, extract_features
from garble.perturb import hfa, rpg, tdi, ts
from oracles import rpg_loop, tdi_loop
from synth import SR, random_buffer

# every cached function in every module of the package, each once (a module
# may import another's), so a new cache is cleared by the cold runs below
# without being listed here
MODULES = [importlib.import_module(f"garble.{info.name}")
           for info in pkgutil.iter_modules(garble.__path__)]
CACHES = tuple({id(fn): fn for module in MODULES for fn in vars(module).values()
                if hasattr(fn, "cache_clear")}.values())
LENGTHS = (1, 300, 1601, 24000)
RATES = (16000, 22050)
CHANNELS = (PRESETS["harsh"], replace(PRESETS["harsh"], seed=5),
            ChannelConfig(band_low=300.0, band_high=3400.0, snr_db=10.0, seed=9))
FEATURES = (FeatureConfig(), FeatureConfig(frame_ms=10.0, hop_ms=5.0,
                                           include_dct=False, n_filters=20))
TS_FACTORS = (100.0, 150.0, 250.0)
RESAMPLE_RATES = (8000, 44100, 48000)


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


def sped(audio, factor):
    return ts(audio, factor).samples.tobytes()


def resampled(audio, rate):
    """The samples read as if at rate, resampled to 16 kHz."""
    return canonicalize(AudioBuffer(audio.samples, rate)).samples.tobytes()


def outputs(cold):
    """Aired WAVs, feature bytes, sped-up and resampled samples for every
    config and input; cold clears every cache before each call."""
    calls = ([(aired, c) for c in CHANNELS] + [(feature_bytes, c) for c in FEATURES]
             + [(sped, f) for f in TS_FACTORS] + [(resampled, r) for r in RESAMPLE_RATES])
    out = []
    for fn, config in calls:
        for x in interleaved_inputs():
            if cold:
                clear_caches()
            out.append(fn(x, config))
    return out


def built_by_cached_table(cache):
    """Whether cache is the lru_cache that dsp.cached_table wraps around a
    builder: the function it wraps runs the kernel's own code."""
    probe = dsp.cached_table(lambda: None)
    return cache.__wrapped__.__code__ is probe.__wrapped__.__code__


def test_cached_tables_are_read_only():
    clear_caches()
    for _ in range(2):
        simulate(random_buffer(1, 24000), PRESETS["harsh"])
        extract_features(random_buffer(2, 24000))
        rpg(random_buffer(3, 24000), 2.0, seed=4)
        hfa(random_buffer(4, 24000), ((7500.0, 0.1),))
        ts(random_buffer(5, 24000), 150.0)
        canonicalize(random_buffer(6, 24000, sr=22050))
        canonicalize(random_buffer(7, 24000, sr=48000))
    assert len(CACHES) >= 11
    for cache in CACHES:  # the second round of calls hit every table
        assert cache.cache_info().hits >= 1, cache.__name__
        assert built_by_cached_table(cache), cache.__name__
    for rate in (22050, 48000):  # no fraction or mask at 48 kHz: None in their place
        plan = [array for array in audio_io._resample_plan(24000, rate) if array is not None]
        assert plan and not any(array.flags.writeable for array in plan)


def test_cached_table_freezes_arrays_and_keys_by_type():
    calls = []

    @dsp.cached_table
    def table(n, scale):
        calls.append((n, scale))
        return np.arange(n) * scale

    @dsp.cached_table
    def pair(n):
        return np.zeros(n), np.ones(n), float(n)

    array = table(3, 1.5)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 1.0
    zeros, ones, n = pair(3)
    assert not zeros.flags.writeable and not ones.flags.writeable and n == 3.0
    assert table(3, 1.5) is array and pair(3)[0] is zeros
    # a float32 key is its own entry, not the equal float64 one's
    assert table(3, np.float32(1.5)) is not array
    assert calls == [(3, 1.5), (3, np.float32(1.5))]
    assert type(calls[1][1]) is np.float32
    assert table.cache_info().hits == 1 and table.cache_info().misses == 2


def test_cold_and_warm_caches_give_the_same_bytes():
    cold = outputs(cold=True)
    assert any(out is None for out in cold) and any(out is not None for out in cold)
    assert outputs(cold=False) == cold
    assert outputs(cold=False) == cold  # warm, with entries evicted and rebuilt


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 101, 160])
@pytest.mark.parametrize("transform, loop", [
    (tdi, tdi_loop),
    (lambda x, ms: rpg(x, ms, seed=3), lambda x, w: rpg_loop(x, w, 3)),
], ids=["tdi", "rpg"])
def test_every_window_matches_the_window_loop(transform, loop, n, cold):
    """Every window from 1 to n + 2 samples, in shuffled order, on one
    (seed, n): windows of 1 and 2 samples leave rpg nothing to draw, 101 at
    50 leaves a one-sample tail and at 33 a two-sample tail (no interior
    bin), and windows past n leave the whole clip as the tail."""
    x = random_buffer(n, n).samples
    windows = list(range(1, n + 3))
    random.Random(n).shuffle(windows)
    for w in windows:
        if cold:
            clear_caches()
        got = transform(AudioBuffer(x, SR), w * 1000.0 / SR).samples
        assert got.tobytes() == loop(x, w).tobytes(), f"window {w}"


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
