import numpy as np
import pytest

from garble.audio_io import AudioBuffer
from garble.perturb import (
    ParamGrid,
    PerturbationParams,
    _phasor_stream,
    apply_params,
    expand_grid,
    hfa,
    rpg,
    tdi,
    ts,
)
from oracles import rpg_loop
from synth import SR, random_buffer


def ms(n_samples, rate=SR):
    """Milliseconds that convert back to exactly n_samples at this rate."""
    return n_samples * 1000.0 / rate


# --- random phase generation -------------------------------------------------


def test_rpg_leaves_dc_and_nyquist_bins_alone(rng):
    n, w = 640, 64
    buf = AudioBuffer(rng.uniform(-1, 1, n), SR)
    out = rpg(buf, ms(w), seed=9)
    for k in range(n // w):
        before = np.fft.rfft(buf.samples[k * w:(k + 1) * w])
        after = np.fft.rfft(out.samples[k * w:(k + 1) * w])
        assert abs(before[0] - after[0]) <= 1e-9 * max(1.0, abs(before[0]))
        assert abs(before[-1] - after[-1]) <= 1e-9 * max(1.0, abs(before[-1]))


def test_rpg_seed_must_be_an_integer():
    buf = random_buffer(2, 2000)
    _phasor_stream.cache_clear()
    for _ in range(2):  # cold, then with seed 1's table cached
        with pytest.raises(TypeError):
            rpg(buf, 2.0, seed=1.0)
        got = rpg(buf, 2.0, seed=np.int64(1)).samples
        assert got.tobytes() == rpg_loop(buf.samples, 32, 1).tobytes()


def test_rpg_tiny_windows_are_identity():
    # one- and two-sample windows have no interior bins to scramble
    buf = random_buffer(4, 64)
    assert np.allclose(rpg(buf, ms(1), 3).samples, buf.samples, atol=1e-12)
    assert np.allclose(rpg(buf, ms(2), 3).samples, buf.samples, atol=1e-12)


def test_rpg_output_is_real_and_zero_stays_zero():
    silent = AudioBuffer(np.zeros(500), SR)
    out = rpg(silent, 2.0, seed=0)
    assert out.samples.dtype == np.float64
    assert np.array_equal(out.samples, np.zeros(500))


# --- high-frequency addition -------------------------------------------------


def test_hfa_tone_follows_the_frequency_type():
    # the tone is built in float64 from float(freq), so np.float32(7500.0)
    # gives 7500.0's bytes, not a float32-precision tone (numpy 2, NEP 50)
    buf = random_buffer(6, 1600, amp=0.3)
    n = np.arange(1600)
    want = buf.samples + 0.25 * np.sin(2 * np.pi * 7500.0 * n / SR)
    for freq in (7500.0, np.float32(7500.0), 7500.0):
        out, scale = hfa(buf, ((freq, 0.25),))
        assert scale == 1.0
        assert out.samples.tobytes() == want.tobytes()


def test_hfa_rescales_instead_of_clipping():
    x = np.full(1600, 0.9)
    out, scale = hfa(AudioBuffer(x, SR), ((7000.0, 0.5),))
    assert scale < 1.0
    peak = np.max(np.abs(out.samples))
    assert peak <= 1.0 + 1e-12 and peak > 0.999999
    # shape preserved: output is exactly scale * (input + tone)
    n = np.arange(1600)
    mixed = x + 0.5 * np.sin(2 * np.pi * 7000.0 * n / SR)
    assert np.allclose(out.samples, scale * mixed, atol=1e-12)


def test_hfa_validation_and_empty():
    buf = random_buffer(7, 100)
    with pytest.raises(ValueError):
        hfa(buf, ((8000.0, 0.1),))  # at Nyquist
    with pytest.raises(ValueError):
        hfa(buf, ((9000.0, 0.1),))  # beyond Nyquist
    with pytest.raises(ValueError):
        hfa(buf, ((4000.0, -0.1),))
    out, scale = hfa(buf, ())
    assert scale == 1.0 and np.array_equal(out.samples, buf.samples)


# --- parameter plumbing ------------------------------------------------------


def test_apply_params_matches_manual_composition():
    buf = random_buffer(12, 8000)
    params = PerturbationParams(tdi_window_ms=1.0, rpg_window_ms=2.0,
                                rpg_seed=7, ts_factor_percent=150.0,
                                hfa_components=((7500.0, 0.05),))
    got = apply_params(buf, params)
    want, _ = hfa(rpg(tdi(ts(buf, 150.0), 1.0), 2.0, seed=7), ((7500.0, 0.05),))
    assert np.array_equal(got.samples, want.samples)


def test_empty_params_is_identity():
    buf = random_buffer(14, 500)
    assert np.array_equal(apply_params(buf, PerturbationParams()).samples,
                          buf.samples)


def test_expand_grid_order_and_count():
    grid = ParamGrid(tdi_window_ms=(1.0, 2.0), ts_factor_percent=(150.0, 300.0))
    combos = expand_grid(grid)
    assert [(p.tdi_window_ms, p.ts_factor_percent) for p in combos] == [
        (1.0, 150.0), (1.0, 300.0), (2.0, 150.0), (2.0, 300.0)]
    grid = ParamGrid(tdi_window_ms=(1.0, 2.0, 3.0), rpg_window_ms=(None, 2.0),
                     hfa_components=((), ((7500.0, 0.1),)),
                     ts_factor_percent=(None, 150.0), rpg_seed=5)
    combos = expand_grid(grid)
    assert len(combos) == 3 * 2 * 2 * 2
    assert all(p.rpg_seed == 5 for p in combos)


def test_params_normalize_component_types():
    p = PerturbationParams(hfa_components=[[7500, 1], (6000, 0.5)])
    assert p.hfa_components == ((7500.0, 1.0), (6000.0, 0.5))
    assert isinstance(p.hfa_components[0][0], float)
