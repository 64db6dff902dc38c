import numpy as np
import pytest

from garble.audio_io import AudioBuffer
from garble.dsp import window_ms_to_samples
from garble.perturb import (
    ParamGrid,
    PerturbationChain,
    PerturbationParams,
    apply_chain,
    apply_params,
    expand_grid,
    hfa,
    rpg,
    tdi,
    tdi_probe_schedule,
    ts,
)
from oracles import direct_window_mags
from synth import SR, random_buffer


def ms(n_samples, rate=SR):
    """Milliseconds that convert back to exactly n_samples at this rate."""
    return n_samples * 1000.0 / rate


# --- window arithmetic -------------------------------------------------------


def test_window_ms_to_samples():
    assert window_ms_to_samples(20.0, 16000) == 320
    assert window_ms_to_samples(1.0, 16000) == 16
    assert window_ms_to_samples(0.01, 16000) == 1  # floor at one sample
    assert window_ms_to_samples(1.0, 44100) == 44
    with pytest.raises(ValueError):
        window_ms_to_samples(0.0, 16000)
    with pytest.raises(ValueError):
        window_ms_to_samples(-1.0, 16000)


# --- time-domain inversion ---------------------------------------------------


def test_tdi_small_example():
    buf = AudioBuffer(np.array([1.0, 2, 3, 4, 5, 6]), SR)
    out = tdi(buf, ms(2))
    assert np.array_equal(out.samples, [2, 1, 4, 3, 6, 5])


def test_tdi_partial_tail_reverses_at_own_length():
    buf = AudioBuffer(np.array([1.0, 2, 3, 4, 5, 6, 7]), SR)
    out = tdi(buf, ms(3))
    assert np.array_equal(out.samples, [3, 2, 1, 6, 5, 4, 7])
    out = tdi(buf, ms(5))
    assert np.array_equal(out.samples, [5, 4, 3, 2, 1, 7, 6])


def test_tdi_window_of_one_is_identity():
    buf = random_buffer(0, 100)
    assert np.array_equal(tdi(buf, ms(1)).samples, buf.samples)


def test_tdi_window_covering_buffer_reverses_everything():
    buf = random_buffer(1, 50)
    assert np.array_equal(tdi(buf, ms(64)).samples, buf.samples[::-1])


def test_tdi_involution_randomized(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5000))
        w = int(rng.integers(1, 700))
        buf = AudioBuffer(rng.uniform(-1, 1, n), SR)
        twice = tdi(tdi(buf, ms(w)), ms(w))
        assert np.array_equal(twice.samples, buf.samples)


# --- random phase generation -------------------------------------------------


def test_rpg_preserves_window_magnitudes(rng):
    # non-dividing window sizes on purpose; magnitudes checked against a
    # direct DFT, not the transform the implementation used
    for n, w in [(1000, 23), (4096, 256), (777, 160), (50, 64)]:
        buf = AudioBuffer(rng.uniform(-1, 1, n), SR)
        out = rpg(buf, ms(w), seed=5)
        got = direct_window_mags(out.samples, w)
        want = direct_window_mags(buf.samples, w)
        for g, t in zip(got, want):
            scale = max(1e-12, float(np.max(t)))
            assert np.max(np.abs(g - t)) <= 1e-6 * scale


def test_rpg_leaves_dc_and_nyquist_bins_alone(rng):
    n, w = 640, 64
    buf = AudioBuffer(rng.uniform(-1, 1, n), SR)
    out = rpg(buf, ms(w), seed=9)
    for k in range(n // w):
        before = np.fft.rfft(buf.samples[k * w:(k + 1) * w])
        after = np.fft.rfft(out.samples[k * w:(k + 1) * w])
        assert abs(before[0] - after[0]) <= 1e-9 * max(1.0, abs(before[0]))
        assert abs(before[-1] - after[-1]) <= 1e-9 * max(1.0, abs(before[-1]))


def test_rpg_determinism_and_seed_sensitivity():
    buf = random_buffer(2, 2000)
    a = rpg(buf, 2.0, seed=1)
    b = rpg(buf, 2.0, seed=1)
    c = rpg(buf, 2.0, seed=2)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


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


def test_hfa_adds_exact_tone():
    buf = random_buffer(6, 1600, amp=0.3)
    out, scale = hfa(buf, ((7500.0, 0.25),))
    assert scale == 1.0
    n = np.arange(1600)
    tone = 0.25 * np.sin(2 * np.pi * 7500.0 * n / SR)
    assert np.allclose(out.samples - buf.samples, tone, atol=1e-12)


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


def test_hfa_multiple_components_superpose():
    buf = random_buffer(8, 800, amp=0.1)
    out, _ = hfa(buf, ((6000.0, 0.1), (7000.0, 0.2)))
    n = np.arange(800)
    want = (0.1 * np.sin(2 * np.pi * 6000.0 * n / SR)
            + 0.2 * np.sin(2 * np.pi * 7000.0 * n / SR))
    assert np.allclose(out.samples - buf.samples, want, atol=1e-12)


# --- time scaling ------------------------------------------------------------


def test_ts_identity_and_simple_decimation():
    buf = random_buffer(9, 16000)
    assert np.array_equal(ts(buf, 100.0).samples, buf.samples)
    out = ts(buf, 200.0)
    assert np.array_equal(out.samples, buf.samples[::2])
    assert out.sample_rate == buf.sample_rate


def test_ts_selection_law():
    buf = random_buffer(10, 1000)
    for factor in [125.0, 150.0, 175.0, 300.0]:
        s = factor / 100.0
        out = ts(buf, factor)
        idx = np.round(np.arange(len(out)) * s).astype(int)
        assert idx[-1] < 1000
        assert np.array_equal(out.samples, buf.samples[idx])


def test_ts_length_law(rng):
    for _ in range(40):
        n = int(rng.integers(1, 20000))
        factor = float(rng.choice([100.0, 150.0, 200.0, 250.0, 300.0]))
        out = ts(AudioBuffer(rng.uniform(-1, 1, n), SR), factor)
        assert abs(len(out) - int(np.ceil(n * 100.0 / factor))) <= 1


def test_ts_rejects_slowdown():
    with pytest.raises(ValueError):
        ts(random_buffer(11, 100), 99.9)


# --- parameter plumbing ------------------------------------------------------


def test_apply_params_matches_manual_composition():
    buf = random_buffer(12, 8000)
    params = PerturbationParams(tdi_window_ms=1.0, rpg_window_ms=2.0,
                                rpg_seed=7, ts_factor_percent=150.0,
                                hfa_components=((7500.0, 0.05),))
    got = apply_params(buf, params)
    want, _ = hfa(rpg(tdi(ts(buf, 150.0), 1.0), 2.0, seed=7), ((7500.0, 0.05),))
    assert np.array_equal(got.samples, want.samples)


def test_chain_respects_explicit_order():
    buf = random_buffer(13, 4000)
    chain = PerturbationChain((("tdi", {"window_ms": 1.0}),
                               ("ts", {"factor_percent": 200.0})))
    got = apply_chain(buf, chain)
    want = ts(tdi(buf, 1.0), 200.0)
    assert np.array_equal(got.samples, want.samples)
    with pytest.raises(ValueError):
        apply_chain(buf, PerturbationChain((("warp", {}),)))


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


def test_probe_schedule_defaults():
    sched = tdi_probe_schedule()
    assert [p.tdi_window_ms for p in sched] == [
        1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]
    assert all(p.rpg_window_ms is None for p in sched)
    with pytest.raises(ValueError):
        tdi_probe_schedule(count=0)


def test_params_normalize_component_types():
    p = PerturbationParams(hfa_components=[[7500, 1], (6000, 0.5)])
    assert p.hfa_components == ((7500.0, 1.0), (6000.0, 0.5))
    assert isinstance(p.hfa_components[0][0], float)
