"""Property tests: the framing kernel, the vectorized per-window code and
the lazy attack searches against their definitions and the references in
oracles.py, over arbitrary lengths, windows, seeds, schedules and budgets."""

import math
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from garble.attack import AttackCandidate, generic_attack, improved_attack, mock_oracle
from garble.audio_io import AudioBuffer
from garble.dsp import frames, window_ms_to_samples
from garble.features import extract_features, feature_distance
from garble.perturb import PerturbationParams, apply_params, rpg, tdi, ts
from garble.vad import frame_energies
from oracles import generic_attack_eager, improved_attack_eager, rpg_loop, vad_energies_loop
from synth import SR, band_noise

# derandomized so every run checks the same examples; bounded for tier-1 time
bounded = settings(max_examples=60, deadline=None, derandomize=True)

lengths = st.integers(min_value=0, max_value=4000)
windows_ms = st.floats(min_value=0.01, max_value=300.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def signal(n, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


@bounded
@given(n=lengths, length=st.integers(1, 600), hop=st.integers(1, 600), seed=seeds)
def test_frames_matches_definition(n, length, hop, seed):
    x = signal(n, seed)
    view = frames(x, length, hop)
    want = [x[i:i + length] for i in range(0, n - length + 1, hop)]
    assert view.shape == (len(want), length)
    assert all(np.array_equal(row, ref) for row, ref in zip(view, want))
    assert not view.flags.writeable


@bounded
@given(n=lengths, window_ms=windows_ms, seed=seeds)
def test_rpg_matches_window_loop(n, window_ms, seed):
    x = signal(n, seed)
    got = rpg(AudioBuffer(x, SR), window_ms, seed).samples
    want = rpg_loop(x, window_ms_to_samples(window_ms, SR), seed)
    assert got.tobytes() == want.tobytes()


@bounded
@given(n=lengths, frame_len=st.integers(1, 600), seed=seeds)
def test_vad_energies_match_frame_loop(n, frame_len, seed):
    x = signal(n, seed)
    assert frame_energies(x, frame_len).tobytes() == vad_energies_loop(x, frame_len).tobytes()


@bounded
@given(n=lengths, window_ms=windows_ms, seed=seeds)
def test_tdi_is_an_involution(n, window_ms, seed):
    buf = AudioBuffer(signal(n, seed), SR)
    twice = tdi(tdi(buf, window_ms), window_ms)
    assert twice.samples.tobytes() == buf.samples.tobytes()


@bounded
@given(n=lengths, window_ms=windows_ms, seed=seeds)
def test_rpg_preserves_every_window_magnitude(n, window_ms, seed):
    # tolerance: float64 FFT round-off, far below 16-bit quantization (3e-5)
    x = signal(n, seed)
    y = rpg(AudioBuffer(x, SR), window_ms, seed).samples
    w = window_ms_to_samples(window_ms, SR)
    full = n // w * w
    for a, b in ((x[:full].reshape(-1, w), y[:full].reshape(-1, w)),
                 (x[None, full:], y[None, full:])):
        if a.size == 0:
            continue
        ma, mb = np.abs(np.fft.rfft(a, axis=1)), np.abs(np.fft.rfft(b, axis=1))
        assert np.all(np.abs(ma - mb) <= 1e-9 * (1.0 + ma.max(axis=1, keepdims=True)))


@bounded
@given(n=lengths, factor=st.floats(min_value=100.0, max_value=1000.0)
       | st.sampled_from([100.0, 150.0, 250.0, 300.0]), seed=seeds)
def test_ts_length_and_selection_law(n, factor, seed):
    x = signal(n, seed)
    out = ts(AudioBuffer(x, SR), factor).samples
    s = factor / 100.0
    assert out.tobytes() == x[np.round(np.arange(len(out)) * s).astype(np.int64)].tobytes()
    if n == 0:
        assert len(out) == 0
        return
    # floor((n - 0.5) / s) + 1 samples; the last is dropped only when its
    # index k*s sits on n - 0.5 and rounds half-to-even up to n
    law = math.floor((n - 0.5) / s) + 1
    assert len(out) == law or (len(out) == law - 1 and round((law - 1) * s) == n)
    assert round(len(out) * s) >= n  # no further sample fits


# --- lazy attack searches against the eager references -------------------------

# tdi 1.0 and rpg 1.0 tie on distortion_key, as do the two rpg 2.0 seeds
POOL = (PerturbationParams(tdi_window_ms=1.0),
        PerturbationParams(rpg_window_ms=1.0, rpg_seed=5),
        PerturbationParams(tdi_window_ms=1.5),
        PerturbationParams(rpg_window_ms=2.0, rpg_seed=1),
        PerturbationParams(rpg_window_ms=2.0, rpg_seed=2),
        PerturbationParams(tdi_window_ms=3.0, ts_factor_percent=150.0),
        PerturbationParams(tdi_window_ms=4.0))
schedules = st.lists(st.sampled_from(POOL), min_size=1, max_size=6)


def down_from(hi, lo=0):
    """Integers in [lo, hi] with hi the simplest: hypothesis favours simple
    values, and large budgets, k and filter edges make the searches run on."""
    return st.integers(0, hi - lo).map(lambda i: hi - i)


attack_bounded = settings(max_examples=100, deadline=None, derandomize=True)


def words(*seeds):
    return [band_noise(seed, duration_s=0.125) for seed in seeds]


def concat(buffers):
    return AudioBuffer(np.concatenate([b.samples for b in buffers]), SR)


@lru_cache(maxsize=None)
def cuts(*seeds):
    """0, the feature distance to the clean concatenated words of each POOL
    point applied to every word, and inf: thresholds that put the
    acceptance edge on and between the candidates."""
    clean = words(*seeds)
    ref = extract_features(concat(clean))
    dists = [feature_distance(extract_features(concat(apply_params(w, p) for w in clean)), ref)
             for p in POOL]
    return (0.0, *sorted(dists), math.inf)


def outcome(search, backend):
    """Everything search(backend) hands back, in comparable form."""
    try:
        result = search(backend)
    except ValueError as exc:
        return ("ValueError", str(exc))
    cands = [result] if isinstance(result, AttackCandidate) else list(result.candidates)
    return (type(result).__name__, getattr(result, "queries_used", None),
            backend.queries_used,
            [(c.params, c.distortion_rank, c.verdict, c.audio.samples.tobytes())
             for c in cands])


@attack_bounded
@given(schedule=schedules, budget=down_from(8, 1), cut=st.integers(0, len(POOL) + 1))
def test_generic_attack_matches_eager_reference(schedule, budget, cut):
    source = concat(words(201, 202))
    threshold = cuts(201, 202)[cut]
    lazy, eager = (outcome(lambda backend: search(source, backend, schedule),
                           mock_oracle(source, "go", threshold, budget=budget))
                   for search in (generic_attack, generic_attack_eager))
    assert lazy == eager


@attack_bounded
@given(schedule=schedules, k=down_from(3, 1), budget=down_from(10, 1),
       cut=st.integers(0, len(POOL) + 1), word_cut=down_from(2 * len(POOL) + 1))
def test_improved_attack_matches_eager_reference(schedule, k, budget, cut, word_cut):
    pair = words(203, 204)
    threshold = cuts(203, 204)[cut]
    # per-word filter edges: either word's candidate distances, 0 and inf
    feature_threshold = sorted({*cuts(203), *cuts(204)})[word_cut]
    lazy, eager = (outcome(lambda backend: search(pair, k, backend, schedule,
                                                  feature_threshold=feature_threshold),
                           mock_oracle(concat(pair), "go", threshold, budget=budget))
                   for search in (improved_attack, improved_attack_eager))
    assert lazy == eager
