"""Property tests: the framing kernel and the vectorized per-window code
against their definitions and the loop references in oracles.py, over
arbitrary lengths, windows and seeds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from garble.audio_io import AudioBuffer
from garble.dsp import frames
from garble.perturb import rpg, tdi, window_ms_to_samples
from garble.vad import frame_energies
from oracles import rpg_loop, vad_energies_loop
from synth import SR

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
