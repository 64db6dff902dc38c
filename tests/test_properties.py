"""Property tests: the framing kernel, the vectorized per-window code and
the lazy attack searches against their definitions and the references in
oracles.py, over arbitrary lengths, windows, seeds, schedules and budgets;
VAD scale covariance, the WAV and manifest round-trips, and read_wav on
arbitrary and damaged bytes."""

import math
import struct
from dataclasses import replace
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from garble.attack import AttackCandidate, MockOracle, generic_attack, improved_attack
from garble.audio_io import AudioBuffer, WavFormatError, read_wav, write_wav
from garble.cli import format_manifest_line, parse_manifest_line
from garble.dsp import frames, window_ms_to_samples
from garble.features import extract_features, feature_distance
from garble.perturb import PerturbationParams, apply_params, rpg, tdi, ts
from garble.vad import detect_speech, frame_energies
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


# --- VAD, WAV and manifest ------------------------------------------------------


def bursts(n, seed):
    """Uniform noise in segments of 50-800 samples, each at one of four
    levels (digital silence included), so the detector finds regions."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    start = 0
    while start < n:
        stop = start + int(rng.integers(50, 800))
        x[start:stop] *= rng.choice([0.0, 1e-3, 0.05, 0.5])
        start = stop
    return x


@bounded
@given(n=lengths, seed=seeds, power=st.integers(-20, 20),
       frame_ms=st.sampled_from([1.0, 5.0, 10.0, 20.0]))
def test_vad_regions_are_scale_covariant(n, seed, power, frame_ms):
    # a power-of-two gain scales every energy, percentile and threshold
    # exactly, so the frame decisions cannot move
    x = bursts(n, seed)
    regions = detect_speech(AudioBuffer(x, SR), frame_ms)
    assert detect_speech(AudioBuffer(x * 2.0 ** power, SR), frame_ms) == regions


@bounded
@given(n=lengths, seed=seeds, rate=st.integers(1, 2**31 - 1))
def test_wav_roundtrip_keeps_rate_length_and_level(n, seed, rate):
    x = signal(n, seed)
    back = read_wav(write_wav(AudioBuffer(x, rate)))
    assert back.sample_rate == rate and len(back) == n
    # one 16-bit step up to half scale; the 32767 write and 32768 read
    # scales stretch it to 1.5 steps at full scale (test_roundtrip_error_bound)
    assert np.all(np.abs(back.samples - x) <= (0.5 + np.abs(x)) / 32768.0 + 1e-12)


manifest_floats = st.floats(allow_nan=False)


@bounded
@given(name=st.text("abcxyz0189._-", max_size=20),
       params=st.builds(PerturbationParams,
                        tdi_window_ms=st.none() | manifest_floats,
                        rpg_window_ms=st.none() | manifest_floats,
                        rpg_seed=st.integers(0, 2**63),
                        hfa_components=st.lists(st.tuples(manifest_floats, manifest_floats),
                                                max_size=3).map(tuple),
                        ts_factor_percent=st.none() | manifest_floats))
def test_manifest_line_roundtrip(name, params):
    got_name, got = parse_manifest_line(format_manifest_line(name, params) + "\n")
    assert got_name == name
    if params.rpg_window_ms is None:
        params = replace(params, rpg_seed=0)  # the seed is written with rpg only
    assert got == params


def read_wav_or_format_error(data):
    try:
        out = read_wav(data)
    except WavFormatError:
        return
    assert isinstance(out, AudioBuffer)


def riff(chunks):
    """A RIFF/WAVE stream of (id, declared size, body) chunks; the declared
    size may lie about the body."""
    return b"RIFF\x00\x00\x00\x00WAVE" + b"".join(
        cid + struct.pack("<I", size) + body for cid, size, body in chunks)


def chunk(cid, body, lie=st.integers(-20, 8)):
    """A chunk whose declared size is off by lie bytes (never below 0)."""
    return st.tuples(cid, lie, body).map(lambda c: (c[0], max(0, len(c[2]) + c[1]), c[2]))


fmt_bodies = st.builds(
    lambda codec, channels, rate, extra:
        struct.pack("<HHIIHH", codec[0], channels, rate, 0, 0, codec[1]) + extra,
    st.sampled_from([(1, 16), (3, 32)])
    | st.tuples(st.integers(0, 4), st.sampled_from([8, 16, 32])),
    st.sampled_from([1, 2]) | st.integers(0, 3),
    st.sampled_from([0, 1, 16000, 2**32 - 1]) | st.integers(0, 2**32 - 1),
    st.binary(max_size=4))
samples32 = st.sampled_from([0.5, -np.inf, np.nan]) | st.floats(width=32)
data_bodies = st.binary(max_size=40) | st.lists(samples32, max_size=8).map(
    lambda values: np.array(values, "<f4").tobytes())
fmt_chunks = chunk(st.just(b"fmt "), fmt_bodies)
data_chunks = chunk(st.just(b"data"), data_bodies)
streams = (st.binary(max_size=128)
           | st.tuples(chunk(st.just(b"fmt "), fmt_bodies, st.just(0)),
                       chunk(st.just(b"data"), data_bodies, st.just(0))).map(riff)
           | st.lists(fmt_chunks | data_chunks
                      | chunk(st.binary(min_size=4, max_size=4), st.binary(max_size=12)),
                      max_size=4).map(riff))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=streams)
def test_read_wav_on_arbitrary_bytes(data):
    read_wav_or_format_error(data)


def float32_stereo_wav():
    fmt = struct.pack("<HHIIHH", 3, 2, 8000, 64000, 8, 32)
    frames_ = np.array([0.25, -0.5, 1.0, 0.0, -1.0, 0.125], "<f4").tobytes()
    body = (b"WAVE" + b"LIST" + struct.pack("<I", 3) + b"abc\x00"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(frames_)) + frames_)
    return b"RIFF" + struct.pack("<I", len(body)) + body


VALID_WAVS = (write_wav(AudioBuffer(np.linspace(-1.0, 1.0, 7), SR)), float32_stereo_wav())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(base=st.sampled_from(VALID_WAVS),
       edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=6),
       cut=st.integers(0, 200), insert=st.binary(max_size=8), at=st.integers(0, 200))
def test_read_wav_on_damaged_wavs(base, edits, cut, insert, at):
    data = bytearray(base)
    for pos, value in edits:
        data[pos % len(data)] = value
    data[at:at] = insert
    read_wav_or_format_error(bytes(data[:len(data) - cut % (len(data) + 1)]))


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
                           MockOracle(source, "go", threshold, budget=budget))
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
                           MockOracle(concat(pair), "go", threshold, budget=budget))
                   for search in (improved_attack, improved_attack_eager))
    assert lazy == eager
