"""Property tests: the framing and tiling kernels, the vectorized per-window
code, the FFT FIR and its FFT size, the band-pass length, the VAD run
finder and the lazy attack searches against their definitions and the
references in oracles.py, over arbitrary lengths, windows, taps, seeds,
schedules and budgets; check_params against the errors of apply_params;
the channel's output range over every config and any float32 input; one
TRANSFORMS table of every transform, each row under three laws: an empty
clip stays empty, samples anywhere in the float64 range give finite samples
or ValueError, and the input's samples are left as they were; the blocked
feature spectrum and features against the one-shot STFT on clips with
zeroed spans, and to rounding against |X| squared and one product; VAD
scale covariance, the WAV and manifest round-trips, write_wav's
quantization past full scale, and read_wav on arbitrary and damaged
bytes."""

import math
import struct
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garble.attack import (AttackCandidate, MockOracle, TranscriberBackend, generic_attack,
                           improved_attack)
from garble.audio_io import AudioBuffer, WavFormatError, canonicalize, read_wav, write_wav
from garble.channel import PRESETS, ChannelConfig, _band_taps, simulate
from garble.cli import format_manifest_line, parse_manifest_line
from garble.dsp import (_fast_len, apply_fir, frames, lowpass_length, tiles,
                        window_ms_to_samples)
from garble.features import (_BLOCK_FRAMES, _LOG_FLOOR, FeatureConfig, _dct_rows,
                             FeatureMatrix, extract_features, feature_distance,
                             mel_energies, mel_filterbank, spectrum)
from garble.perturb import PerturbationParams, apply_params, check_params, hfa, rpg, tdi, ts
from garble.vad import _percentile, detect_speech, frame_energies
from oracles import (
    apply_fir_direct,
    detect_speech_loop,
    generic_attack_eager,
    improved_attack_eager,
    rpg_loop,
    stft_one_shot,
    tdi_loop,
    vad_energies_loop,
)
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
@example(n=7, length=3, hop=3, seed=0)  # two full frames and a one-sample tail
@example(n=7, length=9, hop=3, seed=0)  # a window longer than the input
def test_frames_matches_definition(n, length, hop, seed):
    x = signal(n, seed)
    view = frames(x, length, hop)
    want = [x[i:i + length] for i in range(0, n - length + 1, hop)]
    assert view.shape == (len(want), length)
    assert all(np.array_equal(row, ref) for row, ref in zip(view, want))
    assert not view.flags.writeable
    # tiles: full windows, then at most one shorter one-row remainder, on
    # contiguous input and on a strided view of every other sample
    for y in (x, signal(2 * n, seed)[::2]):
        blocks = tiles(y, length)
        assert np.concatenate([b.ravel() for b in blocks]).tobytes() == y.tobytes()
        assert len(blocks) == 1 + (n % length > 0)
        assert blocks[0].shape == (n // length, length)
        assert all(b.shape == (1, n % length) for b in blocks[1:])
        assert not any(b.flags.writeable for b in blocks)


@bounded
@given(window_ms=st.floats(), rate=st.integers(1, 192_000))
@example(window_ms=20.0, rate=16000)
@example(window_ms=0.0, rate=16000)
@example(window_ms=-1.0, rate=16000)
@example(window_ms=math.nan, rate=16000)
@example(window_ms=-math.inf, rate=16000)
@example(window_ms=5e-324, rate=192_000)  # the least subnormal: one sample
@example(window_ms=6e17, rate=16000)      # past sys.maxsize samples
@example(window_ms=1e17, rate=16000)      # under sys.maxsize, but not its byte stride
@example(window_ms=1e306, rate=16000)     # the count is inf
@example(window_ms=1.7976931348623157e308, rate=1)
def test_window_ms_to_samples_counts_or_raises_value_error(window_ms, rate):
    # any float, NaN, infinities and subnormals included: the count of the
    # definition, or ValueError, never another exception
    try:
        got = window_ms_to_samples(window_ms, rate)
    except ValueError:
        # a window of up to 1e12 ms (31 years) always has a count
        assert not 0 < window_ms <= 1e12
        return
    assert 0 < window_ms < math.inf
    assert got == max(1, round(window_ms * rate / 1000))
    # a count it returns can stride over float64 samples
    assert frames(np.zeros(1), got, got).shape == (0 if got > 1 else 1, got)


@bounded
@given(n=lengths, window_ms=windows_ms, seed=seeds)
@example(n=7, window_ms=3 * 1000 / SR, seed=0)  # two windows and a one-sample tail
@example(n=100, window_ms=1000 / SR, seed=0)    # one-sample windows
@example(n=50, window_ms=64 * 1000 / SR, seed=0)  # one window past the clip
def test_rpg_matches_window_loop(n, window_ms, seed):
    # tdi too: each window, and the shorter tail, reversed in place
    x = signal(n, seed)
    w = window_ms_to_samples(window_ms, SR)
    got = rpg(AudioBuffer(x, SR), window_ms, seed).samples
    assert got.tobytes() == rpg_loop(x, w, seed).tobytes()
    assert tdi(AudioBuffer(x, SR), window_ms).samples.tobytes() == tdi_loop(x, w).tobytes()


@bounded
@given(n=lengths, frame_len=st.integers(1, 600), seed=seeds)
def test_vad_energies_match_frame_loop(n, frame_len, seed):
    x = signal(n, seed)
    assert frame_energies(x, frame_len).tobytes() == vad_energies_loop(x, frame_len).tobytes()


@bounded
@given(n=st.integers(1, 2000), distinct=st.integers(1, 2000), zeros=st.booleans(), seed=seeds)
@example(n=1, distinct=1, zeros=False, seed=0)     # a single value
@example(n=11, distinct=3, zeros=True, seed=0)     # ties and zeros
@example(n=2000, distinct=2000, zeros=False, seed=0)
def test_vad_percentile_is_numpys_bit_for_bit(n, distinct, zeros, seed):
    # energies-like values: non-negative, drawn from `distinct` levels so
    # that small level counts give ties, with zeros mixed in on request
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, distinct)[rng.integers(0, distinct, n)] ** 4
    if zeros:
        values[rng.random(n) < 0.3] = 0.0
    want = np.percentile(values, 10)
    assert np.float64(_percentile(values, 10)).tobytes() == want.tobytes()


@bounded
@given(n_a=st.integers(1, 300), n_b=st.integers(1, 300), width=st.integers(1, 40), seed=seeds)
@example(n_a=1, n_b=1, width=1, seed=0)
def test_feature_distance_is_the_mean_of_frame_norms_bit_for_bit(n_a, n_b, width, seed):
    rng = np.random.default_rng(seed)
    a, b = (FeatureMatrix(rng.normal(0.0, 10.0, (rows, width)), FeatureConfig(), SR)
            for rows in (n_a, n_b))
    n = min(n_a, n_b)
    want = float(np.mean(np.linalg.norm(a.data[:n] - b.data[:n], axis=1)))
    assert np.float64(feature_distance(a, b)).tobytes() == np.float64(want).tobytes()


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
@example(n=2, factor=150.0, seed=0)  # the last k*s is n - 0.5 and rounds up to n
@example(n=8, factor=250.0, seed=0)
@example(n=17, factor=110.0, seed=0)  # 15 * 1.1 rounds to 16.5 in floats
def test_ts_length_and_selection_law(n, factor, seed):
    x = signal(n, seed)
    out = ts(AudioBuffer(x, SR), factor).samples
    s = factor / 100.0
    assert len(out) == math.floor((n - 0.5) / s) + 1
    # sample round(k*s), clamped to the last when k*s rounds up to n
    idx = [min(round(k * s), n - 1) for k in range(len(out))]
    assert out.tobytes() == x[idx].tobytes()
    # no further sample fits, in exact arithmetic on the stored s
    assert round(Fraction(len(out)) * Fraction(s)) >= n


def raised(call):
    """The ValueError call raises, as (type, message), or None."""
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


maybe_floats = st.none() | st.floats() | st.sampled_from([1.0, 150.0])


@bounded
@given(params=st.builds(PerturbationParams, tdi_window_ms=maybe_floats,
                        rpg_window_ms=maybe_floats, rpg_seed=st.integers(-2, 2**64),
                        hfa_components=st.lists(st.tuples(st.floats(), st.floats()),
                                                max_size=2).map(tuple),
                        ts_factor_percent=maybe_floats),
       n=st.integers(0, 50), rate=st.sampled_from([8000, 16000, 48000]))
@example(params=PerturbationParams(tdi_window_ms=3.0, ts_factor_percent=50.0), n=50, rate=SR)
@example(params=PerturbationParams(hfa_components=((9000.0, 0.1),)), n=50, rate=SR)
@example(params=PerturbationParams(tdi_window_ms=1e306), n=50, rate=SR)
@example(params=PerturbationParams(rpg_window_ms=1.0, rpg_seed=-1), n=50, rate=SR)
@example(params=PerturbationParams(hfa_components=((1000.0, 1e308), (1000.0, 1e308))),
         n=50, rate=SR)  # finite amplitudes whose mix is not
def test_check_params_raises_what_apply_params_raises(params, n, rate):
    # the same rules, in the same order, for any clip in [-1, 1] at the rate
    audio = AudioBuffer(signal(n, n), rate)
    assert raised(lambda: check_params(params, rate)) == raised(
        lambda: apply_params(audio, params))


# --- FFT FIR against direct convolution -----------------------------------------

# the 1601-tap band-pass of simulate
HARSH_TAPS = _band_taps(PRESETS["harsh"].band_low, PRESETS["harsh"].band_high, SR)
odd_taps = st.just(HARSH_TAPS) | st.builds(
    lambda half, seed: np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * half + 1),
    st.integers(0, 400), seeds)


@bounded
@given(n=st.integers(1, 3000), taps=odd_taps, seed=seeds)
# the FFT size is _fast_len(n + 800) for the harsh taps: exactly n + 800 =
# 25000 at n = 24200, and shorter than the 1601 taps, which rfft crops,
# below n = 801
@example(n=24200, taps=HARSH_TAPS, seed=0)
@example(n=1, taps=HARSH_TAPS, seed=1)
@example(n=5, taps=HARSH_TAPS, seed=5)
@example(n=799, taps=HARSH_TAPS, seed=799)
def test_apply_fir_matches_direct_convolution(n, taps, seed):
    # FFT convolution cannot be bit-exact; its rounding error scales with
    # the largest possible output, sum|taps| * max|x|
    x = signal(n, seed)
    got, want = apply_fir(x, taps), apply_fir_direct(x, taps)
    assert len(got) == len(want) == n
    bound = 1e-12 * np.sum(np.abs(taps)) * np.max(np.abs(x))
    assert np.max(np.abs(got - want)) <= bound


@pytest.fixture(scope="module")
def scipy_fft():
    # scipy is a test-only dependency. Skipping in the fixture, before
    # hypothesis runs, keeps hypothesis from reporting the skipped explicit
    # example as falsifying
    return pytest.importorskip("scipy.fft")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 30000))
@example(n=24000 + 1601 - 1)  # 1.5 s at 16 kHz through the harsh band's 1601 taps
def test_fast_len_is_scipy_next_fast_len(scipy_fft, n):
    # scipy is the oracle for the FFT size
    assert _fast_len(n) == scipy_fft.next_fast_len(n, real=True)


def test_harsh_simulate_wav_bytes_match_direct_convolution(monkeypatch):
    inputs = [AudioBuffer(0.5 * signal(n, n), SR) for n in (1, 300, 1601, 4000, 24000)]
    inputs.append(band_noise(31, duration_s=1.5))

    def aired_wavs():
        return [write_wav(simulate(x, PRESETS["harsh"])[0]) for x in inputs]

    fft = aired_wavs()
    calls = []

    def counted_direct(x, taps):
        calls.append(len(x))
        return apply_fir_direct(x, taps)

    monkeypatch.setattr("garble.channel.apply_fir", counted_direct)
    assert aired_wavs() == fft
    assert calls == [len(x) for x in inputs]  # simulate went through the patched name


@bounded
@given(rate=st.sampled_from((8000, 16000, 22050, 44100, 48000)),
       low=st.floats(0.001, 0.499), high=st.floats(0.5, 0.999),
       sides=st.sampled_from(("low", "high", "both")))
def test_band_taps_length_is_the_longer_edge_length(rate, low, high, sides):
    # edges as fractions of Nyquist; the tap count is the larger of the two
    # edges' lowpass_length, as when each edge was sized on its own
    low = 0.0 if sides == "high" else low * rate / 2.0
    high = None if sides == "low" else high * rate / 2.0
    want = max(lowpass_length(high, rate) if high is not None else 1,
               lowpass_length(low, rate) if low > 0.0 else 1)
    assert len(_band_taps(low, high, rate)) == want


# --- the channel's noise step, and the empty clip -------------------------------

FLOAT32_MAX = float(np.finfo(np.float32).max)  # the loudest sample read_wav returns


@bounded
@given(n=lengths, seed=seeds, peak=st.floats(0.0, FLOAT32_MAX),
       rate=st.sampled_from((8000, 16000, 22050, 44100, 48000)),
       band=st.sampled_from([(c.band_low, c.band_high) for c in PRESETS.values()]),
       snr_db=st.floats(-3080.0, 60.0) | st.just(math.inf), taps=st.integers(0, 8),
       decay=st.floats(0.0, 1.0), delay_ms=st.floats(1.0, 20.0))
@example(n=4000, seed=0, peak=FLOAT32_MAX, rate=16000, band=(100.0, 7000.0),
         snr_db=-3080.0, taps=8, decay=1.0, delay_ms=1.0)
@example(n=1, seed=1, peak=FLOAT32_MAX, rate=16000, band=(0.0, None),
         snr_db=-3080.0, taps=0, decay=0.0, delay_ms=1.0)
def test_simulate_output_is_finite_and_in_full_scale(n, seed, peak, rate, band, snr_db,
                                                     taps, decay, delay_ms):
    # float32 samples up to float32 max, through the band, any reverb and
    # noise at any SNR the config accepts
    x = (signal(n, seed) * peak).astype(np.float32)
    config = ChannelConfig(band_low=band[0], band_high=band[1], snr_db=snr_db, seed=seed,
                           reverb_taps=taps, reverb_decay=decay, reverb_delay_ms=delay_ms)
    try:
        out, scale = simulate(AudioBuffer(x, rate), config)
    except ValueError as exc:
        # the one rule left to break here: the band's top edge past Nyquist
        assert "Nyquist" in str(exc) and band[1] > rate / 2
        return
    assert len(out) == n and np.all(np.isfinite(out.samples))
    assert np.max(np.abs(out.samples), initial=0.0) <= 1.0
    assert 0.0 < scale <= 1.0


FLOAT64_MAX = float(np.finfo(np.float64).max)


class AcceptsAll(TranscriberBackend):
    def _evaluate(self, audio):
        return True, ""


def concatenated(x):
    """improved_attack's one accepted candidate over the two halves of x:
    their tdi renders, concatenated."""
    halves = [AudioBuffer(h, x.sample_rate) for h in np.array_split(x.samples, 2)]
    found = improved_attack(halves, 1, AcceptsAll(), [PerturbationParams(tdi_window_ms=1.0)])
    return found.audio


# every transform of the package, as (audio, amp) -> AudioBuffer, where amp
# is an hfa tone amplitude; each whole-package law below runs on every row
TRANSFORMS = {
    "tdi": lambda x, amp: tdi(x, 1.0),
    "rpg": lambda x, amp: rpg(x, 1.0, seed=3),
    "hfa": lambda x, amp: hfa(x, ((7500.0, amp), (3000.0, amp / 2)))[0],
    "ts": lambda x, amp: ts(x, 150.0),
    "apply_params": lambda x, amp: apply_params(x, PerturbationParams(
        tdi_window_ms=1.0, rpg_window_ms=1.0, hfa_components=((7500.0, amp),),
        ts_factor_percent=150.0)),
    "canonicalize": lambda x, amp: canonicalize(AudioBuffer(x.samples, 48000)),
    "wav-roundtrip": lambda x, amp: read_wav(write_wav(x)),
    "apply_fir": lambda x, amp: AudioBuffer(apply_fir(x.samples, HARSH_TAPS), x.sample_rate),
    "apply_fir-1-tap": lambda x, amp: AudioBuffer(apply_fir(x.samples, np.ones(1)),
                                                  x.sample_rate),
    "simulate-transparent": lambda x, amp: simulate(x, PRESETS["transparent"])[0],
    "simulate-harsh": lambda x, amp: simulate(x, PRESETS["harsh"])[0],
    "improved_attack-concatenation": lambda x, amp: concatenated(x),
}
every_transform = pytest.mark.parametrize("path", TRANSFORMS.values(), ids=TRANSFORMS.keys())


@every_transform
def test_an_empty_clip_stays_empty(path):
    # each transform's general rule gives an empty clip for an empty one,
    # and the VAD finds no speech in it
    out = path(AudioBuffer(np.zeros(0), 48000), 0.1)
    assert isinstance(out, AudioBuffer) and len(out) == 0
    assert detect_speech(out) == []


@every_transform
def test_no_transform_writes_into_its_input(path):
    # buffers are immutable by convention, and a transform may return its
    # input itself, so the input's samples must come back as they went in
    x = AudioBuffer(0.5 * signal(1600, 23), SR)
    kept = x.samples.copy()
    path(x, 0.1)
    assert x.samples.tobytes() == kept.tobytes()


@every_transform
@bounded
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200),
       amp=st.floats(0.0, 2e300 / 3))
@example(values=[FLOAT64_MAX] * 40, amp=2e300 / 3)
@example(values=[FLOAT64_MAX, -FLOAT64_MAX] * 20, amp=0.0)
@example(values=[-FLOAT64_MAX, 0.5, 1e-300, FLOAT64_MAX / 3] * 10, amp=1.0)
def test_every_transform_returns_finite_samples_or_raises_value_error(path, values, amp):
    # samples anywhere in the float64 range: each transform either raises
    # ValueError or returns a buffer the public constructor would accept,
    # whether or not it ran that constructor's scan; the overflows that
    # lead to a ValueError warn, which is expected here
    x = AudioBuffer(np.array(values, dtype=np.float64), SR)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = path(x, amp)
        except ValueError:
            return
    assert isinstance(out, AudioBuffer) and type(out.sample_rate) is int
    assert out.samples.dtype == np.float64 and out.samples.ndim == 1
    assert np.all(np.isfinite(out.samples))


# --- the blocked feature spectrum against the one-shot STFT ---------------------

# frame counts around the block size: one frame, a frame short of a block,
# one block, a block and a frame, and three blocks and a one-frame tail;
# spare % hop samples past the last frame start no further frame. One span
# of the clip, given as fractions of its length, is zeroed with +0.0 or
# -0.0: none, a leading, an inner or a trailing span, or the whole clip, so
# that runs of all-zero frames, which the front end skips, fall anywhere.
fractions = st.floats(0.0, 1.0)
front_ends = dict(
    rate=st.sampled_from((8000, 16000, 44100)),
    n_frames=st.sampled_from((1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1,
                              3 * _BLOCK_FRAMES + 1)),
    spare=st.integers(0, 440), seed=seeds,
    window=st.sampled_from(("hamming", "rectangular")), use_power=st.booleans(),
    pre_emphasis=st.sampled_from((0.0, 0.97)), include_dct=st.booleans(),
    zeroed=st.one_of(st.just((0.0, 0.0)), st.tuples(st.just(0.0), fractions),
                     st.tuples(fractions, fractions).map(sorted),
                     st.tuples(fractions, st.just(1.0)), st.just((0.0, 1.0))),
    zero=st.sampled_from((0.0, -0.0)))


def front_end_case(rate, n_frames, spare, seed, window, use_power, pre_emphasis,
                   include_dct, zeroed, zero):
    """(audio, config, one-shot STFT, mel bank) for one drawn front end."""
    config = FeatureConfig(analysis_window=window, use_power=use_power,
                           pre_emphasis=pre_emphasis, include_dct=include_dct)
    frame_len = window_ms_to_samples(config.frame_ms, rate)
    hop = window_ms_to_samples(config.hop_ms, rate)
    x = signal(frame_len + (n_frames - 1) * hop + spare % hop, seed)
    lo, hi = (round(f * len(x)) for f in zeroed)
    x[lo:hi] = zero
    want = stft_one_shot(x, rate, window=window, use_power=use_power,
                         pre_emphasis=pre_emphasis)
    bank = mel_filterbank(config.n_filters, 2 * (want.shape[1] - 1), rate)
    return AudioBuffer(x, rate), config, want, bank


def live_runs(audio, config):
    """(first, stop) of each run of frames that hold a nonzero sample once
    pre-emphasized, stop exclusive, found by a per-frame loop."""
    x = audio.samples
    if config.pre_emphasis:
        x = np.concatenate([[x[0]], x[1:] - config.pre_emphasis * x[:-1]])
    frame_len = window_ms_to_samples(config.frame_ms, audio.sample_rate)
    hop = window_ms_to_samples(config.hop_ms, audio.sample_rate)
    live = [bool(np.any(x[s:s + frame_len])) for s in range(0, len(x) - frame_len + 1, hop)]
    runs, first = [], None
    for i, flag in enumerate(live + [False]):
        if flag and first is None:
            first = i
        elif not flag and first is not None:
            runs.append((first, i))
            first = None
    return runs


def log_mel_rows(energies, config):
    rows = np.log(np.maximum(energies, _LOG_FLOOR))
    if config.include_dct:
        rows = rows @ _dct_rows(config.n_coefficients, config.n_filters).T
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(**front_ends)
def test_blocked_spectrum_and_features_match_the_one_shot_stft(**case):
    audio, config, want, bank = front_end_case(**case)
    got = spectrum(audio, config)
    assert got.shape == want.shape == (case["n_frames"], want.shape[1])
    assert got.tobytes() == want.tobytes()
    # the rest of the pipeline: within each run of frames that hold a
    # nonzero sample, one product per block of at most _BLOCK_FRAMES rows of
    # the one-shot matrix, and zero energies everywhere else
    energies = np.zeros((len(want), config.n_filters))
    for first, stop in live_runs(audio, config):
        for i in range(first, stop, _BLOCK_FRAMES):
            rows = want[i:min(i + _BLOCK_FRAMES, stop)]
            energies[i:i + len(rows)] = rows @ bank.T
    assert mel_energies(audio, config).tobytes() == energies.tobytes()
    assert extract_features(audio, config).data.tobytes() == \
        log_mel_rows(energies, config).tobytes()


# Against |X| squared and one product of the whole matrix, the arithmetic
# before the front end streamed. |X| is np.hypot to within an ulp, so its
# square differs from re^2 + im^2 by at most 7 roundings of 2**-53
# (7.8e-16) relative. 900 random clips and configs (8, 16 and 44.1 kHz,
# both windows, power and magnitude, MFCC and MFSC, pre-emphasis on and
# off) measured at most 7.6e-16 on the power and 3.9e-15 * (1 + |v|) on the
# features; the bounds are 9 roundings and 1e-14 * (1 + |v|).
@settings(max_examples=120, deadline=None, derandomize=True)
@given(**front_ends)
def test_features_match_abs_squared_and_one_product_to_rounding(**case):
    audio, config, _, bank = front_end_case(**case)
    mags = stft_one_shot(audio.samples, audio.sample_rate, window=config.analysis_window,
                         use_power=False, pre_emphasis=config.pre_emphasis)
    want = mags ** 2 if config.use_power else mags
    got = spectrum(audio, config)
    assert np.all(np.abs(got - want) <= 9 * 2.0**-53 * want)
    rows = log_mel_rows(want @ bank.T, config)
    assert np.all(np.abs(extract_features(audio, config).data - rows)
                  <= 1e-14 * (1.0 + np.abs(rows)))


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


# the rate sets the FRAME_MS frame: 16, 80, 160 and 320 samples here, and
# 1 to 640 samples over 80 Hz to 64 kHz
@bounded
@given(n=lengths, seed=seeds, power=st.integers(-20, 20),
       rate=st.sampled_from([1600, 8000, 16000, 32000]))
def test_vad_regions_are_scale_covariant(n, seed, power, rate):
    # a power-of-two gain scales every energy, percentile and threshold
    # exactly, so the frame decisions cannot move
    x = bursts(n, seed)
    regions = detect_speech(AudioBuffer(x, rate))
    assert detect_speech(AudioBuffer(x * 2.0 ** power, rate)) == regions


@bounded
@given(n=lengths, seed=seeds, rate=st.integers(80, 64000))
def test_vad_regions_match_frame_loop(n, seed, rate):
    buf = AudioBuffer(bursts(n, seed), rate)
    assert detect_speech(buf) == detect_speech_loop(buf)


@bounded
@given(n=lengths, seed=seeds, rate=st.integers(1, 2**31 - 1))
def test_wav_roundtrip_keeps_rate_length_and_level(n, seed, rate):
    x = signal(n, seed)
    back = read_wav(write_wav(AudioBuffer(x, rate)))
    assert back.sample_rate == rate and len(back) == n
    # half a 16-bit step from x clipped to the highest code, 32767 / 32768
    assert np.all(np.abs(back.samples - np.minimum(x, 32767 / 32768)) <= 0.5 / 32768 + 1e-12)


@bounded
@given(values=st.lists(st.floats(-4.0, 4.0), max_size=400))
@example(values=[-4.0, -1.0, -0.5 / 32768, -0.0, 0.5 / 32768, 32767.5 / 32768, 1.0, 4.0])
def test_write_wav_payload_is_the_clipped_rounded_samples(values):
    # samples past full scale clip to the end codes, and the caller's
    # samples are left as they were
    x = np.array(values, dtype=np.float64)
    kept = x.copy()
    payload = write_wav(AudioBuffer(x, SR))[44:]
    assert payload == np.clip(np.round(x * 32768), -32768, 32767).astype("<i2").tobytes()
    assert x.tobytes() == kept.tobytes()


@bounded
@given(codes=st.lists(st.integers(-32768, 32767), max_size=400),
       rate=st.integers(1, 2**31 - 1))
@example(codes=[-32768, 32767, 0, -1, 1, 16384, -16384], rate=SR)
def test_pcm16_payload_reencodes_byte_for_byte(codes, rate):
    payload = struct.pack(f"<{len(codes)}h", *codes)
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    data = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVEfmt "
            + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(payload))
            + payload)
    assert write_wav(read_wav(data)) == data


manifest_floats = st.floats(allow_nan=False)
# the characters str.splitlines breaks a line at, as Python's docs list them
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@bounded
@given(name=st.text(max_size=20),
       params=st.builds(PerturbationParams,
                        tdi_window_ms=st.none() | manifest_floats,
                        rpg_window_ms=st.none() | manifest_floats,
                        rpg_seed=st.integers(0, 2**63),
                        hfa_components=st.lists(st.tuples(manifest_floats, manifest_floats),
                                                max_size=3).map(tuple),
                        ts_factor_percent=st.none() | manifest_floats))
@example(name="a\tb_0000.wav", params=PerturbationParams(tdi_window_ms=1.0))
@example(name="a b.wav", params=PerturbationParams())
@example(name="a\r", params=PerturbationParams())
@example(name="", params=PerturbationParams())
def test_manifest_line_roundtrip(name, params):
    # a name with a tab or a line break would not parse back, so it is refused
    if any(c in "\t" + LINE_BREAKS for c in name):
        with pytest.raises(ValueError, match="tab or a line break"):
            format_manifest_line(name, params)
        return
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
    """Everything search(backend) hands back, in comparable form: a
    report's query records, or the winner with its audio bytes."""
    try:
        result = search(backend)
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(result, AttackCandidate):
        return ("AttackCandidate", backend.queries_used, result.params,
                result.distortion_rank, result.verdict, result.audio.samples.tobytes())
    return ("ExhaustionReport", result.queries_used, backend.queries_used,
            [(c.params, c.distortion_rank, c.verdict) for c in result.candidates])


@attack_bounded
@given(schedule=schedules, budget=down_from(8, 1), cut=st.integers(0, len(POOL) + 1))
# schedules longer than the budget whose cut falls inside a tie: the lazy
# search, which renders only the budget's worth of points, must keep the
# tied point that comes first in the schedule, every query rejected or not
@example(schedule=[POOL[1], POOL[2], POOL[0]], budget=1, cut=0)
@example(schedule=[POOL[4], POOL[3], POOL[1], POOL[0]], budget=3, cut=0)
@example(schedule=[POOL[6], POOL[4], POOL[2], POOL[3], POOL[5]], budget=2, cut=0)
@example(schedule=[POOL[6], POOL[4], POOL[2], POOL[3], POOL[5]], budget=2, cut=len(POOL) + 1)
def test_generic_attack_matches_eager_reference(schedule, budget, cut):
    source = concat(words(201, 202))
    threshold = cuts(201, 202)[cut]
    lazy, eager = (outcome(lambda backend: search(source, backend, schedule),
                           MockOracle(source, "go", threshold, budget=budget))
                   for search in (generic_attack, generic_attack_eager))
    assert lazy == eager


@attack_bounded
@given(n=st.integers(1, 3), schedule=schedules, k=down_from(3, 1), budget=down_from(10, 1),
       cut=st.integers(0, len(POOL) + 1), word_cut=st.integers(0, 3 * len(POOL) + 1))
# a filter at 0 (one word has nine edges) keeps nothing of the lazily drawn word
@example(n=1, schedule=[POOL[6], POOL[0]], k=2, budget=10, cut=0, word_cut=8)
def test_improved_attack_matches_eager_reference(n, schedule, k, budget, cut, word_cut):
    # one word is queried as drawn, with no concatenation; with more, every
    # word is drawn lazily and the later words' drawn variants are kept
    seeds = (203, 204, 205)[:n]
    chosen = words(*seeds)
    threshold = cuts(*seeds)[cut]
    # per-word filter edges, inf first: any word's candidate distances and 0
    edges = sorted(set().union(*(cuts(seed) for seed in seeds)))
    feature_threshold = edges[-1 - word_cut % len(edges)]
    lazy, eager = (outcome(lambda backend: search(chosen, k, backend, schedule,
                                                  feature_threshold=feature_threshold),
                           MockOracle(concat(chosen), "go", threshold, budget=budget))
                   for search in (improved_attack, improved_attack_eager))
    assert lazy == eager
