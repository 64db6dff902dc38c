"""Acceptance suite: twelve go/no-go checks over the whole toolkit.

Each test prints a single [AC-nn] PASS/FAIL line (run with -s to watch) and
enforces its own wall-clock budget. Numerical checks compare against the
independent oracles in oracles.py, never against the implementation itself.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from garble.attack import AttackCandidate, MockOracle, generic_attack
from garble.audio_io import AudioBuffer, read_wav, write_wav
from garble.channel import PRESETS, ChannelConfig, simulate
from garble.cli import main
from garble.dsp import low_pass
from garble.features import FeatureConfig, extract_features, mel_energies
from garble.perturb import (
    PerturbationParams,
    apply_params,
    hfa,
    rpg,
    tdi,
    tdi_probe_schedule,
    ts,
)
from garble.vad import detect_speech
from oracles import direct_idft, direct_rfft, direct_window_mags, mfcc_reference
from synth import band_noise, burst_fixture


@contextmanager
def criterion(num, title, budget_s):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        print(f"[AC-{num:02d}] FAIL {title}")
        raise
    print(f"[AC-{num:02d}] PASS {title} ({elapsed:.2f}s)")


@lru_cache(maxsize=None)
def fixture(seed):
    return band_noise(seed, duration_s=1.0)


@lru_cache(maxsize=None)
def probe_distances(seed, axis):
    """Feature distance from fixture(seed) to each scheduled probe."""
    ref = fixture(seed)
    gauge = MockOracle(ref, "x", threshold=0.0, budget=1)
    dists = []
    for p in tdi_probe_schedule():
        if axis == "rpg":
            p = PerturbationParams(rpg_window_ms=p.tdi_window_ms, rpg_seed=0)
        dists.append(gauge.distance_to_reference(apply_params(ref, p)))
    return tuple(dists)


SCHEDULE_WINDOWS = tuple(1.0 + 0.5 * i for i in range(10))


def test_ac01_tdi_involution():
    with criterion(1, "tdi is an exact involution", 5.0):
        rng = np.random.default_rng(1001)
        cases = [(48000, 4000), (5, 7), (1, 1), (4000, 4000)]
        while len(cases) < 200:
            cases.append((int(rng.integers(1, 48001)), int(rng.integers(1, 4001))))
        for n, w in cases:
            buf = AudioBuffer(rng.uniform(-1.0, 1.0, n), 16000)
            window_ms = w * 1000.0 / 16000.0
            again = tdi(tdi(buf, window_ms), window_ms)
            assert np.array_equal(again.samples, buf.samples), (n, w)


def test_ac02_rpg_magnitude_preservation():
    with criterion(2, "rpg preserves per-window magnitudes", 10.0):
        rng = np.random.default_rng(1002)
        window_pool = [3, 16, 23, 64, 128, 320, 512]
        for case in range(100):
            n = int(rng.integers(64, 8001))
            w = int(window_pool[case % len(window_pool)])
            buf = AudioBuffer(rng.uniform(-1.0, 1.0, n), 16000)
            out = rpg(buf, w * 1000.0 / 16000.0, seed=case)
            got = direct_window_mags(out.samples, w)
            want = direct_window_mags(buf.samples, w)
            assert len(got) == len(want)
            for g, t in zip(got, want):
                scale = max(1e-12, float(np.max(t)))
                assert np.max(np.abs(g - t)) <= 1e-6 * scale, (n, w)
            # reconstruction residue: the output window must be a valid real
            # signal, i.e. its spectrum round-trips with negligible imaginary
            seg = out.samples[: min(w, n)]
            back = direct_idft(direct_rfft(seg, len(seg)), len(seg))
            peak = max(1e-12, float(np.max(np.abs(seg))))
            assert np.max(np.abs(back.imag)) <= 1e-9 * peak


def test_ac03_hfa_reversible_by_lowpass():
    with criterion(3, "hfa tone strips off under a low-pass", 2.0):
        # 24 kHz so a 9 kHz tone sits legally below Nyquist
        sr = 24000
        content = band_noise(1003, duration_s=1.0, sr=sr, lo_hz=300.0,
                             hi_hz=4000.0, amp=0.5)
        mixed, scale = hfa(content, ((9000.0, 0.25),))
        assert scale == 1.0
        recovered = low_pass(mixed, 7500.0)
        trim = 200
        ref = AudioBuffer(content.samples[trim:-trim], sr)
        got = AudioBuffer(recovered.samples[trim:-trim], sr)
        residual = got.samples - ref.samples
        snr = 10.0 * np.log10(np.mean(ref.samples ** 2) / np.mean(residual ** 2))
        assert snr >= 30.0, snr


def test_ac04_ts_length_law():
    with criterion(4, "ts length law and identity", 1.0):
        rng = np.random.default_rng(1004)
        n = 16000
        buf = AudioBuffer(rng.uniform(-1.0, 1.0, n), 16000)
        for factor in [100.0, 150.0, 200.0, 300.0]:
            out = ts(buf, factor)
            assert abs(len(out) - int(np.ceil(n * 100.0 / factor))) <= 1
        assert np.array_equal(ts(buf, 100.0).samples, buf.samples)


def test_ac05_mfcc_oracle_equivalence():
    with criterion(5, "mfcc matches the brute-force oracle", 30.0):
        rng = np.random.default_rng(1005)
        for clip in range(10):
            if clip % 2 == 0:
                buf = AudioBuffer(rng.uniform(-0.35, 0.35, 16000), 16000)
            else:
                buf = fixture(300 + clip)
            feats = extract_features(buf)
            assert feats.n_frames == 99
            want = mfcc_reference(buf.samples, 16000)
            assert np.max(np.abs(feats.data - want)) <= 1e-6


def test_ac06_feature_preservation_aligned():
    with criterion(6, "aligned tdi/rpg leave mel energies intact", 10.0):
        for seed in (1, 2):
            buf = fixture(seed)
            # tdi under hamming with hop = frame = window (20 ms)
            config = FeatureConfig(frame_ms=20.0, hop_ms=20.0)
            base = mel_energies(buf, config)
            shifted = mel_energies(tdi(buf, 20.0), config)
            rel = np.abs(shifted - base).max(axis=1) / base.max(axis=1)
            assert np.max(rel) <= 1e-6
            # rpg under a rectangular window; 32 ms = 512 samples, so the
            # analysis frame needs no zero padding and magnitudes carry over
            config = FeatureConfig(frame_ms=32.0, hop_ms=32.0,
                                   analysis_window="rectangular")
            base = mel_energies(buf, config)
            shifted = mel_energies(rpg(buf, 32.0, seed=9), config)
            rel = np.abs(shifted - base).max(axis=1) / base.max(axis=1)
            assert np.max(rel) <= 1e-5


def test_ac07_mock_attack_query_economics():
    with criterion(7, "attack lands in <= 10 queries, tuned case in 3", 60.0):
        ref = fixture(1)
        dists = probe_distances(1, "tdi")
        schedule = tdi_probe_schedule()
        # tuned threshold: first acceptance exactly at the 2.0 ms probe
        assert dists[2] < min(dists[0], dists[1])
        tuned = (dists[2] + min(dists[0], dists[1])) / 2.0
        backend = MockOracle(ref, "open the door", tuned)
        result = generic_attack(ref, backend, schedule)
        assert isinstance(result, AttackCandidate)
        assert result.params.tdi_window_ms == 2.0
        assert result.verdict.query_index == 3
        assert backend.queries_used == 3

        rng = np.random.default_rng(1007)
        for _ in range(20):
            threshold = float(rng.uniform(min(dists), max(dists)))
            backend = MockOracle(ref, "open the door", threshold)
            result = generic_attack(ref, backend, schedule)
            assert isinstance(result, AttackCandidate), threshold
            assert result.verdict.query_index <= 10


def test_ac08_monotone_acceptance_in_window():
    with criterion(8, "acceptance is upward-closed in window size", 60.0):
        rng = np.random.default_rng(1008)
        for seed in (1, 2, 3):
            dists = np.array(probe_distances(seed, "rpg"))
            lo, hi = float(dists.min()), float(dists.max())
            for threshold in rng.uniform(0.9 * lo, 1.1 * hi, 20):
                flags = dists <= threshold
                first = int(np.argmax(flags)) if flags.any() else len(flags)
                assert flags[first:].all(), (seed, threshold, flags)
            # bind the flags to live oracle verdicts once per fixture
            ref = fixture(seed)
            mid = (lo + hi) / 2.0
            backend = MockOracle(ref, "x", mid, budget=10)
            verdicts = []
            for w in SCHEDULE_WINDOWS:
                probe = apply_params(ref, PerturbationParams(rpg_window_ms=w))
                verdicts.append(backend.transcribe(probe).accepted)
            assert verdicts == list(dists <= mid)


def _overlap(regions, spans):
    total = 0.0
    for a, b in spans:
        for r in regions:
            total += max(0.0, min(b, r.end_s) - max(a, r.start_s))
    return total


def test_ac09_vad_finds_speech_in_attack_audio():
    with criterion(9, "vad recalls >= 90% of speech in 36 attack files", 30.0):
        variants = (
            [PerturbationParams(tdi_window_ms=w) for w in (1.0, 2.0, 4.0)]
            + [PerturbationParams(rpg_window_ms=w) for w in (1.0, 2.0, 4.0)]
            + [PerturbationParams(hfa_components=((7500.0, a),))
               for a in (0.05, 0.1, 0.25)]
            + [PerturbationParams(ts_factor_percent=f) for f in (150.0, 200.0, 300.0)]
        )
        checked = 0
        for seed in (201, 202, 203):
            clean, spans = burst_fixture(seed)
            for params in variants:
                attacked = apply_params(clean, params)
                if params.ts_factor_percent:
                    s = params.ts_factor_percent / 100.0
                    true_spans = [(a / s, b / s) for a, b in spans]
                else:
                    true_spans = list(spans)
                regions = detect_speech(attacked)
                want = sum(b - a for a, b in true_spans)
                recall = _overlap(regions, true_spans) / want
                assert recall >= 0.90, (seed, params, recall)
                checked += 1
        assert checked == 36


def test_ac10_channel_snr_calibration():
    with criterion(10, "channel hits requested snr within 1 dB", 5.0):
        buf = fixture(4)
        for target in [10.0, 20.0, 30.0]:
            out, scale = simulate(buf, ChannelConfig(snr_db=target, seed=11))
            assert scale == 1.0
            residual = out.samples - buf.samples
            got = 10.0 * np.log10(
                np.mean(buf.samples ** 2) / np.mean(residual ** 2))
            assert abs(got - target) <= 1.0, (target, got)
        out, scale = simulate(buf, PRESETS["transparent"])
        assert scale == 1.0
        assert np.array_equal(out.samples, buf.samples)


def test_ac11_cli_sweep_determinism(tmp_path):
    with criterion(11, "cli sweep is byte-deterministic", 10.0):
        src = tmp_path / "cmd.wav"
        src.write_bytes(write_wav(band_noise(1011, duration_s=0.5)))
        flags = ["--tdi-ms-range", "1.0:3.0:0.5", "--rpg-ms-range", "2.0:3.0:1.0",
                 "--ts-range", "150:300:150", "--seed", "6"]
        assert main(["sweep", str(src), str(tmp_path / "a")] + flags) == 0
        assert main(["sweep", str(src), str(tmp_path / "b")] + flags) == 0
        a = sorted(p for p in (tmp_path / "a").iterdir())
        b = sorted(p for p in (tmp_path / "b").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        assert len(a) == 5 * 2 * 2 + 1  # grid points plus manifest
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name
        # and the written audio really decodes
        some = read_wav((tmp_path / "a" / "cmd_0000.wav").read_bytes())
        assert some.sample_rate == 16000


def test_ac12_harsh_channel_needs_larger_windows():
    with criterion(12, "harsh channel shifts acceptance to larger windows", 60.0):
        for seed in (1, 2, 3):
            ref = fixture(seed)
            gauge = MockOracle(ref, "x", threshold=0.0, budget=1)
            d_line, d_harsh = [], []
            for w in SCHEDULE_WINDOWS:
                probe = apply_params(ref, PerturbationParams(tdi_window_ms=w))
                d_line.append(gauge.distance_to_reference(probe))
                aired, _ = simulate(probe, PRESETS["harsh"])
                d_harsh.append(gauge.distance_to_reference(aired))
            d_line = np.array(d_line)
            d_harsh = np.array(d_harsh)
            # the simulated room only ever makes candidates look worse
            assert np.all(d_harsh > d_line), seed

            threshold = (d_harsh.max() + d_harsh.min()) / 2.0
            accept_line = d_line <= threshold
            accept_harsh = d_harsh <= threshold
            for flags in (accept_line, accept_harsh):
                first = int(np.argmax(flags)) if flags.any() else len(flags)
                assert flags[first:].all(), (seed, flags)
            assert accept_line.any() and accept_harsh.any()
            first_line = int(np.argmax(accept_line))
            first_harsh = int(np.argmax(accept_harsh))
            # over the air the smallest surviving window is never smaller
            assert first_harsh >= first_line, seed
            # and every harsh survivor also survives over the line
            assert np.all(accept_line[accept_harsh]), seed
