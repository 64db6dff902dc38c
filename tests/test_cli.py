import contextlib
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import garble
from garble.attack import BackendError, TranscriberBackend
from garble.audio_io import AudioBuffer, read_wav, write_wav
from garble.channel import PRESETS
from garble.cli import (
    build_parser,
    format_manifest_line,
    main,
    parse_float_range,
    parse_hfa,
    parse_manifest_line,
)
from garble.features import extract_features
from garble.perturb import (PerturbationParams, apply_params, expand_grid, ParamGrid,
                            tdi_probe_schedule)
from synth import band_noise, burst_fixture, random_buffer, sine_buffer


# --- argument micro-parsers ---------------------------------------------------


def test_parse_float_range():
    assert parse_float_range("1.0:3.0:0.5") == (1.0, 1.5, 2.0, 2.5, 3.0)
    assert parse_float_range("2:2:1") == (2.0,)
    assert parse_float_range("150:300:150") == (150.0, 300.0)
    with pytest.raises(ValueError):
        parse_float_range("1:2")
    with pytest.raises(ValueError):
        parse_float_range("3:1:0.5")
    with pytest.raises(ValueError):
        parse_float_range("1:3:0")
    for text in ("0:1e300:1e-300", "-1e308:1e308:1"):  # the count overflows
        with pytest.raises(ValueError, match="too many points"):
            parse_float_range(text)


def test_parse_hfa():
    assert parse_hfa("7500:0.1") == ((7500.0, 0.1),)
    assert parse_hfa("6000:0.1,7500:0.25") == ((6000.0, 0.1), (7500.0, 0.25))
    with pytest.raises(ValueError):
        parse_hfa("7500")
    with pytest.raises(ValueError):
        parse_hfa("a:b")


def test_manifest_roundtrip():
    cases = [
        PerturbationParams(),
        PerturbationParams(tdi_window_ms=1.5),
        PerturbationParams(rpg_window_ms=2.5, rpg_seed=9),
        PerturbationParams(tdi_window_ms=0.1 + 0.2,  # not exactly 0.3
                           hfa_components=((7500.123, 0.0625),),
                           ts_factor_percent=150.0),
    ]
    for params in cases:
        line = format_manifest_line("clip_0000.wav", params)
        name, parsed = parse_manifest_line(line + "\n")
        assert name == "clip_0000.wav"
        assert parsed == params  # repr floats survive exactly
    with pytest.raises(ValueError):
        parse_manifest_line("f.wav\tvolume=2")


# --- subcommands ----------------------------------------------------------------


def test_perturb_no_flags_copies_audio(tmp_path, wav_on_disk, capsys):
    buf = band_noise(90, duration_s=0.3)
    src = wav_on_disk(buf)
    dst = tmp_path / "out.wav"
    assert main(["perturb", str(src), str(dst)]) == 0
    assert dst.read_bytes() == write_wav(read_wav(src.read_bytes()))


def test_perturb_matches_library(tmp_path, wav_on_disk):
    buf = band_noise(91, duration_s=0.3)
    src = wav_on_disk(buf)
    dst = tmp_path / "out.wav"
    assert main(["perturb", str(src), str(dst), "--tdi-ms", "2.0",
                 "--ts", "150", "--seed", "7", "--rpg-ms", "1.0"]) == 0
    loaded = read_wav(src.read_bytes())
    want = apply_params(loaded, PerturbationParams(
        tdi_window_ms=2.0, rpg_window_ms=1.0, rpg_seed=7, ts_factor_percent=150.0))
    assert dst.read_bytes() == write_wav(want)


def test_sweep_writes_grid_and_manifest(tmp_path, wav_on_disk, capsys):
    src = wav_on_disk(band_noise(92, duration_s=0.25), "voice.wav")
    outdir = tmp_path / "batch"
    assert main(["sweep", str(src), str(outdir),
                 "--tdi-ms-range", "1.0:3.0:0.5",
                 "--ts-range", "150:300:150"]) == 0
    assert "wrote 10 files" in capsys.readouterr().out
    wavs = sorted(p.name for p in outdir.glob("*.wav"))
    assert len(wavs) == 10
    assert wavs[0] == "voice_0000.wav" and wavs[-1] == "voice_0009.wav"

    manifest = (outdir / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 10
    want = expand_grid(ParamGrid(tdi_window_ms=(1.0, 1.5, 2.0, 2.5, 3.0),
                                 ts_factor_percent=(150.0, 300.0), rpg_seed=42))
    loaded = read_wav(src.read_bytes())
    from dataclasses import replace
    for i, line in enumerate(manifest):
        name, params = parse_manifest_line(line)
        assert name == f"voice_{i:04d}.wav"
        # the seed line is only written when an rpg window makes it matter
        expected = want[i] if want[i].rpg_window_ms is not None else replace(
            want[i], rpg_seed=0)
        assert params == expected
        assert (outdir / name).read_bytes() == write_wav(apply_params(loaded, params))


@pytest.mark.parametrize("name, why", [
    ("a\tb.wav", "holds a tab or a line break"),
    ("a\nb.wav", "holds a tab or a line break"),
    # the byte 0xff of a file name, as Python decodes it
    (os.fsdecode(b"a\xff.wav"), "does not encode as UTF-8"),
], ids=["tab", "newline", "not-utf-8"])
def test_sweep_refuses_an_input_name_its_manifest_cannot_hold(tmp_path, wav_on_disk, capsys,
                                                             name, why):
    # the manifest is tab-separated UTF-8 lines, so the stem may hold neither
    # a tab nor a line break, and must encode as UTF-8
    src = wav_on_disk(band_noise(92, duration_s=0.25), name)
    assert main(["sweep", str(src), str(tmp_path / "batch"), "--tdi-ms-range", "1:2:1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: manifest filename {name[:-4]!r} {why}")
    assert list(tmp_path.iterdir()) == [src]


def test_features_prints_matrix(wav_on_disk, capsys):
    buf = band_noise(94, duration_s=1.0)
    src = wav_on_disk(buf)
    assert main(["features", str(src)]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.strip().split("\n")]
    assert len(rows) == 99
    assert all(len(r) == 13 for r in rows)
    # numbers parse and match a library extraction of the same file
    got = np.array([[float(v) for v in r] for r in rows])
    want = extract_features(read_wav(src.read_bytes())).data
    assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, float(np.max(np.abs(want))))


def test_features_mfsc_mode(wav_on_disk, capsys):
    src = wav_on_disk(band_noise(95, duration_s=0.5))
    assert main(["features", str(src), "--mfsc", "--n-filters", "20"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert all(len(r.split()) == 20 for r in rows)


def test_features_mfsc_ignores_the_coefficient_count(wav_on_disk, capsys):
    # fewer filters than the default 13 coefficients: MFSC computes none
    src = wav_on_disk(band_noise(95, duration_s=1.0))
    assert main(["features", str(src), "--mfsc", "--n-filters", "10"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 99
    assert all(len(r.split()) == 10 for r in rows)


def test_compare_reports_preserved_magnitudes(tmp_path, wav_on_disk, capsys):
    buf = band_noise(96, duration_s=0.5)
    src = wav_on_disk(buf, "a.wav")
    dst = tmp_path / "b.wav"
    assert main(["perturb", str(src), str(dst), "--rpg-ms", "20.0"]) == 0
    assert main(["compare", str(src), str(dst)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(lines["feature_distance"]) > 0.0
    # rpg at the compare window preserves per-window magnitudes up to 16-bit
    # requantization noise
    assert float(lines["max_window_magnitude_rel_diff"]) < 2e-3


def test_compare_identical_files(wav_on_disk, capsys):
    src = wav_on_disk(band_noise(97, duration_s=0.3))
    assert main(["compare", str(src), str(src)]) == 0
    lines = dict(line.split("=", 1)
                 for line in capsys.readouterr().out.strip().split("\n"))
    assert float(lines["feature_distance"]) == 0.0
    assert float(lines["max_window_magnitude_rel_diff"]) == 0.0


def test_vad_prints_regions(wav_on_disk, capsys):
    buf, spans = burst_fixture(98, spans=((0.5, 1.0),))
    src = wav_on_disk(buf)
    assert main(["vad", str(src)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 1
    start, end = (float(v) for v in lines[0].split("\t"))
    assert abs(start - 0.5) <= 0.05 and abs(end - 1.0) <= 0.1


def test_simulate_transparent_is_identity(tmp_path, wav_on_disk):
    src = wav_on_disk(band_noise(99, duration_s=0.25))
    dst = tmp_path / "out.wav"
    assert main(["simulate", str(src), str(dst), "--channel", "transparent"]) == 0
    assert dst.read_bytes() == src.read_bytes()


def test_simulate_seed_controls_noise(tmp_path, wav_on_disk):
    src = wav_on_disk(band_noise(100, duration_s=0.25))
    cfg = tmp_path / "chan.cfg"
    cfg.write_text("snr_db = 15\nseed = 2\n")
    outs = []
    for name, extra in [("a.wav", []), ("b.wav", []), ("c.wav", ["--seed", "9"])]:
        dst = tmp_path / name
        assert main(["simulate", str(src), str(dst), "--channel", str(cfg)] + extra) == 0
        outs.append(dst.read_bytes())
    assert outs[0] == outs[1]  # config seed, twice
    assert outs[0] != outs[2]  # overridden seed


def test_simulate_reports_the_renormalization(tmp_path, wav_on_disk, capsys):
    # a 1 kHz tone repeats every 1 ms, so four taps of decay 1 add in phase:
    # the 0.5 peak grows to 2.5
    src = wav_on_disk(sine_buffer(1000.0, amp=0.5))
    chan = tmp_path / "chan.cfg"
    chan.write_text("reverb_taps = 4\nreverb_delay_ms = 1\nreverb_decay = 1\n")
    assert main(["simulate", str(src), str(tmp_path / "out.wav"), "--channel", str(chan)]) == 0
    assert capsys.readouterr().err == "renormalized by 0.4\n"


@pytest.mark.parametrize("argv", [
    ["perturb", "{src}", "{out}.wav", "--tdi-ms", "1", "--rpg-ms", "1",
     "--hfa", "7500:0.1", "--ts", "150"],
    ["sweep", "{src}", "{out}", "--tdi-ms-range", "1:2:1"],
    ["simulate", "{src}", "{out}.wav", "--channel", "harsh"],
    ["vad", "{src}"],
], ids=["perturb", "sweep", "simulate", "vad"])
def test_an_empty_wav_through_the_cli(tmp_path, wav_on_disk, capsys, argv):
    # features, which needs one analysis frame, is in the exit-2 table
    src = wav_on_disk(AudioBuffer(np.zeros(0), 16000))
    paths = {"src": src, "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 0
    assert capsys.readouterr().err == ""


def test_attack_mock_accepts(tmp_path, wav_on_disk, capsys):
    buf = band_noise(1, duration_s=0.5)
    src = wav_on_disk(buf, "cmd.wav")
    out = tmp_path / "win.wav"
    code = main(["attack", str(src), "--target-phrase", "open the door",
                 "--backend", f"mock:{src}:1e9", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith(str(out))
    assert printed.endswith("queries=1")  # everything passes at a huge threshold
    assert out.exists()
    # winner is the worst-sounding probe: the 1.0 ms tdi variant
    want = apply_params(read_wav(src.read_bytes()),
                        PerturbationParams(tdi_window_ms=1.0, rpg_seed=42))
    assert out.read_bytes() == write_wav(want)


def test_attack_default_output_path(tmp_path, wav_on_disk, capsys):
    src = wav_on_disk(band_noise(2, duration_s=0.4), "cmd.wav")
    code = main(["attack", str(src), "--target-phrase", "x",
                 "--backend", f"mock:{src}:1e9"])
    assert code == 0
    assert (tmp_path / "cmd.attack.wav").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flags, queries", [([], 10), (["--budget", "4"], 4)],
                         ids=["default-ladder", "budget-4"])
def test_an_exhausted_attack_exits_1_in_one_line_and_writes_nothing(tmp_path, wav_on_disk,
                                                                    capsys, flags, queries):
    # the default ten-rung ladder against a zero threshold rejects every
    # query, until the ladder or a smaller budget runs out
    src = wav_on_disk(band_noise(3, duration_s=0.4))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*")}
    assert main(["attack", str(src), "--target-phrase", "x",
                 "--backend", f"mock:{src}:0", *flags]) == 1
    assert capsys.readouterr() == ("", f"no candidate accepted (queries={queries})\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("flag, want", [([], 3), (["--budget", "10"], 10)])
def test_attack_budget_flag_overrides_remote_config(tmp_path, wav_on_disk, capsys,
                                                    monkeypatch, flag, want):
    config_path = tmp_path / "stt.json"
    config_path.write_text(json.dumps({"url": "http://localhost:9/stt", "budget": 3}))
    seen = []

    def capture(config, phrase):
        seen.append(config)
        raise BackendError("captured")  # stop before any request

    monkeypatch.setattr("garble.cli.RemoteTranscriber", capture)
    src = wav_on_disk(band_noise(7, duration_s=0.2))
    code = main(["attack", str(src), "--target-phrase", "x",
                 "--backend", f"remote:{config_path}", *flag])
    assert code == 1
    assert [c.budget for c in seen] == [want]
    capsys.readouterr()


def test_attack_ladder_defaults_come_from_tdi_probe_schedule(monkeypatch):
    argv = ["attack", "in.wav", "--target-phrase", "x", "--backend", "mock:r.wav:1"]
    ladder = inspect.signature(tdi_probe_schedule).parameters
    args = build_parser().parse_args(argv)
    assert (args.start_ms, args.step_ms, args.count) == tuple(
        ladder[name].default for name in ("start_ms", "step_ms", "count"))

    def other_ladder(start_ms=2.0, step_ms=0.25, count=3, rpg_seed=0):
        return tdi_probe_schedule(start_ms, step_ms, count, rpg_seed)

    monkeypatch.setattr("garble.cli.tdi_probe_schedule", other_ladder)
    args = build_parser().parse_args(argv)
    assert (args.start_ms, args.step_ms, args.count) == (2.0, 0.25, 3)


def test_a_60_s_clip_streams_through_features_and_spectrogram(tmp_path, wav_on_disk,
                                                              capsys):
    # 5999 frames: 187 full blocks of the streamed front end and a 15-frame
    # tail, one text line and one image column each
    src = wav_on_disk(random_buffer(5, 60 * 16000))
    assert main(["features", str(src)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5999
    dst = tmp_path / "long.pgm"
    assert main(["spectrogram", str(src), str(dst)]) == 0
    assert dst.read_bytes().startswith(b"P5\n5999 257\n255\n")


def test_spectrogram_draws_digital_silence_black(tmp_path, wav_on_disk):
    # every bin of 1 s of zeros sits on the -200 dB floor, the loudest bin
    dst = tmp_path / "silent.pgm"
    assert main(["spectrogram", str(wav_on_disk(AudioBuffer(np.zeros(16000), 16000))),
                 str(dst)]) == 0
    assert dst.read_bytes() == b"P5\n99 257\n255\n" + bytes(99 * 257)


# --- the exit-2 contract ----------------------------------------------------------

# {dir} is the test's temp directory, which holds these files, the input
# {src} = in.wav, an empty.wav and junk.wav; {out} is a path in it
CONFIG_FILES = {
    "delay-inf.cfg": "reverb_taps = 2\nreverb_delay_ms = inf\n",
    "delay-huge.cfg": "reverb_taps = 2\nreverb_delay_ms = 1e306\n",
    "decay-inf.cfg": "reverb_decay = inf\n",  # rejected even with no taps
    # a decay above 1 grows: 2 ** 2000 at a one-sample delay is past float range
    "reverb-grows.cfg": "reverb_decay = 2\nreverb_taps = 2000\nreverb_delay_ms = 0.0625\n",
    "snr-nan.cfg": "snr_db = nan\n",
    "snr-low.cfg": "snr_db = -4000\n",
    "seed-neg.cfg": "seed = -1\n",  # rejected even with no noise to draw
    # band edges whose FIR tap count 4 * fs / (0.4 * band_low) divides by
    # zero, overflows to inf, or passes the longest array numpy can index
    "band-low-zero-width.cfg": "band_low = 5e-324\n",
    "band-low-inf-taps.cfg": "band_low = 1e-310\n",
    "band-low-too-many-taps.cfg": "band_low = 1e-300\n",
    # 1.6e17 taps: indexable, but past the 2**24 cap on any filter's length
    "band-low-past-tap-cap.cfg": "band_low = 1e-12\n",
    "stt.json": '{"url": "http://localhost:9/stt"}',
    "budget-str.json": '{"url": "http://localhost:9/stt", "budget": "3"}',
    "edit-neg.json": '{"url": "http://localhost:9/stt", "max_word_edit_distance": -1}',
}
ATTACK = "attack {src} --target-phrase x --backend"
MOCK = ATTACK + " mock:{src}:1e9"
TOO_LONG = "ms is too long to index at 16000 Hz"
WINDOW = "window length in ms must be positive and finite"

# Every case below exits 2. Values that are not finite, and finite values whose
# sample count or noise power leaves the range of an index or a float, keep
# test names of their own; all three tests share one body.
NON_FINITE_CASES = [  # (id, argv, a fragment of the one stderr line)
    ("perturb-tdi", "perturb {src} {out} --tdi-ms inf", WINDOW),
    ("perturb-ts", "perturb {src} {out} --ts inf", "ts factor must be finite and >= 100"),
    ("sweep", "sweep {src} {out} --tdi-ms-range 1:inf:1", "range values must be finite"),
    ("sweep-count", "sweep {src} {out} --tdi-ms-range 0:1e300:1e-300",
     "range '0:1e300:1e-300' has too many points"),
    ("perturb-hfa-amp", "perturb {src} {out} --hfa 7500:inf",
     "component amplitude inf must be finite"),
    ("features", "features {src} --frame-ms inf", "frame_ms and hop_ms must be positive"),
    ("features-pre-emphasis", "features {src} --pre-emphasis nan",
     "pre_emphasis must be finite"),
    ("compare", "compare {src} {src} --window-ms inf", WINDOW),
    ("simulate", "simulate {src} {out} --channel {dir}/delay-inf.cfg",
     "reverb_delay_ms must be finite"),
    ("simulate-reverb-decay", "simulate {src} {out} --channel {dir}/decay-inf.cfg",
     "reverb_decay must be in [0, 1], got inf"),
    ("simulate-nan-snr", "simulate {src} {out} --channel {dir}/snr-nan.cfg",
     "snr_db must be >= -3080.0 or +inf, got nan"),
    ("attack-start", MOCK + " --start-ms inf", WINDOW),
    ("attack-nan-threshold", ATTACK + " mock:{src}:nan", "threshold must be >= 0"),
]

OVERFLOW_CASES = [
    ("perturb-tdi", "perturb {src} {out} --tdi-ms 1e300", f"1e+300 {TOO_LONG}"),
    ("perturb-rpg", "perturb {src} {out} --rpg-ms 1e300", f"1e+300 {TOO_LONG}"),
    ("perturb-tdi-past-maxsize", "perturb {src} {out} --tdi-ms 6e17", f"6e+17 {TOO_LONG}"),
    ("compare", "compare {src} {src} --window-ms 1e306", f"1e+306 {TOO_LONG}"),
    ("features", "features {src} --frame-ms 1e306", f"1e+306 {TOO_LONG}"),
    ("features-hop", "features {src} --hop-ms 1e306", f"1e+306 {TOO_LONG}"),
    ("features-hop-stride", "features {src} --hop-ms 1e17", f"1e+17 {TOO_LONG}"),
    # a pre-emphasis this large overflows the power spectrum into NaN rows
    ("features-pre-emphasis", "features {src} --pre-emphasis 1e300",
     "pre_emphasis must be finite and in [-1, 1], got 1e+300"),
    ("spectrogram", "spectrogram {src} {out} --frame-ms 1e306", f"1e+306 {TOO_LONG}"),
    ("attack-start", MOCK + " --start-ms 1e306", f"1e+306 {TOO_LONG}"),
    ("simulate-reverb-delay", "simulate {src} {out} --channel {dir}/delay-huge.cfg",
     "reverb_delay_ms too large to count"),
    ("simulate-snr", "simulate {src} {out} --channel {dir}/snr-low.cfg",
     "snr_db must be >= -3080.0 or +inf, got -4000.0"),
    ("simulate-band-low-zero-width",
     "simulate {src} {out} --channel {dir}/band-low-zero-width.cfg",
     "a low-pass edge at 5e-324 Hz needs too many taps"),
    ("simulate-band-low-inf-taps", "simulate {src} {out} --channel {dir}/band-low-inf-taps.cfg",
     "a low-pass edge at 1e-310 Hz needs too many taps"),
    ("simulate-band-low-too-many-taps",
     "simulate {src} {out} --channel {dir}/band-low-too-many-taps.cfg",
     "a low-pass edge at 1e-300 Hz needs too many taps"),
]

EXIT_2_CASES = [
    ("perturb-ts-slowdown", "perturb {src} {out} --ts 50",
     "ts factor must be finite and >= 100"),
    ("perturb-seed", "perturb {src} {out} --rpg-ms 1 --seed -3", "seed must be >= 0, got -3"),
    ("perturb-hfa-overflow", "perturb {src} {out} --hfa 1000:1e308,1000:1e308",
     "component amplitudes sum to inf"),
    ("sweep-range-backwards", "sweep {src} {out} --tdi-ms-range 5:1:1",
     "range end before start"),
    # 1 ms, then 5e299 ms and 1e300 ms, which no frame view can index
    ("sweep-point-too-long", "sweep {src} {out} --tdi-ms-range 1:1e300:5e299",
     f"5e+299 {TOO_LONG}"),
    ("sweep-seed", "sweep {src} {out} --rpg-ms-range 1:2:1 --seed -1",
     "seed must be >= 0, got -1"),
    ("sweep-hfa-overflow", "sweep {src} {out} --tdi-ms-range 1:2:1 --hfa 1000:1e308,1000:1e308",
     "component amplitudes sum to inf"),
    ("features-junk-file", "features {dir}/junk.wav", "not a RIFF/WAVE stream"),
    ("features-empty-wav", "features {dir}/empty.wav", "shorter than one analysis frame"),
    ("features-mfsc-no-filters", "features {src} --mfsc --n-filters 0",
     "n_filters must be in [1, 257] (FFT bins), got 0"),
    ("compare-window-zero", "compare {src} {src} --window-ms 0", WINDOW),
    ("compare-window-negative", "compare {src} {src} --window-ms -5", WINDOW),
    ("vad-missing-file", "vad {dir}/missing.wav",
     "No such file or directory: '{dir}/missing.wav'"),
    ("simulate-missing-channel-file", "simulate {src} {out} --channel {dir}/nope.cfg",
     "No such file or directory: '{dir}/nope.cfg'"),
    ("simulate-reverb-grows", "simulate {src} {out} --channel {dir}/reverb-grows.cfg",
     "reverb_decay must be in [0, 1], got 2.0"),
    ("simulate-seed-flag", "simulate {src} {out} --channel harsh --seed -3",
     "seed must be >= 0, got -3"),
    ("simulate-seed-file", "simulate {src} {out} --channel {dir}/seed-neg.cfg",
     "seed must be >= 0, got -1"),
    ("simulate-band-low-past-tap-cap",
     "simulate {src} {out} --channel {dir}/band-low-past-tap-cap.cfg",
     "a low-pass edge at 1e-12 Hz needs too many taps"),
    ("attack-backend-spec", ATTACK + " oracle.wav",
     "backend must be mock:REF.wav:THRESHOLD or"),
    ("attack-mock-spec-no-reference", ATTACK + " mock:5",
     "mock backend spec is mock:REFERENCE.wav:THRESHOLD"),
    ("attack-mock-spec-empty-reference", ATTACK + " mock::5",
     "mock backend spec is mock:REFERENCE.wav:THRESHOLD"),
    ("attack-remote-budget-type", ATTACK + " remote:{dir}/budget-str.json",
     "remote config budget has the wrong type: '3'"),
    ("attack-remote-edit-distance-negative", ATTACK + " remote:{dir}/edit-neg.json",
     "remote config max_word_edit_distance must be >= 0"),
    ("attack-phrase-empty", "attack {src} --target-phrase '' --backend remote:{dir}/stt.json",
     "target phrase '' has no words"),
    ("attack-phrase-punctuation",
     "attack {src} --target-phrase '!!!' --backend remote:{dir}/stt.json",
     "target phrase '!!!' has no words"),
    ("attack-count-zero", MOCK + " --count 0", "count must be >= 1"),
    # the 1 ms rung is fine, ranked first and rejected; the 1e306 ms rung is not fine
    ("attack-ladder-rung-too-long",
     ATTACK + " mock:{src}:0 --start-ms 1 --step-ms 1e306 --count 2",
     f"1e+306 {TOO_LONG}"),
]

# sizes past a cap: these rows run in a child bounded in memory and time
# (run_capped), so a cap that stopped working fails the test rather than
# growing the test process
SIZE_CAP_CASES = [
    # past the 10**5 points a range, a sweep grid or a ladder may have
    ("sweep-range-past-point-cap", "sweep {src} {out} --tdi-ms-range 1:1e12:1",
     "--tdi-ms-range: range '1:1e12:1' has too many points (more than 100000)"),
    ("sweep-grid-past-point-cap",
     "sweep {src} {out} --tdi-ms-range 1:100:1 --rpg-ms-range 1:100:1 --ts-range 100:199:1",
     "(--tdi-ms-range x --rpg-ms-range x --ts-range) has 1000000 points"),
    ("attack-count-past-point-cap", ATTACK + " mock:{src}:1 --count 100000000",
     "--count 100000000 is more than 100000 rungs"),
    # a 20 ms frame at 16 kHz has 257 FFT bins, so no more mel filters
    ("features-filters-past-bins", "features {src} --n-filters 1000000000",
     "n_filters must be in [1, 257] (FFT bins), got 1000000000"),
]


def cases(table):
    return pytest.mark.parametrize("argv, fragment", [
        pytest.param(argv, fragment, id=name) for name, argv, fragment in table])


@pytest.fixture
def exits_2_before_any_file_or_query(tmp_path, wav_on_disk, capsys, monkeypatch):
    # one stderr line names the culprit, no file is written, no query is spent
    paths = {"src": wav_on_disk(band_noise(9, duration_s=0.5)), "dir": tmp_path,
             "out": tmp_path / "out"}
    wav_on_disk(AudioBuffer(np.zeros(0), 16000), "empty.wav")
    (tmp_path / "junk.wav").write_bytes(b"RIFFxxxx not really wave data")
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)

    def tree():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    queries = []
    transcribe = TranscriberBackend.transcribe

    def counted(backend, audio):
        queries.append(len(audio))
        return transcribe(backend, audio)

    monkeypatch.setattr(TranscriberBackend, "transcribe", counted)

    def check(argv, fragment):
        before = tree()
        assert main([arg.format(**paths) for arg in shlex.split(argv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith(("error: ", "file error: "))
        assert fragment.format(**paths) in err
        assert tree() == before
        assert queries == []

    return check


@cases(NON_FINITE_CASES)
def test_non_finite_parameters_exit_2(exits_2_before_any_file_or_query, argv, fragment):
    exits_2_before_any_file_or_query(argv, fragment)


@cases(OVERFLOW_CASES)
def test_overflowing_parameters_exit_2(exits_2_before_any_file_or_query, argv, fragment):
    exits_2_before_any_file_or_query(argv, fragment)


@cases(EXIT_2_CASES)
def test_a_bad_input_exits_2_before_any_file_or_query(exits_2_before_any_file_or_query,
                                                      argv, fragment):
    exits_2_before_any_file_or_query(argv, fragment)


# every subcommand's options, each drawn from the edges of a range: zero, a
# tiny and a huge float, both infinities, NaN and ints past 32 and 64 bits
# (an int option refuses the floats: argparse exits 2)
EDGE = st.sampled_from(("0", "1e-300", "1e300", "inf", "-inf", "nan", str(2**31), str(2**63)))
SWITCH = st.none()


def joined(n):
    """n edges joined by colons: an F:A tone or an A:B:STEP range."""
    return st.lists(EDGE, min_size=n, max_size=n).map(":".join)


COMMANDS = [  # (head, options it always has, options it may have)
    ("perturb {src} {out}/p.wav", {},
     {"--tdi-ms": EDGE, "--rpg-ms": EDGE, "--hfa": joined(2), "--ts": EDGE, "--seed": EDGE}),
    ("sweep {src} {out}/batch", {},
     {"--tdi-ms-range": joined(3), "--rpg-ms-range": joined(3), "--ts-range": joined(3),
      "--hfa": joined(2), "--seed": EDGE}),
    ("features {src}", {},
     {"--mfsc": SWITCH, "--frame-ms": EDGE, "--hop-ms": EDGE, "--rectangular": SWITCH,
      "--n-filters": EDGE, "--n-coeffs": EDGE, "--magnitude": SWITCH, "--pre-emphasis": EDGE}),
    ("compare {src} {src}", {}, {"--window-ms": EDGE}),
    ("vad {src}", {}, {}),
    ("simulate {src} {out}/s.wav", {"--channel": st.sampled_from(sorted(PRESETS))},
     {"--seed": EDGE}),
    ("attack {src} --target-phrase go", {"--backend": EDGE.map("mock:{src}:".__add__)},
     {"--budget": EDGE, "--out": st.just("{out}/a.wav"), "--start-ms": EDGE,
      "--step-ms": EDGE, "--count": EDGE}),
    ("spectrogram {src} {out}/s.pgm", {}, {"--frame-ms": EDGE, "--hop-ms": EDGE}),
]
ARGV = st.one_of([
    st.fixed_dictionaries(always, optional=maybe).map(
        lambda flags, head=head: head.split() + [
            arg for flag, value in flags.items() for arg in (flag, value) if arg is not None])
    for head, always, maybe in COMMANDS])


def test_the_argv_property_covers_every_subcommand():
    subcommands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert [head.split()[0] for head, _, _ in COMMANDS] == list(subcommands)


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV, clip_ms=st.sampled_from((5, 100)))
def test_any_command_line_exits_0_1_or_2(tmp_path, wav_on_disk, argv, clip_ms):
    # on a 100 ms clip, or a 5 ms one under one analysis frame: no exception
    # escapes main (argparse's refusal is its SystemExit 2), and an exit 2
    # leaves nothing in the output directory
    src = wav_on_disk(band_noise(9, duration_s=clip_ms / 1000), f"{clip_ms}.wav")
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = [arg.format(src=src, out=out) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = 2
    assert code in (0, 1, 2), argv
    if code == 2:
        assert not any(out.iterdir()), argv


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def package_env():
    return {**os.environ, "PYTHONPATH": str(Path(garble.__file__).parents[1])}


# the package's layers, each importing only modules listed before it
LAYERS = ("dsp", "audio_io", "features", "perturb", "channel", "vad", "attack", "cli")


@pytest.fixture(scope="module")
def modules_by_layer():
    """The modules a fresh interpreter holds at start and after importing
    each of LAYERS in turn, the last after import garble.cli."""
    code = ("import importlib, json, sys\n"
            "held = [sorted(sys.modules)]\n"
            f"for name in {LAYERS!r}:\n"
            "    importlib.import_module('garble.' + name)\n"
            "    held.append(sorted(sys.modules))\n"
            "print(json.dumps(held))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return [set(modules) for modules in json.loads(done.stdout)]


@pytest.fixture(scope="module")
def modules_after_cli_import(modules_by_layer):
    return modules_by_layer[-1]


def test_each_layer_import_adds_only_its_own_module(modules_by_layer):
    # dsp <- audio_io <- features, perturb, channel, vad <- attack <- cli: an
    # import that loaded a later layer would be a module reaching up the
    # chain, or round an import cycle
    for name, before, after in zip(LAYERS, modules_by_layer, modules_by_layer[1:]):
        added = {m for m in after - before if m.split(".")[0] == "garble"}
        assert added - {"garble"} == {f"garble.{name}"}, name


def test_cli_import_loads_no_scipy(modules_after_cli_import):
    # the package runs on numpy alone; importing scipy.fft would be most of
    # the CLI's start-up time
    loaded = [m for m in modules_after_cli_import if m.split(".")[0] == "scipy"]
    assert not loaded, loaded


def test_cli_import_loads_no_http_stack(modules_after_cli_import):
    # only the remote backend's queries use HTTP; urllib.request pulls in
    # http.client, email and ssl, 25-55 ms of every start
    assert not {"urllib.request", "http.client"} & modules_after_cli_import


def run_capped(argv):
    """python -m garble.cli argv in a child that may map 1 GiB of address
    space and run 30 s. The cap is set in the child only, since in-process,
    with overcommit, a large allocation can succeed."""
    resource = pytest.importorskip("resource")
    cap = 2**30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "garble.cli", *map(str, argv)],
                          env=package_env(), capture_output=True, text=True,
                          preexec_fn=limit, timeout=30)


@cases(SIZE_CAP_CASES)
def test_a_size_past_a_cap_exits_2_in_a_bounded_child(tmp_path, wav_on_disk, argv, fragment):
    paths = {"src": wav_on_disk(band_noise(9, duration_s=0.5)), "out": tmp_path / "out"}
    before = sorted(tmp_path.rglob("*"))
    done = run_capped(arg.format(**paths) for arg in shlex.split(argv))
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")
    assert fragment in done.stderr
    assert sorted(tmp_path.rglob("*")) == before


def test_an_allocation_past_memory_exits_1_in_one_line(wav_on_disk):
    # a 1 s frame at 16 kHz has 8193 FFT bins, so 8193 mel filters pass the
    # filter rule and ask for banks of 512 MiB, past what the child may map
    src = wav_on_disk(band_noise(9, duration_s=1.0))
    done = run_capped(["features", src, "--frame-ms", "1000", "--n-filters", "8193",
                       "--mfsc"])
    assert done.returncode == 1 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("out of memory: Unable to allocate 512. MiB")
    assert "Traceback" not in done.stderr
