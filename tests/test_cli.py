import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import garble
from garble.attack import BackendError, TranscriberBackend
from garble.audio_io import AudioBuffer, read_wav, write_wav
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


def test_sweep_is_deterministic(tmp_path, wav_on_disk, capsys):
    src = wav_on_disk(band_noise(93, duration_s=0.2))
    args = ["--rpg-ms-range", "1.0:2.0:0.5", "--seed", "3"]
    assert main(["sweep", str(src), str(tmp_path / "a")] + args) == 0
    assert main(["sweep", str(src), str(tmp_path / "b")] + args) == 0
    a_files = sorted((tmp_path / "a").iterdir())
    b_files = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in a_files] == [p.name for p in b_files]
    for pa, pb in zip(a_files, b_files):
        assert pa.read_bytes() == pb.read_bytes()


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


def test_compare_nonpositive_window_exits_2(wav_on_disk, capsys):
    src = wav_on_disk(band_noise(99, duration_s=0.3))
    for window_ms in ("0", "-5"):
        assert main(["compare", str(src), str(src), "--window-ms", window_ms]) == 2
    assert "must be positive" in capsys.readouterr().err


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


def test_simulate_missing_channel_file_exits_2(tmp_path, wav_on_disk, capsys):
    src = wav_on_disk(band_noise(101, duration_s=0.1))
    code = main(["simulate", str(src), str(tmp_path / "o.wav"),
                 "--channel", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_simulate_reports_the_renormalization(tmp_path, wav_on_disk, capsys):
    # a 1 kHz tone repeats every 1 ms, so four taps of decay 1 add in phase:
    # the 0.5 peak grows to 2.5
    src = wav_on_disk(sine_buffer(1000.0, amp=0.5))
    chan = tmp_path / "chan.cfg"
    chan.write_text("reverb_taps = 4\nreverb_delay_ms = 1\nreverb_decay = 1\n")
    assert main(["simulate", str(src), str(tmp_path / "out.wav"), "--channel", str(chan)]) == 0
    assert capsys.readouterr().err == "renormalized by 0.4\n"


def test_simulate_lowest_snr_on_a_loud_clip_exits_0(tmp_path, wav_on_disk, capsys):
    # 0.99 through four in-phase taps, then noise at 1e154 times its amplitude
    src = wav_on_disk(AudioBuffer(np.full(16000, 0.99), 16000))
    chan = tmp_path / "chan.cfg"
    chan.write_text("snr_db = -3080\nreverb_taps = 4\nreverb_delay_ms = 1\nreverb_decay = 1\n")
    dst = tmp_path / "out.wav"
    assert main(["simulate", str(src), str(dst), "--channel", str(chan)]) == 0
    assert len(read_wav(dst.read_bytes())) == 16000
    assert capsys.readouterr().err.startswith("renormalized by ")


@pytest.mark.parametrize("argv, code", [
    (["perturb", "{src}", "{out}.wav", "--tdi-ms", "1", "--rpg-ms", "1",
      "--hfa", "7500:0.1", "--ts", "150"], 0),
    (["sweep", "{src}", "{out}", "--tdi-ms-range", "1:2:1"], 0),
    (["simulate", "{src}", "{out}.wav", "--channel", "harsh"], 0),
    (["vad", "{src}"], 0),
    (["features", "{src}"], 2),  # no analysis frame to extract
], ids=["perturb", "sweep", "simulate", "vad", "features"])
def test_an_empty_wav_through_the_cli(tmp_path, wav_on_disk, capsys, argv, code):
    src = wav_on_disk(AudioBuffer(np.zeros(0), 16000))
    paths = {"src": src, "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert "shorter than one analysis frame" in err


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


def test_attack_exhaustion_exits_1(tmp_path, wav_on_disk, capsys):
    src = wav_on_disk(band_noise(3, duration_s=0.4))
    code = main(["attack", str(src), "--target-phrase", "x",
                 "--backend", f"mock:{src}:0.0", "--budget", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "queries=4" in err
    assert not (tmp_path / "in.attack.wav").exists()


def test_attack_bad_backend_spec_exits_2(wav_on_disk, capsys):
    src = wav_on_disk(band_noise(4, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", "x",
                 "--backend", "oracle.wav"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["mock:5", "mock::5"])
def test_attack_mock_spec_without_a_reference_exits_2(wav_on_disk, capsys, spec):
    src = wav_on_disk(band_noise(5, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", "x", "--backend", spec]) == 2
    assert "mock backend spec is mock:REFERENCE.wav:THRESHOLD" in capsys.readouterr().err


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


def test_attack_badly_typed_remote_config_exits_2(tmp_path, wav_on_disk, capsys):
    config_path = tmp_path / "stt.json"
    config_path.write_text(json.dumps({"url": "http://localhost:9/stt", "budget": "3"}))
    src = wav_on_disk(band_noise(8, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", "x",
                 "--backend", f"remote:{config_path}"]) == 2
    assert "budget" in capsys.readouterr().err


def test_attack_negative_edit_distance_remote_config_exits_2(tmp_path, wav_on_disk,
                                                            capsys):
    config_path = tmp_path / "stt.json"
    config_path.write_text(json.dumps({"url": "http://localhost:9/stt",
                                       "max_word_edit_distance": -1}))
    src = wav_on_disk(band_noise(8, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", "x",
                 "--backend", f"remote:{config_path}"]) == 2
    assert "max_word_edit_distance" in capsys.readouterr().err


@pytest.mark.parametrize("phrase", ["", "!!!"])
def test_attack_target_phrase_with_no_words_exits_2(tmp_path, wav_on_disk, capsys,
                                                    phrase):
    config_path = tmp_path / "stt.json"
    config_path.write_text(json.dumps({"url": "http://localhost:9/stt"}))
    src = wav_on_disk(band_noise(8, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", phrase,
                 "--backend", f"remote:{config_path}"]) == 2
    assert "no words" in capsys.readouterr().err


def test_attack_bad_ladder_rung_exits_2_before_any_query(wav_on_disk, capsys, monkeypatch):
    # the 1 ms rung is fine and ranked first; the 1e306 ms rung is not
    queries = []
    transcribe = TranscriberBackend.transcribe

    def counted(backend, audio):
        queries.append(len(audio))
        return transcribe(backend, audio)

    monkeypatch.setattr(TranscriberBackend, "transcribe", counted)
    src = wav_on_disk(band_noise(13, duration_s=0.5))
    assert main(["attack", str(src), "--target-phrase", "x", "--backend", f"mock:{src}:0",
                 "--start-ms", "1", "--step-ms", "1e306", "--count", "2"]) == 2
    assert "too long to index" in capsys.readouterr().err
    assert queries == []


def test_sweep_bad_point_exits_2_before_any_file(tmp_path, wav_on_disk, capsys):
    # 1 ms, then 5e299 ms and 1e300 ms, which no frame view can index
    src = wav_on_disk(band_noise(14, duration_s=0.5))
    outdir = tmp_path / "sw"
    assert main(["sweep", str(src), str(outdir), "--tdi-ms-range", "1:1e300:5e299"]) == 2
    assert "too long to index" in capsys.readouterr().err
    assert not outdir.exists()


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


def test_spectrogram_writes_pgm(tmp_path, wav_on_disk):
    src = wav_on_disk(band_noise(5, duration_s=0.5))
    dst = tmp_path / "spec.pgm"
    assert main(["spectrogram", str(src), str(dst)]) == 0
    raw = dst.read_bytes()
    assert raw.startswith(b"P5\n")
    header, rest = raw.split(b"255\n", 1)
    dims = header.decode().split("\n")[1].split()
    width, height = int(dims[0]), int(dims[1])
    assert height == 257  # 512-point fft -> 257 bins, one pixel row each
    assert width == (8000 - 320) // 160 + 1
    assert len(rest) == width * height
    assert max(rest) == 255  # the per-file peak maps to full white


def test_cli_error_paths(tmp_path, wav_on_disk, capsys):
    assert main(["vad", str(tmp_path / "missing.wav")]) == 2
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"RIFFxxxx not really wave data")
    assert main(["features", str(junk)]) == 2
    src = wav_on_disk(band_noise(6, duration_s=0.2))
    assert main(["perturb", str(src), str(tmp_path / "o.wav"), "--ts", "50"]) == 2
    assert main(["sweep", str(src), str(tmp_path / "d"),
                 "--tdi-ms-range", "5:1:1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["perturb", "{src}", "{out}", "--tdi-ms", "inf"],
    ["perturb", "{src}", "{out}", "--ts", "inf"],
    ["sweep", "{src}", "{out}", "--tdi-ms-range", "1:inf:1"],
    ["sweep", "{src}", "{out}", "--tdi-ms-range", "0:1e300:1e-300"],
    ["perturb", "{src}", "{out}", "--hfa", "7500:inf"],
    ["features", "{src}", "--frame-ms", "inf"],
    ["features", "{src}", "--pre-emphasis", "nan"],
    ["compare", "{src}", "{src}", "--window-ms", "inf"],
    ["simulate", "{src}", "{out}", "--channel", "{delay}"],
    ["simulate", "{src}", "{out}", "--channel", "{decay}"],
    ["simulate", "{src}", "{out}", "--channel", "{snr}"],
    ["attack", "{src}", "--target-phrase", "x", "--backend", "mock:{src}:1e9",
     "--start-ms", "inf"],
    ["attack", "{src}", "--target-phrase", "x", "--backend", "mock:{src}:nan"],
], ids=["perturb-tdi", "perturb-ts", "sweep", "sweep-count", "perturb-hfa-amp", "features",
        "features-pre-emphasis", "compare", "simulate", "simulate-reverb-decay",
        "simulate-nan-snr", "attack-start", "attack-nan-threshold"])
def test_non_finite_parameters_exit_2(tmp_path, wav_on_disk, capsys, argv):
    src = wav_on_disk(band_noise(9, duration_s=0.2))
    paths = {"src": src, "out": tmp_path / "out"}
    channel_files = {"delay": "reverb_taps = 2\nreverb_delay_ms = inf\n",
                     "decay": "reverb_decay = inf\n",  # rejected even with no taps
                     "snr": "snr_db = nan\n"}
    for name, text in channel_files.items():
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, named", [
    (["perturb", "{src}", "{out}", "--tdi-ms", "1e300"], "too long to index"),
    (["perturb", "{src}", "{out}", "--rpg-ms", "1e300"], "too long to index"),
    (["perturb", "{src}", "{out}", "--tdi-ms", "6e17"], "too long to index"),
    (["compare", "{src}", "{src}", "--window-ms", "1e306"], "too long to index"),
    (["features", "{src}", "--frame-ms", "1e306"], "too long to index"),
    (["features", "{src}", "--hop-ms", "1e306"], "too long to index"),
    (["features", "{src}", "--hop-ms", "1e17"], "too long to index"),
    (["spectrogram", "{src}", "{out}", "--frame-ms", "1e306"], "too long to index"),
    (["attack", "{src}", "--target-phrase", "x", "--backend", "mock:{src}:1e9",
      "--start-ms", "1e306"], "too long to index"),
    (["simulate", "{src}", "{out}", "--channel", "{delay}"], "reverb_delay_ms"),
    (["simulate", "{src}", "{out}", "--channel", "{snr}"], "snr_db"),
], ids=["perturb-tdi", "perturb-rpg", "perturb-tdi-past-maxsize", "compare", "features",
        "features-hop", "features-hop-stride", "spectrogram", "attack-start",
        "simulate-reverb-delay", "simulate-snr"])
def test_overflowing_parameters_exit_2(tmp_path, wav_on_disk, capsys, argv, named):
    # finite values whose sample count, or noise power, leaves the range
    # of an index or a float
    src = wav_on_disk(band_noise(12, duration_s=0.2))
    paths = {"src": src, "out": tmp_path / "out"}
    channel_files = {"delay": "reverb_taps = 2\nreverb_delay_ms = 1e306\n",
                     "snr": "snr_db = -4000\n"}
    for name, text in channel_files.items():
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv", [
    ["simulate", "{src}", "{out}", "--channel", "harsh", "--seed", "-3"],
    ["simulate", "{src}", "{out}", "--channel", "{chan}"],
    ["perturb", "{src}", "{out}", "--rpg-ms", "1", "--seed", "-3"],
    ["sweep", "{src}", "{out}", "--rpg-ms-range", "1:2:1", "--seed", "-1"],
], ids=["simulate-flag", "simulate-file", "perturb", "sweep"])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, wav_on_disk, capsys, argv):
    src = wav_on_disk(band_noise(10, duration_s=0.2))
    chan = tmp_path / "chan.cfg"
    chan.write_text("seed = -1\n")  # rejected even with no noise to draw
    paths = {"src": src, "out": tmp_path / "out", "chan": chan}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_growing_reverb_exits_2(tmp_path, wav_on_disk, capsys):
    # a decay above 1 grows instead of decaying: 2 ** 2000 taps at a
    # one-sample delay leaves the float range
    src = wav_on_disk(band_noise(11, duration_s=0.75))
    chan = tmp_path / "chan.cfg"
    chan.write_text("reverb_decay = 2\nreverb_taps = 2000\nreverb_delay_ms = 0.0625\n")
    assert main(["simulate", str(src), str(tmp_path / "out.wav"), "--channel", str(chan)]) == 2
    assert "reverb_decay" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone; importing scipy.fft would be most of
    # the CLI's start-up time
    env = {**os.environ, "PYTHONPATH": str(Path(garble.__file__).parents[1])}
    code = ("import garble.cli, sys; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
