import json

import numpy as np
import pytest

from garble.attack import BackendError
from garble.audio_io import read_wav, write_wav
from garble.cli import (
    format_manifest_line,
    main,
    parse_float_range,
    parse_hfa,
    parse_manifest_line,
)
from garble.features import extract_features
from garble.perturb import PerturbationParams, apply_params, expand_grid, ParamGrid
from synth import band_noise, burst_fixture, random_buffer


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


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
