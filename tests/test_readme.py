"""README.md's Contracts table and CLI tour, checked by behaviour.

Every row of the Contracts table has one test below. It reads the row's
value out of README.md and checks what the package does at that value,
never a package constant, so a number changed in only one of README and
code fails its row. Every `garble` line of the CLI tour runs through
cli.main on synthetic 44.1 kHz WAVs, so each read resamples; the remote
line asks a local stub server with the README's JSON config.
"""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from garble.attack import MockOracle, RemoteConfig, RemoteTranscriber
from garble.audio_io import AudioBuffer, canonicalize, read_wav, write_wav
from garble.channel import ChannelConfig, parse_channel_config, resolve_channel, simulate
from garble.cli import main, parse_float_range
from garble.dsp import lowpass_length
from garble.features import FeatureConfig, extract_features
from garble.perturb import hfa, tdi_probe_schedule, ts
from garble.vad import detect_speech
from oracles import detect_speech_loop
from synth import SR, band_noise

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    """README's text under the heading `title`, up to the next heading; a
    line starting with # inside a fenced block is not a heading."""
    lines, inside, fenced = [], False, False
    for line in README.splitlines(keepends=True):
        fenced ^= line.startswith("```")
        if line.startswith("#") and not fenced:
            inside = line.lstrip("#").strip() == title
        elif inside:
            lines.append(line)
    assert lines, f"README has no section {title!r}"
    return "".join(lines)


def code_block(title, language=""):
    """The first fenced block of `language` in section `title`."""
    match = re.search(rf"^```{language}\n(.*?)^```", section(title), re.M | re.S)
    assert match, f"no ```{language} block under {title!r}"
    return match.group(1)


def contracts():
    """{contract: value} from the rows of the Contracts table."""
    rows = [line.strip().strip("|").split("|") for line in section("Contracts").splitlines()
            if line.startswith("|")]
    return {key.strip(): value.strip() for key, value in rows[2:]}  # past the header


CONTRACTS = contracts()
CHECKED = []


def row(contract):
    """Hand the test the Contracts value of `contract` as `cell`."""
    CHECKED.append(contract)
    return pytest.mark.parametrize("cell", [CONTRACTS.get(contract)], ids=["README"])


def numbers(cell):
    """The numbers of a cell in order: ints, floats, and A**B powers."""
    values = []
    for token in re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?:\*\*\d+)?", cell):
        base, _, power = token.partition("**")
        value = int(base) if re.fullmatch(r"-?\d+", base) else float(base)
        values.append(value ** int(power) if power else value)
    return values


def formula(cell, **names):
    """The value of the cell's code span, evaluated over names."""
    text = re.fullmatch(r"`([^`]+)`", cell).group(1)
    return eval(text, {"__builtins__": {}, "floor": math.floor, "min": min, "round": round,
                       "next_pow2": lambda n: 1 << (n - 1).bit_length()}, names)


def test_every_contract_has_one_check():
    assert sorted(CONTRACTS) == sorted(CHECKED)


def pcm_codes(wav):
    return np.frombuffer(wav[44:], "<i2").tolist()  # past the 44-byte header


def above(x):
    return float(np.nextafter(x, math.inf))


def below(x):
    return float(np.nextafter(x, -math.inf))


# --- audio I/O ----------------------------------------------------------------


@row("canonical sample rate (Hz), which every subcommand reads at")
def test_canonical_rate(cell, tmp_path, wav_on_disk):
    (rate,) = numbers(cell)
    clip = band_noise(1, 0.1, sr=44100)
    assert canonicalize(clip).sample_rate == rate
    assert len(canonicalize(clip)) == round(len(clip) * rate / 44100)
    out = tmp_path / "out.wav"
    assert main(["perturb", str(wav_on_disk(clip)), str(out)]) == 0
    assert read_wav(out.read_bytes()).sample_rate == rate


@row("PCM-16 scale, both ways")
def test_pcm16_scale(cell):
    (scale,) = numbers(cell)
    wav = write_wav(AudioBuffer(np.array([0.5, -0.25, 0.0]), SR))
    assert pcm_codes(wav) == [scale / 2, -scale / 4, 0]
    codes = np.array([1, -3, 12345, -32768])
    header = write_wav(AudioBuffer(np.zeros(len(codes)), SR))[:44]
    decoded = read_wav(header + codes.astype("<i2").tobytes())
    assert decoded.samples.tolist() == (codes / scale).tolist()


@row("PCM-16 codes written, after clipping")
def test_pcm16_clipping(cell):
    low, high = numbers(cell)
    wav = write_wav(AudioBuffer(np.array([2.0, -2.0, 1.0, -1.0, 1e300]), SR))
    assert pcm_codes(wav) == [high, low, high, low, high]


# --- perturbations ------------------------------------------------------------


TS_FACTORS = (*range(100, 400, 3), 733)


@row("`ts` output sample k, n input samples at factor f")
def test_ts_selection_law(cell):
    clip = band_noise(14, 0.005)  # 80 samples
    n = len(clip)
    for factor in TS_FACTORS:
        got = ts(clip, factor).samples.tolist()
        assert got == [formula(cell, input=clip.samples.tolist(), k=k, f=factor, n=n)
                       for k in range(len(got))], factor


@row("`ts` output length, n input samples at factor f")
def test_ts_length_law(cell):
    for factor in TS_FACTORS:
        for n in [*range(40), 1000, 16001]:
            got = len(ts(AudioBuffer(np.zeros(n), SR), factor))
            assert got == formula(cell, n=n, f=factor), (n, factor)


@row("`ts` factor (%)")
def test_ts_factor_floor(cell):
    (least,) = numbers(cell)
    clip = band_noise(2, 0.05)
    assert len(ts(clip, least)) == len(clip)
    with pytest.raises(ValueError, match="ts factor"):
        ts(clip, below(least))


@row("`hfa` amplitude sum")
def test_hfa_amplitude_sum(cell):
    (cap,) = numbers(cell)
    clip = band_noise(3, 0.05)
    out, scale = hfa(clip, ((1000.0, cap / 2), (2000.0, cap / 2)))
    assert np.isfinite(out.samples).all() and 0.0 < scale < 1.0
    with pytest.raises(ValueError, match="amplitudes sum to"):
        hfa(clip, ((1000.0, above(cap)),))


# --- features -----------------------------------------------------------------


@row("log floor on the filterbank energies")
def test_log_floor(cell):
    (floor,) = numbers(cell)
    silence = AudioBuffer(np.zeros(SR), SR)
    logs = extract_features(silence, FeatureConfig(include_dct=False)).data
    assert (logs == np.log(floor)).all()


@row("default front end: frame (ms), hop (ms), mel filters, MFCCs")
def test_default_front_end(cell):
    frame_ms, hop_ms, n_filters, n_coefficients = numbers(cell)
    clip = band_noise(4, 0.3)
    stated = FeatureConfig(frame_ms=frame_ms, hop_ms=hop_ms, n_filters=n_filters,
                           n_coefficients=n_coefficients)
    assert extract_features(clip).data.tobytes() == \
        extract_features(clip, stated).data.tobytes()


@row("frames of 1 s at 16 kHz, default front end")
def test_frames_of_one_second(cell):
    (frames,) = numbers(cell)
    assert extract_features(band_noise(5, 1.0)).n_frames == frames


def filter_count_rule(frame_ms, least, most):
    """MFSC at frame_ms takes least and most filters and refuses one past
    either, naming the range."""
    clip = band_noise(6, 0.1)
    for n_filters in (least, most):
        config = FeatureConfig(frame_ms=frame_ms, include_dct=False, n_filters=n_filters)
        assert extract_features(clip, config).data.shape[1] == n_filters
    for n_filters in (least - 1, most + 1):
        config = FeatureConfig(frame_ms=frame_ms, include_dct=False, n_filters=n_filters)
        with pytest.raises(ValueError, match=re.escape(f"n_filters must be in [{least}, {most}]")):
            extract_features(clip, config)


@row("`n_filters` range")
def test_filter_count_range(cell):
    # 0.0625 ms is a one-sample frame, whose one-point FFT has one bin
    for frame_ms in (0.0625, 10.0, 20.0, 25.0, 33.0):
        least, most = formula(cell, frame_samples=round(frame_ms * SR / 1000))
        filter_count_rule(frame_ms, least, most)


@row("`n_filters` at most, 20 ms frame at 16 kHz")
def test_filter_count_at_the_default_frame(cell):
    (most,) = numbers(cell)
    filter_count_rule(20.0, 1, most)


@row("`garble features` text: significant digits")
def test_features_text_digits(cell, wav_on_disk, capsys):
    (digits,) = numbers(cell)
    path = wav_on_disk(band_noise(7, 0.1))
    assert main(["features", str(path)]) == 0
    want = extract_features(read_wav(path.read_bytes())).data
    assert capsys.readouterr().out.split() == [f"{v:.{digits}g}" for v in want.ravel()]


@row("`pre_emphasis` coefficient")
def test_pre_emphasis_range(cell):
    least, most = numbers(cell)
    # full-scale samples of alternating sign, which pre-emphasis at 1 doubles
    loudest = AudioBuffer(np.resize([1.0, -1.0], SR // 10), SR)
    for coefficient in (least, most):
        rows = extract_features(loudest, FeatureConfig(pre_emphasis=coefficient)).data
        assert np.isfinite(rows).all()
    for coefficient in (below(least), above(most)):
        with pytest.raises(ValueError, match=r"pre_emphasis must be finite and in"):
            FeatureConfig(pre_emphasis=coefficient)


# --- VAD ----------------------------------------------------------------------


def levels(runs):
    """Constant-level 10 ms frames at 16 kHz: each (frame count, dB) run in
    turn, so a frame's mean-square energy is its level squared."""
    amps = [0.01 * 10.0 ** (db / 20.0) for count, db in runs for _ in range(count)]
    return AudioBuffer(np.repeat(amps, 160), SR)


VAD_CLIPS = {
    # runs 9.5 and 8.5 dB over a floor at 0 dB; the 30 dB run lifts the cap
    "margin": levels([(20, 0), (10, 30), (20, 0), (10, 9.5), (20, 0), (10, 8.5), (20, 0)]),
    # 101 frames whose 9th, 10th and 11th smallest are -3, 0 and 3 dB, with
    # runs 10.5 and 7.5 dB over the 10th
    "percentile": levels([(9, -6), (1, -3), (1, 0), (30, 3), (10, 30), (20, 3), (10, 10.5),
                          (9, 3), (10, 7.5), (1, 3)]),
    # a loudest run of 15 dB sets the floor at -5 dB, below the 0 dB base:
    # runs at 4.5 and 3.5 dB sit either side of a 9 dB margin over it
    "cap": levels([(40, 0), (10, 15), (20, 0), (10, 3.5), (20, 0), (10, 4.5), (20, 0)]),
    # gaps of 5 and 6 silent frames between active runs
    "hangover": levels([(10, -400), (10, 0), (5, -400), (10, 0), (20, -400), (10, 0),
                        (6, -400), (10, 0), (20, -400)]),
    # regions of 30 and 29 ms, each the whole clip
    "region-30-ms": AudioBuffer(np.random.default_rng(5).uniform(-0.5, 0.5, 480), SR),
    "region-29-ms": AudioBuffer(np.random.default_rng(5).uniform(-0.5, 0.5, 464), SR),
}


@row("VAD: frame (ms), floor percentile, floor cap below the loudest frame (dB), "
     "margin (dB), hangover (frames), minimum region (ms)")
def test_vad(cell):
    stated = numbers(cell)
    for name, clip in VAD_CLIPS.items():
        assert detect_speech(clip) == detect_speech_loop(clip, *stated), name


# --- size caps and the channel ------------------------------------------------


@row("points in a range, a sweep grid or an attack ladder")
def test_point_cap(cell, tmp_path, capsys):
    (cap,) = numbers(cell)
    assert len(parse_float_range(f"1:{cap}:1")) == cap
    with pytest.raises(ValueError, match="too many points"):
        parse_float_range(f"1:{cap + 1}:1")
    # both caps are checked before the (missing) input is read
    missing = str(tmp_path / "missing.wav")
    grid = ["sweep", missing, str(tmp_path / "out"), "--tdi-ms-range", "1:2:1",
            "--rpg-ms-range", f"1:{cap // 2 + 1}:1"]
    ladder = ["attack", missing, "--target-phrase", "x", "--backend", f"mock:{missing}:1",
              "--count", str(cap + 1)]
    for argv, fragment in ((grid, f"has {2 * (cap // 2 + 1)} points"),
                           (ladder, f"--count {cap + 1} is more than {cap}")):
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@row("FIR taps of a band edge")
def test_tap_cap(cell):
    (cap,) = numbers(cell)
    # a band edge at f Hz needs 4 * rate / (0.4 * f) taps, rounded up to odd
    assert lowpass_length(10 * SR / (cap - 1), SR) == cap - 1
    edge = 10 * SR / (cap + 1)
    with pytest.raises(ValueError, match="needs too many taps"):
        lowpass_length(edge, SR)
    with pytest.raises(ValueError, match="needs too many taps"):
        simulate(band_noise(8, 0.05), ChannelConfig(band_low=edge))


@row("channel `snr_db`")
def test_snr_range(cell):
    (least,) = numbers(cell)
    assert cell.endswith("or inf")
    loud = AudioBuffer(np.full(800, 0.99), SR)
    for snr_db in (least, math.inf):
        out, _scale = simulate(loud, ChannelConfig(snr_db=snr_db))
        assert np.isfinite(out.samples).all()
    with pytest.raises(ValueError, match="snr_db must be"):
        ChannelConfig(snr_db=below(least))


@row("channel `reverb_decay`")
def test_reverb_decay_range(cell):
    least, most = numbers(cell)
    for decay in (least, most):
        ChannelConfig(reverb_decay=decay)
    for decay in (below(least), above(most)):
        with pytest.raises(ValueError, match="reverb_decay must be in"):
            ChannelConfig(reverb_decay=decay)


def aired(config):
    return simulate(band_noise(9, 0.2), config)[0].samples.tobytes()


@row("`harsh` preset: band low (Hz), band high (Hz), SNR (dB), reverb taps, "
     "spacing (ms), decay")
def test_harsh_preset(cell):
    low, high, snr_db, taps, spacing_ms, decay = numbers(cell)
    stated = ChannelConfig(band_low=float(low), band_high=float(high), snr_db=float(snr_db),
                           reverb_taps=taps, reverb_delay_ms=float(spacing_ms),
                           reverb_decay=decay)
    assert aired(resolve_channel("harsh")) == aired(stated)


def test_the_channel_file_shown_is_the_harsh_preset():
    shown = parse_channel_config(code_block("Channel config format"))
    assert aired(shown) == aired(resolve_channel("harsh"))


# --- the attack ---------------------------------------------------------------


def exhausted_queries(wav_on_disk, capsys, *flags):
    """The query count garble attack reports when every query is rejected."""
    src = str(wav_on_disk(band_noise(10, 0.3)))
    assert main(["attack", src, "--target-phrase", "x", "--backend", f"mock:{src}:0",
                 *flags]) == 1
    return int(re.fullmatch(r"no candidate accepted \(queries=(\d+)\)\n",
                            capsys.readouterr().err).group(1))


@row("default query budget")
def test_default_budget(cell, wav_on_disk, capsys):
    (budget,) = numbers(cell)
    clip = band_noise(11, 0.1)
    assert MockOracle(clip, "x", 1.0).budget == budget
    assert RemoteConfig(url="http://127.0.0.1:9/stt").budget == budget
    assert exhausted_queries(wav_on_disk, capsys, "--count", str(budget + 5)) == budget


@row("default tdi ladder: start (ms), step (ms), rungs")
def test_default_ladder(cell, wav_on_disk, capsys):
    start, step, rungs = numbers(cell)
    windows = [p.tdi_window_ms for p in tdi_probe_schedule()]
    assert windows == [start + i * step for i in range(rungs)]
    assert exhausted_queries(wav_on_disk, capsys, "--budget", str(rungs + 5)) == rungs


@row("spectrogram range (dB)")
def test_spectrogram_range(cell, tmp_path, wav_on_disk):
    (span,) = numbers(cell)
    # 2 kHz at 0.5 and 5 kHz half the range down, each a whole number of
    # cycles per 20 ms frame and on a bin of the 512-point FFT: the 5 kHz
    # row sits half way up the grey scale, 255 / 2
    t = np.arange(8000) / SR
    x = 0.5 * (np.sin(2 * np.pi * 2000 * t) + 10 ** (-span / 40) * np.sin(2 * np.pi * 5000 * t))
    out = tmp_path / "spec.pgm"
    assert main(["spectrogram", str(wav_on_disk(AudioBuffer(x, SR))), str(out)]) == 0
    header, pixels = out.read_bytes().split(b"255\n", 1)
    width, height = map(int, header.split()[1:])
    image = np.frombuffer(pixels, np.uint8).reshape(height, width)
    assert (image[256 - 64] == 255).all()  # rows count bins down from the top
    assert np.all(np.abs(image[256 - 160] - 127.5) <= 1.0)


@row("remote `max_word_edit_distance` default")
def test_default_word_edit_distance(cell, stub_server):
    (edits,) = numbers(cell)
    target = "abcdefgh"
    stub_server.responses = [
        (200, json.dumps({"transcript": "x" * k + target[k:]}).encode())
        for k in (edits, edits + 1)]
    backend = RemoteTranscriber(RemoteConfig(url=stub_server.url), target)
    clip = band_noise(12, 0.05)
    assert [backend.transcribe(clip).accepted for _ in range(2)] == [True, False]


@row("exit codes: success, operational failure, usage or parameter error")
def test_exit_codes(cell, tmp_path, wav_on_disk, capsys, stub_server):
    success, failure, usage = numbers(cell)
    src = str(wav_on_disk(band_noise(13, 0.3)))
    stub_server.responses = [(500, b"down")]
    (tmp_path / "stt.json").write_text(json.dumps({"url": stub_server.url}))
    attack = ["attack", src, "--target-phrase", "x", "--backend"]
    assert main(["vad", src]) == success
    assert main([*attack, f"mock:{src}:0"]) == failure  # exhausted
    assert main([*attack, f"remote:{tmp_path / 'stt.json'}"]) == failure  # backend error
    assert main(["perturb", src, str(tmp_path / "out.wav"), "--ts", "50"]) == usage
    capsys.readouterr()


# --- the CLI tour -------------------------------------------------------------


def tour():
    """Each `garble` command line of the CLI tour, continuations joined."""
    block = code_block("CLI tour", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("garble ")]


TOUR = tour()


@pytest.fixture
def tour_files(tmp_path, wav_on_disk, monkeypatch):
    """The tour's inputs in the working directory: 1.5 s WAVs at 44.1 kHz
    and the README's channel file, as room.cfg."""
    monkeypatch.chdir(tmp_path)
    for seed, name in enumerate(("in.wav", "a.wav", "b.wav", "cmd.wav"), 21):
        wav_on_disk(band_noise(seed, 1.5, sr=44100), name)
    (tmp_path / "room.cfg").write_text(code_block("Channel config format"))
    return tmp_path


@pytest.mark.parametrize("argv", TOUR, ids=[f"{n}-{argv[0]}" for n, argv in enumerate(TOUR, 1)])
def test_tour_line_exits_0(argv, tour_files, request, monkeypatch, capsys):
    if any(arg.startswith("remote:") for arg in argv):
        server = request.getfixturevalue("stub_server")
        config = json.loads(code_block("Remote backend config", "json"))
        (tour_files / "stt.json").write_text(json.dumps({**config, "url": server.url}))
        monkeypatch.setenv(config["auth_env"], "tour-token")
        server.responses = [(200, json.dumps({"result": [{"transcript": "open the door"}]})
                             .encode())]
    assert main(argv) == 0, capsys.readouterr().err
    if any(arg.startswith("remote:") for arg in argv):
        assert [r["headers"]["Authorization"] for r in server.requests] == ["Bearer tour-token"]


def test_the_tour_runs_every_subcommand():
    assert {argv[0] for argv in TOUR} == {"perturb", "sweep", "features", "compare", "vad",
                                          "simulate", "attack", "spectrogram"}
