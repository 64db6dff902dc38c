import numpy as np
import pytest

from garble.audio_io import AudioBuffer, write_wav
from garble.channel import PRESETS, simulate
from garble.features import extract_features, feature_distance
from garble.perturb import PerturbationParams, apply_params, rpg, tdi
from garble.vad import FRAME_MS, HANGOVER_FRAMES, SpeechRegion, detect_speech, format_regions
from synth import SR, band_noise, burst_fixture, voiced_utterance


def one_burst(span=(0.5, 1.0), duration_s=2.0, seed=101, amp=0.5):
    buf, _ = burst_fixture(seed, duration_s=duration_s, spans=(span,), amp=amp)
    return buf


def test_silence_has_no_regions():
    assert detect_speech(AudioBuffer(np.zeros(16000), SR)) == []
    assert detect_speech(AudioBuffer(np.zeros(0), SR)) == []


def test_uniform_noise_is_one_full_region():
    buf = band_noise(40, duration_s=1.0, amp=0.9)
    regions = detect_speech(buf)
    assert len(regions) == 1
    assert regions[0].start_s <= 0.05
    assert regions[0].end_s >= 0.95


def test_single_burst_endpoints():
    # a -6 dBFS burst on [0.5, 1.0] inside digital silence: the region must
    # start within 50 ms of onset; hangover may trail the offset by up to
    # 50 ms beyond that allowance
    regions = detect_speech(one_burst())
    assert len(regions) == 1
    r = regions[0]
    assert abs(r.start_s - 0.5) <= 0.05 + 1e-9
    assert abs(r.end_s - 1.0) <= 0.1 + 1e-9
    assert r.duration >= 0.45


def test_nearby_bursts_merge_distant_bursts_split():
    # 40 ms gap is inside the 50 ms hangover -> one region
    merged, _ = burst_fixture(102, spans=((0.5, 0.8), (0.84, 1.1)))
    assert len(detect_speech(merged)) == 1
    # 400 ms gap -> two regions
    split, _ = burst_fixture(103, spans=((0.5, 0.8), (1.2, 1.5)))
    regions = detect_speech(split)
    assert len(regions) == 2
    assert regions[0].end_s < regions[1].start_s


def test_tiny_terminal_burst_is_dropped():
    # activity confined to the final frame cannot grow past the file end, so
    # the 30 ms minimum-region rule removes it
    buf = one_burst(span=(0.99, 1.0), duration_s=1.0)
    assert detect_speech(buf) == []
    # the same burst mid-file keeps its hangover and survives
    buf = one_burst(span=(0.49, 0.5), duration_s=1.0)
    regions = detect_speech(buf)
    assert len(regions) == 1
    assert regions[0].duration >= 0.03


def test_regions_survive_perturbation():
    buf, spans = burst_fixture(104)
    base = detect_speech(buf)
    assert len(base) == len(spans)
    for variant in [tdi(buf, 2.0), rpg(buf, 2.0, seed=3)]:
        got = detect_speech(variant)
        assert len(got) == len(base)
        for have, want in zip(got, base):
            assert abs(have.start_s - want.start_s) <= 0.02 + 1e-9
            assert abs(have.end_s - want.end_s) <= 0.02 + 1e-9


@pytest.mark.parametrize("floor_db", [None, -40.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_voiced_word_is_one_region_ending_a_hangover_late(seed, floor_db):
    # three two-vowel words between digital silence or a white floor 40 dB
    # under them: one region per word, its start on the onset and its end
    # HANGOVER_FRAMES frames past the offset, each within one frame
    buf, words = voiced_utterance(seed, floor_db=floor_db)
    regions = detect_speech(buf)
    frame_s = FRAME_MS / 1000.0
    assert len(regions) == len(words)
    for region, (start, end) in zip(regions, words):
        assert abs(region.start_s - start) <= frame_s + 1e-9
        assert abs(region.end_s - (end + HANGOVER_FRAMES * frame_s)) <= frame_s + 1e-9


def test_an_aired_query_and_a_sweep_render_call_no_numpy_reduction_helper(monkeypatch):
    # inside the query loop numpy's Python-level helpers cost several times
    # their isolated time, so the per-query and per-render paths reduce with
    # ufuncs. Each path is run once first, so that no cached table is built
    # under the patch
    source, _ = burst_fixture(105, duration_s=1.0, spans=((0.2, 0.7),))
    channel = PRESETS["harsh"]
    reference = extract_features(simulate(source, channel)[0])
    aired = PerturbationParams(tdi_window_ms=2.0, rpg_window_ms=2.0, rpg_seed=7)
    swept = PerturbationParams(tdi_window_ms=2.0, rpg_window_ms=1.0, rpg_seed=7,
                               hfa_components=((7500.0, 0.1),), ts_factor_percent=150.0)

    def aired_query():
        heard, _scale = simulate(apply_params(source, aired), channel)
        return detect_speech(heard), feature_distance(extract_features(heard), reference)

    def sweep_render():
        return write_wav(apply_params(source, swept))

    want = aired_query(), sweep_render()
    assert want[0][0]  # the gate passes, so the query reaches the features

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy reduction helper ran on the per-query path")

    monkeypatch.setattr(np, "percentile", refuse)
    monkeypatch.setattr(np, "mean", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    assert (aired_query(), sweep_render()) == want


def test_format_regions():
    regions = [SpeechRegion(0.5, 1.05), SpeechRegion(1.2, 1.7)]
    assert format_regions(regions) == "0.500\t1.050\n1.200\t1.700\n"
    assert format_regions([]) == ""
