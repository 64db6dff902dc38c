import numpy as np

from garble.audio_io import AudioBuffer
from garble.perturb import rpg, tdi
from garble.vad import SpeechRegion, detect_speech, format_regions
from synth import SR, band_noise, burst_fixture


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


def test_scaling_does_not_move_regions():
    buf = one_burst()
    base = detect_speech(buf)
    for g in [2.0 ** -10, 0.25, 4.0]:  # exact power-of-two scalings
        scaled = detect_speech(AudioBuffer(buf.samples * g, SR))
        assert scaled == base


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


def test_format_regions():
    regions = [SpeechRegion(0.5, 1.05), SpeechRegion(1.2, 1.7)]
    assert format_regions(regions) == "0.500\t1.050\n1.200\t1.700\n"
    assert format_regions([]) == ""
