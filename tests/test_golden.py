"""Golden sha256 digests of fixed, seeded renders of the public paths.

Each row is one render: every transform of test_properties' TRANSFORMS
table on one clip, extract_features at the default config, at MFSC and
under a rectangular window, spectrum at the default (power) config and in
magnitude, as garble spectrogram draws it, canonicalize from 44.1 kHz
(TRANSFORMS holds the 48 kHz resample and the harsh channel),
detect_speech's regions on a burst fixture, max_window_magnitude_diff of a
clip against its tdi, a mock generic_attack's winner with its write_wav
bytes, and the records and winner of an improved_attack whose feature
threshold drops variants. A change that moves any output byte fails its
row here; a change that means to move one updates that row and names it
in CHANGES.md.

Float results depend on the numpy and Python builds, so the table records
the versions that made it, and under any others every row skips and names
both sets instead of comparing.
"""

import hashlib
import platform

import numpy as np
import pytest

from garble.attack import AttackCandidate, MockOracle, generic_attack, improved_attack
from garble.audio_io import AudioBuffer, canonicalize, write_wav
from garble.features import (FeatureConfig, extract_features, max_window_magnitude_diff,
                              spectrum)
from garble.perturb import tdi, tdi_probe_schedule
from garble.vad import detect_speech
from synth import SR, band_noise, burst_fixture
from test_properties import TRANSFORMS, signal

MADE_WITH = {"numpy": "2.4.6", "python": "3.11.7"}

GOLDEN = {
    "tdi": "94a9f55ef76f6d93ab5b7c2aaf651796d58cc36ce13232d597cfb2b50f253240",
    "rpg": "e1d14df0d0dc7d3820d5a2a934eb7eb3585bbb5228ecfbda9a921f3d8a718916",
    "hfa": "138fa4913d1d5770db49b8ed42b4ca9486b2790cf347d3c50d237688443188c3",
    "ts": "c6e076a5f29f3d0716cd01f1f144ffdcb3b9ffb6cf86aa8ee1c65ffced4b21f6",
    "apply_params": "0c9bdbe78a418c14524f852aa56cd06b511a560a9eaa69ad73e5886d95263272",
    "canonicalize": "0b12ea0f55177debd75da12a57d032c87d155d9869598f64b74ca13a516c69c9",
    "wav-roundtrip": "b24be2b57d1c7f5bb24ee1c5e21f285fcd841b25d4f0b19d10e4fab5f22bb0ed",
    "apply_fir": "7eff1784503bf82b141bfcb0d7d6df2b21e7be0eb5e4b16a466c0c65e768b06b",
    "apply_fir-1-tap": "e06da3cb83680ae369cd22ef81c564a722676a2fd49ba75ec056507828aeaf63",
    "simulate-transparent": "3543aefff8e01334d1b6abd694071aef5c8a22dd2ed0845a3221b91ff0587bb1",
    "simulate-harsh": "89587e30e5698768316ce88d14efe4e91d91974f98a952e5f20bf8685231fbb3",
    "improved_attack-concatenation": "94a9f55ef76f6d93ab5b7c2aaf651796d58cc36ce13232d597cfb2b50f253240",
    "extract_features-mfcc": "541c29e8888ff5d3b068245cfda5e08ed08be70305dbf9336ee76716e7fe06e8",
    "extract_features-mfsc": "666042f3291dab101bc31b0712bf652bf8b205db1f1d2cebadbd55b9012a6c28",
    "spectrum-power": "bac11d4b36fa171e2064b7d242e122d49024a2e35ab9fe74ae6bcc0705c9f5a7",
    "spectrum-magnitude": "63223d603995f5416ede2aa1de5880b9086a76899f1581f05c3a2fefcdc0431c",
    "detect_speech-burst_fixture": "2545074a6e75930bcb60ca842d5ab37f4ee0f0cdd1838066bc06e0a46b05af23",
    "max_window_magnitude_diff-tdi": "84a15dd2d10b13deea4c249d2657ac459339ea0a39e8f4b6c91dced76afda093",
    "canonicalize-44100": "8f7a98c0301450589bcada3bd19469f2399f09b1dad0b55bca8b02f807cf13b6",
    "generic_attack-winner": "82e92273c1d444d7f7eeb2b130c5edd5209964e8480ce693e394f6a56ee354be",
    "generic_attack-winner-write_wav": "0bf28b6b79c8a0cad5789fc1643da61d5fffc0c3be0edb5be724725043bae815",
    "extract_features-rectangular": "e78ecb757167b0eb24bb36df58b51c10afbed4d7923a6a7535b75a43d993a6e7",
    "improved_attack-filtered": "c0f0cf6c15d26001cafd10ada3415b8287558c0c5af5f54289a60ae90c055c1f",
}


def digest(*parts):
    """sha256 over the bytes of each part: arrays as float64, else repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def buffer_digest(audio):
    return digest(audio.sample_rate, audio.samples)


CLIP = AudioBuffer(0.5 * signal(4000, 29), SR)


def attack_winner():
    """The default tdi ladder against a mock whose threshold sits between
    the 2.5 and 3.0 ms rungs' distances (18.69 and 18.13) on 1 s of band
    noise: four rejections, then the 3.0 ms rung wins."""
    source = band_noise(31, 1.0)
    found = generic_attack(source, MockOracle(source, "go", 18.4), tdi_probe_schedule())
    assert isinstance(found, AttackCandidate)
    return found.params, found.distortion_rank, found.verdict, found.audio.samples


def filtered_attack():
    """Two 0.3 s words on the default tdi ladder, k = 2, feature threshold
    20: the filter drops word 0's 1.0, 1.5 and 2.0 ms rungs and word 1's
    1.0 ms rung. A mock on the words' concatenation at threshold 0 rejects
    all four combinations; at 19 it rejects the first two (19.19 and 19.17)
    and accepts the third (18.76)."""
    words = [band_noise(51, 0.3), band_noise(52, 0.3)]
    source = AudioBuffer(np.concatenate([w.samples for w in words]), SR)

    def search(threshold):
        return improved_attack(words, 2, MockOracle(source, "go", threshold),
                               tdi_probe_schedule(), feature_threshold=20.0)
    records = search(0.0).candidates
    found = search(19.0)
    assert isinstance(found, AttackCandidate) and len(records) == 4
    return records, found.params, found.distortion_rank, found.verdict, found.audio.samples


RENDERS = {
    **{name: (lambda path=path: buffer_digest(path(CLIP, 0.1)))
       for name, path in TRANSFORMS.items()},
    "extract_features-mfcc": lambda: digest(extract_features(band_noise(37, 1.0)).data),
    "extract_features-mfsc": lambda: digest(extract_features(
        band_noise(37, 1.0), FeatureConfig(include_dct=False)).data),
    "spectrum-power": lambda: digest(spectrum(band_noise(37, 1.0))),
    "spectrum-magnitude": lambda: digest(spectrum(
        band_noise(37, 1.0), FeatureConfig(use_power=False))),
    "detect_speech-burst_fixture": lambda: digest(
        [(r.start_s, r.end_s) for r in detect_speech(burst_fixture(43)[0])]),
    "max_window_magnitude_diff-tdi": lambda: digest(
        max_window_magnitude_diff(CLIP, tdi(CLIP, 20.0), 20.0)),
    "canonicalize-44100": lambda: buffer_digest(canonicalize(
        AudioBuffer(0.5 * signal(4410, 41), 44100))),
    "generic_attack-winner": lambda: digest(*attack_winner()),
    "generic_attack-winner-write_wav": lambda: digest(write_wav(
        AudioBuffer(attack_winner()[-1], SR))),
    "extract_features-rectangular": lambda: digest(extract_features(
        band_noise(37, 1.0), FeatureConfig(analysis_window="rectangular")).data),
    "improved_attack-filtered": lambda: digest(*filtered_attack()),
}


def running_versions():
    return {"numpy": np.__version__, "python": platform.python_version()}


@pytest.mark.parametrize("name", RENDERS)
def test_render_matches_its_golden_digest(name):
    if running_versions() != MADE_WITH:
        pytest.skip(f"digests made under {MADE_WITH}; running under {running_versions()}")
    assert RENDERS[name]() == GOLDEN[name]


def test_every_render_has_one_golden_row():
    assert set(GOLDEN) == set(RENDERS)
