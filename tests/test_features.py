import re
import tracemalloc

import numpy as np
import pytest

from garble.audio_io import AudioBuffer
from garble.features import (
    _LOG_FLOOR,
    FeatureConfig,
    FeatureMatrix,
    _dct_rows,
    extract_features,
    feature_distance,
    hz_to_mel,
    mel_energies,
    mel_filterbank,
    mel_to_hz,
    max_window_magnitude_diff,
)
from garble.perturb import tdi
from oracles import dct2_reference, direct_window_mags, mel_bank_reference
from synth import (SR, band_noise, features_peak_bound, random_buffer, sine_buffer,
                   voiced_utterance, warm_peak_bytes)


# --- mel scale and filterbank -----------------------------------------------


def mel_centers(n_filters, sample_rate):
    """Center (Hz) of each filter: the inner vertices, equally spaced in mel."""
    mels = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_filters + 2)
    return mel_to_hz(mels[1:-1])


def test_mel_scale_closed_form():
    assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-9
    assert hz_to_mel(0.0) == 0.0
    for hz in [50.0, 440.0, 1000.0, 7999.0]:
        assert abs(mel_to_hz(hz_to_mel(hz)) - hz) < 1e-9 * hz


def test_filterbank_shape_and_weights():
    bank = mel_filterbank(26, 512, SR)
    assert bank.shape == (26, 257)
    assert np.all(bank >= 0.0)
    assert np.all(bank.max(axis=1) <= 1.0 + 1e-12)
    assert np.all(bank.max(axis=1) > 0.0)
    # every bin between the outermost centers is covered by some filter
    centers = mel_centers(26, SR)
    freqs = np.arange(257) * (SR / 512)
    inner = (freqs > centers[0]) & (freqs < centers[-1])
    assert np.all(bank[:, inner].sum(axis=0) > 0.0)
    assert np.all(np.diff(centers) > 0.0)


def test_filterbank_matches_reference_construction():
    got = mel_filterbank(26, 512, SR)
    want = mel_bank_reference(26, 512, SR)
    assert np.max(np.abs(got - want)) < 1e-9


# --- framing laws ------------------------------------------------------------


def test_too_short_audio_raises():
    with pytest.raises(ValueError):
        extract_features(random_buffer(2, 319))
    # exactly one frame is fine
    assert extract_features(random_buffer(2, 320)).n_frames == 1


@pytest.mark.parametrize("seconds, silent", [
    pytest.param(6, False, id="6"), pytest.param(60, False, id="60"),
    pytest.param(60, True, id="60-half-silent")])
def test_extract_features_peak_is_its_energies_plus_one_block(seconds, silent):
    # 599 or 5999 frames of 320 samples at 16 kHz, streamed one block at a
    # time as features_peak_bound states it. The whole power matrix, built
    # before the product, peaked at 1.45 and 13.6 MB here (numpy 2.4). With
    # the first half silent, a copy of the 3000 live frames alone would be
    # 7.7 MB, so the live frames must stream in place too.
    n_frames = (seconds * SR - 320) // 160 + 1
    x = random_buffer(5, seconds * SR).samples
    if silent:
        x = np.concatenate([np.zeros(len(x) // 2), x[len(x) // 2:]])
    peak = warm_peak_bytes(extract_features, AudioBuffer(x, SR))
    assert peak <= features_peak_bound(n_frames)


def test_only_the_frames_that_hold_a_nonzero_sample_are_transformed(monkeypatch):
    # the utterance's gaps are digital silence; frames of 320 samples, hop 160
    audio, _ = voiced_utterance(3)
    x = audio.samples
    live = [bool(np.any(x[i:i + 320])) for i in range(0, len(x) - 319, 160)]
    assert 0 < sum(live) < len(live)
    rows = []
    rfft = np.fft.rfft

    def counting_rfft(a, *args, **kwargs):
        rows.append(len(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    assert extract_features(audio).n_frames == len(live)
    assert sum(rows) == sum(live)
    # an all-zero clip transforms nothing and still gives one floor row per frame
    rows.clear()
    got = extract_features(AudioBuffer(np.zeros(SR), SR)).data
    assert rows == []
    floor_rows = np.full((99, 26), np.log(_LOG_FLOOR)) @ _dct_rows(13, 26).T
    assert got.tobytes() == floor_rows.tobytes()


def test_too_many_filters_are_refused_before_any_transform():
    # the bank's bin rule needs only the frame length and the rate, so a
    # 60 s clip is refused without its 12 MB spectrum being built
    audio = random_buffer(7, 60 * SR)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_filters must be in"):
            mel_energies(audio, FeatureConfig(n_filters=10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024


# --- spectral content --------------------------------------------------------


def test_sine_peaks_in_nearest_filter():
    buf = sine_buffer(1000.0, duration_s=1.0, amp=0.5)
    energies = mel_energies(buf)
    centers = mel_centers(FeatureConfig.n_filters, SR)
    nearest = int(np.argmin(np.abs(centers - 1000.0)))
    assert np.all(energies.argmax(axis=1) == nearest)


def test_dct_agrees_with_direct_formula(rng):
    # random log energies over the range the log floor allows; measured
    # worst cases over 20 seeds: 2.9e-14 from scipy's DCT (scipy is a
    # test-only dependency) and 1.4e-13 from the direct formula, whose
    # sequential sum of unreduced cosines carries most of that error
    scipy_fft = pytest.importorskip("scipy.fft")
    for n_coeffs, n_filters in [(13, 26), (20, 20), (13, 40), (1, 1)]:
        logs = rng.uniform(np.log(1e-10), 10.0, (100, n_filters))
        got = logs @ _dct_rows(n_coeffs, n_filters).T
        lib = scipy_fft.dct(logs, type=2, norm="ortho", axis=1)[:, :n_coeffs]
        ref = np.array([dct2_reference(v)[:n_coeffs] for v in logs])
        assert np.max(np.abs(got - lib)) < 6e-14
        assert np.max(np.abs(got - ref)) < 1e-12


def test_gain_shifts_only_the_first_coefficient():
    buf = band_noise(25, duration_s=0.3)
    g = 4.0
    a = extract_features(buf).data
    b = extract_features(AudioBuffer(buf.samples / g, SR)).data
    # power spectrum scales by 1/g^2 -> every log energy shifts by -2 ln g
    # -> DCT moves only coefficient 0, by sqrt(26) * 2 ln g
    shift = a[:, 0] - b[:, 0]
    assert np.allclose(shift, np.sqrt(26.0) * 2.0 * np.log(g), atol=1e-6)
    assert np.max(np.abs(a[:, 1:] - b[:, 1:])) < 1e-6


# --- config and matrix plumbing ----------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(analysis_window="hann")
    with pytest.raises(ValueError):
        FeatureConfig(frame_ms=0)
    with pytest.raises(ValueError):
        FeatureConfig(n_coefficients=27)
    with pytest.raises(ValueError):
        FeatureConfig(n_coefficients=0)
    # MFSC computes no coefficients, so their count is not checked
    assert FeatureConfig(include_dct=False, n_filters=10).n_filters == 10
    # mel_filterbank owns the whole [1, bins] filter rule
    no_filters = FeatureConfig(include_dct=False, n_filters=0)
    with pytest.raises(ValueError, match=re.escape("n_filters must be in [1, 257]")):
        extract_features(band_noise(25, duration_s=0.1), no_filters)


def test_to_text_roundtrip():
    feats = extract_features(band_noise(26, duration_s=0.1))
    text = feats.to_text()
    assert text.endswith("\n")
    parsed = np.array([[float(v) for v in line.split()]
                       for line in text.strip().split("\n")])
    assert parsed.shape == feats.data.shape
    scale = np.maximum(1e-9, np.abs(feats.data))
    assert np.max(np.abs(parsed - feats.data) / scale) < 1e-8
    assert feats.to_text() == text  # deterministic


def test_feature_distance_truncates_to_shorter():
    long = band_noise(29, duration_s=0.5)
    short = AudioBuffer(long.samples[:4800], SR)
    fa = extract_features(long)
    fb = extract_features(short)
    # the batched FFT is not bit-identical across batch shapes, so the
    # shared frames agree to machine precision rather than exactly
    assert feature_distance(fa, fb) < 1e-12


def test_feature_distance_rejects_mismatches():
    a = extract_features(band_noise(30, duration_s=0.2))
    b = extract_features(band_noise(30, duration_s=0.2), FeatureConfig(n_filters=20))
    with pytest.raises(ValueError):
        feature_distance(a, b)
    c = extract_features(band_noise(30, duration_s=0.2, sr=8000))
    with pytest.raises(ValueError):
        feature_distance(a, c)


def test_feature_distance_rejects_empty_matrices():
    a = extract_features(band_noise(31, duration_s=0.2))
    empty = FeatureMatrix(a.data[:0], a.config, a.sample_rate)
    with pytest.raises(ValueError, match="no frames to compare"):
        feature_distance(a, empty)


def test_max_window_magnitude_diff_matches_direct_dft():
    # 4821 and 4000 samples: 320-sample windows leave a tail in both checks
    a = band_noise(31, duration_s=0.3013)
    b = band_noise(32, duration_s=0.25)
    n, w = len(b), 320
    want = max(float(np.max(np.abs(ma - mb))) / max(float(np.max(ma)), float(np.max(mb)))
               for ma, mb in zip(direct_window_mags(a.samples[:n], w),
                                 direct_window_mags(b.samples, w)))
    assert abs(max_window_magnitude_diff(a, b, 20.0) - want) < 1e-9
    # tdi keeps every window's magnitudes, the tail's included
    assert max_window_magnitude_diff(a, tdi(a, 20.0), 20.0) < 1e-12
    with pytest.raises(ValueError):
        max_window_magnitude_diff(a, AudioBuffer(a.samples, 8000), 20.0)
