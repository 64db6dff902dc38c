import numpy as np
import pytest
import scipy.fft

from garble.audio_io import AudioBuffer
from garble.features import (
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
from oracles import (dct2_reference, direct_window_mags, mel_bank_reference,
                     mfcc_reference)
from synth import SR, band_noise, random_buffer, sine_buffer


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


def test_filterbank_needs_a_filter():
    with pytest.raises(ValueError):
        mel_filterbank(0, 512, SR)


# --- framing laws ------------------------------------------------------------


def test_frame_count_law():
    feats = extract_features(random_buffer(1, 16000))
    assert feats.n_frames == 99
    assert feats.data.shape == (99, 13)
    # randomized lengths follow (len - frame) // hop + 1
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(320, 30000))
        feats = extract_features(AudioBuffer(rng.uniform(-0.5, 0.5, n), SR))
        assert feats.n_frames == (n - 320) // 160 + 1


def test_too_short_audio_raises():
    with pytest.raises(ValueError):
        extract_features(random_buffer(2, 319))
    # exactly one frame is fine
    assert extract_features(random_buffer(2, 320)).n_frames == 1


# --- spectral content --------------------------------------------------------


def test_sine_peaks_in_nearest_filter():
    buf = sine_buffer(1000.0, duration_s=1.0, amp=0.5)
    energies = mel_energies(buf)
    centers = mel_centers(FeatureConfig.n_filters, SR)
    nearest = int(np.argmin(np.abs(centers - 1000.0)))
    assert np.all(energies.argmax(axis=1) == nearest)


def test_zero_signal_features():
    feats = extract_features(AudioBuffer(np.zeros(16000), SR))
    # all energies hit the log floor; DCT of a constant vector is
    # (sqrt(n) * c, 0, ..., 0)
    want0 = np.sqrt(26.0) * np.log(1e-10)
    assert np.allclose(feats.data[:, 0], want0, rtol=0, atol=1e-8)
    assert np.max(np.abs(feats.data[:, 1:])) < 1e-9


def test_mfcc_matches_bruteforce_reference():
    buf = band_noise(21, duration_s=0.2)
    got = extract_features(buf).data
    want = mfcc_reference(buf.samples, SR)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-6


def test_rectangular_and_magnitude_modes_match_reference():
    buf = band_noise(22, duration_s=0.15)
    config = FeatureConfig(analysis_window="rectangular", use_power=False)
    got = extract_features(buf, config).data
    want = mfcc_reference(buf.samples, SR, window="rectangular", use_power=False)
    assert np.max(np.abs(got - want)) < 1e-6


def test_pre_emphasis_matches_reference():
    buf = band_noise(23, duration_s=0.15)
    config = FeatureConfig(pre_emphasis=0.97)
    got = extract_features(buf, config).data
    want = mfcc_reference(buf.samples, SR, pre_emphasis=0.97)
    assert np.max(np.abs(got - want)) < 1e-6


def test_mfsc_is_log_energies():
    buf = band_noise(24, duration_s=0.2)
    config = FeatureConfig(include_dct=False)
    feats = extract_features(buf, config)
    assert feats.data.shape[1] == 26
    want = np.log(np.maximum(mel_energies(buf, config), 1e-10))
    assert np.array_equal(feats.data, want)


def test_dct_agrees_with_direct_formula(rng):
    # random log energies over the range the log floor allows; measured
    # worst cases over 20 seeds: 2.9e-14 from scipy's DCT (scipy is a
    # test-only dependency) and 1.4e-13 from the direct formula, whose
    # sequential sum of unreduced cosines carries most of that error
    for n_coeffs, n_filters in [(13, 26), (20, 20), (13, 40), (1, 1)]:
        logs = rng.uniform(np.log(1e-10), 10.0, (100, n_filters))
        got = logs @ _dct_rows(n_coeffs, n_filters).T
        lib = scipy.fft.dct(logs, type=2, norm="ortho", axis=1)[:, :n_coeffs]
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
    with pytest.raises(ValueError):
        FeatureConfig(include_dct=False, n_filters=0)


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


def test_feature_distance_properties():
    a = extract_features(band_noise(27, duration_s=0.3))
    b = extract_features(band_noise(28, duration_s=0.3))
    assert feature_distance(a, a) == 0.0
    d = feature_distance(a, b)
    assert d > 0.0
    assert feature_distance(b, a) == d


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
