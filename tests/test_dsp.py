import numpy as np
import pytest

from garble.audio_io import AudioBuffer
from garble.dsp import (apply_fir, design_lowpass, frames, lowpass_length, next_pow2, tiles,
                        true_runs)
from oracles import hamming_window, low_pass, measure_snr, sine_fit_amplitude
from synth import SR, random_buffer, sine_buffer


# --- framing ----------------------------------------------------------------


def test_frames_overlap_and_validation():
    x = np.arange(10, dtype=np.float64)
    view = frames(x, 4, 2)
    assert view.shape == (4, 4)
    assert np.array_equal(view[1], [2.0, 3.0, 4.0, 5.0])
    assert frames(np.zeros(0), 4, 2).shape == (0, 4)
    assert frames(np.zeros(3), 4, 2).shape == (0, 4)
    with pytest.raises(ValueError):
        frames(x, 0, 2)
    with pytest.raises(ValueError):
        frames(x, 4, 0)
    with pytest.raises(ValueError):  # not the ZeroDivisionError of len(x) % 0
        tiles(x, 0)


@pytest.mark.parametrize("mask, starts, ends", [
    ([], [], []),
    ([False, False], [], []),
    ([True], [0], [1]),
    ([True, True, False, True], [0, 3], [2, 4]),
    ([False, True, True, False, False, True, False], [1, 5], [3, 6]),
])
def test_true_runs_gives_each_run_of_true_with_an_exclusive_end(mask, starts, ends):
    got_starts, got_ends = true_runs(np.array(mask, dtype=bool))
    assert got_starts.tolist() == starts and got_ends.tolist() == ends


def test_next_pow2_table():
    got = [next_pow2(n) for n in range(1, 10)]
    assert got == [1, 2, 4, 4, 8, 8, 8, 8, 16]


# --- FIR low-pass -----------------------------------------------------------


def test_lowpass_passband_amplitude():
    buf = sine_buffer(1000.0, duration_s=1.0, amp=0.5)
    out = low_pass(buf, 4000.0)
    # ignore the filter's edge transients when fitting
    amp = sine_fit_amplitude(out.samples[2000:-2000], SR, 1000.0)
    assert abs(20 * np.log10(amp / 0.5)) < 0.1


def test_lowpass_stopband_rejection():
    for freq in [5200.0, 6000.0, 7500.0]:
        buf = sine_buffer(freq, duration_s=1.0, amp=0.5)
        out = low_pass(buf, 4000.0)
        amp = sine_fit_amplitude(out.samples[2000:-2000], SR, freq)
        assert 20 * np.log10(amp / 0.5) < -40.0


def test_lowpass_at_nyquist_is_identity():
    buf = random_buffer(5, 3000)
    out = low_pass(buf, SR / 2.0)
    assert np.allclose(out.samples, buf.samples, atol=1e-12)


def test_lowpass_preserves_length_and_alignment():
    n = 4000
    x = np.zeros(n)
    x[n // 2] = 1.0
    taps = design_lowpass(3000.0, SR, lowpass_length(3000.0, SR))
    out = apply_fir(x, taps)
    assert len(out) == n
    assert int(np.argmax(np.abs(out))) == n // 2


def test_design_lowpass_validation():
    taps = design_lowpass(3000.0, SR, lowpass_length(3000.0, SR))
    assert len(taps) % 2 == 1
    assert abs(np.sum(taps) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        design_lowpass(0.0, SR, 41)
    with pytest.raises(ValueError):
        design_lowpass(8000.1, SR, 41)
    with pytest.raises(ValueError):
        design_lowpass(1000.0, SR, numtaps=10)


@pytest.mark.parametrize("cutoff, numtaps", [(3000.0, 53), (1000.0, 41), (7000.0, 23)])
def test_design_lowpass_is_a_hamming_windowed_sinc(cutoff, numtaps):
    fc = cutoff / SR
    m = np.arange(numtaps) - (numtaps - 1) / 2
    want = 2.0 * fc * np.sinc(2.0 * fc * m) * hamming_window(numtaps)
    want /= np.sum(want)
    got = design_lowpass(cutoff, SR, numtaps)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def test_lowpass_length_is_four_rates_over_the_transition_width():
    # 4 * fs / (0.4 * cutoff) rounded, then up to odd, worked by hand
    cases = {(100.0, 16000): 1601,     # 1600 -> 1601
             (1000.0, 16000): 161,     # 160 -> 161
             (3000.0, 16000): 53,      # 53.3 -> 53
             (7000.0, 16000): 23,      # 22.86 -> 23
             (300.0, 22050): 735,      # 735
             (8000.0, 16000): 21,      # 20 -> 21
             # the longest filter, one tap under the 2**24 cap
             (10 * 16000 / (2**24 - 1), 16000): 2**24 - 1,
             (10 * 48000 / (2**24 - 1), 48000): 2**24 - 1}
    assert {key: lowpass_length(*key) for key in cases} == cases


@pytest.mark.parametrize("cutoff", [0.0, 5e-324, 1e-310, 1e-300, 1e-3,
                                    10 * SR / (2**24 + 1), float("nan")])
def test_lowpass_length_rejects_an_edge_too_low_for_any_filter(cutoff):
    # 4 * 16000 / (0.4 * cutoff) is a division by zero, inf, or past the
    # 2**24 tap cap: 1e-3 Hz would need 160000001 taps, and the edge next
    # to last 2**24 + 1
    with pytest.raises(ValueError, match=f"low-pass edge at {cutoff!r} Hz"):
        lowpass_length(cutoff, SR)


def test_apply_fir_rejects_even_taps():
    with pytest.raises(ValueError):
        apply_fir(np.zeros(16), np.ones(4) / 4)


# --- SNR --------------------------------------------------------------------


def test_measure_snr_exact_value():
    # sine power A^2/2 = 0.125 over a whole number of cycles; adding a
    # constant 0.05 gives residual power 0.0025 -> 10*log10(50) dB
    ref = sine_buffer(1000.0, duration_s=1.0, amp=0.5)
    test = AudioBuffer(ref.samples + 0.05, SR)
    got = measure_snr(ref, test)
    assert abs(got - 10.0 * np.log10(0.125 / 0.0025)) < 1e-9


def test_measure_snr_edge_cases():
    ref = random_buffer(9, 100)
    assert measure_snr(ref, ref) == np.inf
    silent = AudioBuffer(np.zeros(100), SR)
    assert measure_snr(silent, ref) == -np.inf
    with pytest.raises(ValueError):
        measure_snr(ref, AudioBuffer(np.zeros(99), SR))
    with pytest.raises(ValueError):
        measure_snr(ref, AudioBuffer(np.zeros(100), 8000))
