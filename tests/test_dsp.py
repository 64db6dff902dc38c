import numpy as np
import pytest

from garble.audio_io import AudioBuffer
from garble.dsp import (
    apply_fir,
    design_lowpass,
    frames,
    low_pass,
    measure_snr,
    next_pow2,
)
from oracles import sine_fit_amplitude
from synth import SR, random_buffer, sine_buffer


# --- framing ----------------------------------------------------------------


def test_frame_signal_natural_tail():
    x = np.arange(7, dtype=np.float64)
    view = frames(x, 3, 3)
    assert view.shape == (2, 3)
    assert np.array_equal(view, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert np.array_equal(x[view.size:], [6.0])  # the remainder callers keep
    assert not view.flags.writeable


def test_frame_signal_overlap_and_validation():
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
    out = apply_fir(AudioBuffer(x, SR), design_lowpass(3000.0, SR))
    assert len(out) == n
    assert int(np.argmax(np.abs(out.samples))) == n // 2


def test_design_lowpass_validation():
    taps = design_lowpass(3000.0, SR)
    assert len(taps) % 2 == 1
    assert abs(np.sum(taps) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        design_lowpass(0.0, SR)
    with pytest.raises(ValueError):
        design_lowpass(8000.1, SR)
    with pytest.raises(ValueError):
        design_lowpass(1000.0, SR, numtaps=10)


def test_apply_fir_rejects_even_taps():
    with pytest.raises(ValueError):
        apply_fir(AudioBuffer(np.zeros(16), SR), np.ones(4) / 4)


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
