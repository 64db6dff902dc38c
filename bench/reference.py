"""A fixed reference kernel, timed beside every op of an end-to-end run.

The host this benchmark runs on is shared: the same op on the same input
can take nearly twice as long while other tenants load the machine, in
stretches of seconds to minutes. Such a slowdown hits the reference kernel
as well, because it runs right before and right after each op. Dividing an
op's time by the mean time of its two neighbouring kernel runs gives the
op's cost in reference units, which keeps the program's speed and drops
most of the host's.

The kernel does a fixed amount of the work garble spends its time on: a
Python loop of small FFTs (rpg's pattern), one long FFT, a short FIR and a
small matrix product (MFCC's filterbank). It uses numpy only, never garble,
so a change to garble cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

_N = 24000
_SEG = 96


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(_N)
        self.taps = rng.standard_normal(65)
        self.bank = rng.standard_normal((40, 257))
        self.frames = rng.standard_normal((257, 100))
        self.checksum = self._kernel()

    def _kernel(self) -> float:
        x = self.x
        out = np.empty_like(x)
        for start in range(0, _N, _SEG):
            bins = np.fft.rfft(x[start:start + _SEG])
            bins *= np.exp(0.3j)
            out[start:start + _SEG] = np.fft.irfft(bins, n=_SEG)
        spectrum = np.abs(np.fft.rfft(out))
        filtered = np.convolve(out, self.taps)
        mel = self.bank @ self.frames
        return float(spectrum[:100].sum() + filtered[::97].sum() + mel.sum())

    def time_ms(self) -> float:
        """One timed run of the kernel, checked against its first result."""
        t0 = time.perf_counter()
        value = self._kernel()
        ms = (time.perf_counter() - t0) * 1e3
        if value != self.checksum:
            raise RuntimeError("the reference kernel gave another result")
        return ms
