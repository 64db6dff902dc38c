"""The three benchmark workloads: seeded fixtures, one timed op each, and
the output checks that run between timed ops.

Every call into garble goes through a module attribute (``audio_io.read_wav``,
``attack.generic_attack``, ...) so that the tracer in ``tracer.py`` can
wrap it. Nothing here touches the disk.
"""

from __future__ import annotations

import io
import math
import wave

import numpy as np

from garble import attack, audio_io, channel, perturb, vad
from garble.attack import AttackCandidate, ExhaustionReport, MockOracle
from garble.audio_io import AudioBuffer
from garble.perturb import ParamGrid, PerturbationParams

RPG_SEED = 42          # the CLI's default --seed
BUDGET = 10            # the CLI's default --budget
PHRASE = "open the door"
HARSH = channel.PRESETS["harsh"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Stream tags mixed into every generator seed, so op, warm-up and
# calibration inputs never share random draws.
_OPS, _WARMUP, _CALIBRATE, _THRESHOLDS = 1, 2, 3, 4
# The threshold range is part of a workload's definition, so its calibration
# sources are the same for every seed: a seed of its own would move the
# range, and with it queries_per_attack, from seed to seed.
CALIBRATION_SEED = 0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def op_rng(seed: int, workload_tag: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_tag, stream, index])


# --- fixtures -----------------------------------------------------------------

def speech_band(rng: np.random.Generator, n: int, rate: int, am_hz: float = 4.0,
                amp: float = 0.35) -> np.ndarray:
    """300-3400 Hz noise with a slow amplitude modulation, peak ``amp``."""
    spec = np.fft.rfft(rng.standard_normal(2 * n))
    freqs = np.fft.rfftfreq(2 * n, 1.0 / rate)
    spec[(freqs < 300.0) | (freqs > 3400.0)] = 0.0
    x = np.fft.irfft(spec)[:n]
    x *= 1.0 + 0.5 * np.sin(2.0 * np.pi * am_hz * np.arange(n) / rate)
    return x * (amp / np.max(np.abs(x)))


def bursts(rng: np.random.Generator, duration_s: float, rate: int,
           spans=((0.15, 0.65), (0.85, 1.35)), edge_ms: float = 10.0) -> np.ndarray:
    """Digital silence with speech-band bursts on ``spans`` (seconds),
    raised-cosine edges so that there are no clicks."""
    x = np.zeros(round(duration_s * rate))
    edge = round(edge_ms * rate / 1000.0)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    for start_s, end_s in spans:
        i0, i1 = round(start_s * rate), round(end_s * rate)
        burst = speech_band(rng, i1 - i0, rate, am_hz=0.0)
        burst[:edge] *= ramp
        burst[-edge:] *= ramp[::-1]
        x[i0:i1] = burst
    return x


def encode(samples: np.ndarray, rate: int) -> bytes:
    return audio_io.write_wav(AudioBuffer(samples, rate))


def decode(data: bytes) -> AudioBuffer:
    """What the CLI's ``_load`` does, minus the file read."""
    return audio_io.canonicalize(audio_io.read_wav(data))


def wav_shape(data: bytes) -> tuple[int, int, int, int]:
    """(rate, channels, sample width, frames) read with the standard library,
    independently of garble's own decoder."""
    with wave.open(io.BytesIO(data)) as wav:
        return (wav.getframerate(), wav.getnchannels(), wav.getsampwidth(),
                wav.getnframes())


def canonical_length(n: int, rate: int) -> int:
    return round(n * audio_io.CANONICAL_RATE / rate)


def ts_length(n: int, factor_percent: float | None) -> int:
    """The ts law: decimating n samples by s = factor/100 keeps
    floor((n - 0.5) / s) + 1 of them."""
    if factor_percent is None:
        return n
    return math.floor((n - 0.5) / (factor_percent / 100.0)) + 1


# --- sweep_grid ---------------------------------------------------------------

class SweepGrid:
    """``garble sweep`` in memory: decode, expand the grid, render and encode
    every point. perturb does the work; features, attack, channel and vad
    are not used."""

    name = "sweep_grid"
    tag = 1
    aliases = {"op_cost.p50": "sweep_ms.p50 in reference units",
               "op_cost.p90": "sweep_ms.p90 in reference units",
               "candidates_per_ref": "WAV files per reference unit",
               "op_ms.p50": "sweep_ms.p50", "op_ms.p90": "sweep_ms.p90",
               "candidates_per_s": "WAV files per s",
               "candidates_per_op": "WAV files per sweep"}
    rate = 48000
    duration_s = 1.0
    grid = ParamGrid(tdi_window_ms=(1.0, 2.0, 3.0), rpg_window_ms=(1.0, 2.5),
                     hfa_components=(((7500.0, 0.1),),),
                     ts_factor_percent=(100.0, 150.0), rpg_seed=RPG_SEED)

    def __init__(self, seed: int):
        self.seed = seed
        n = canonical_length(round(self.duration_s * self.rate), self.rate)
        self.expected_lengths = [ts_length(n, p.ts_factor_percent)
                                 for p in perturb.expand_grid(self.grid)]
        expect(len(self.expected_lengths) == 12, "the sweep grid has 12 points")

    def _prepare(self, rng):
        return encode(speech_band(rng, round(self.duration_s * self.rate), self.rate),
                      self.rate)

    def prepare(self, i: int):
        return self._prepare(op_rng(self.seed, self.tag, _OPS, i))

    def warmup_input(self):
        return self._prepare(op_rng(self.seed, self.tag, _WARMUP, 0))

    def run(self, source_wav: bytes) -> list[bytes]:
        audio = decode(source_wav)
        return [audio_io.write_wav(perturb.apply_params(audio, params))
                for params in perturb.expand_grid(self.grid)]

    def check(self, source_wav: bytes, outputs: list[bytes]) -> tuple[bytes, int]:
        """Returns (output bytes for the digest, candidates delivered)."""
        expect(len(outputs) == len(self.expected_lengths),
               f"{len(outputs)} files for {len(self.expected_lengths)} grid points")
        for k, (data, length) in enumerate(zip(outputs, self.expected_lengths)):
            shape = wav_shape(data)
            expect(shape == (audio_io.CANONICAL_RATE, 1, 2, length),
                   f"point {k}: (rate, channels, width, frames) {shape}, "
                   f"want ({audio_io.CANONICAL_RATE}, 1, 2, {length})")
        return b"".join(outputs), len(outputs)


# --- attacks ------------------------------------------------------------------

class LoggedOracle(MockOracle):
    """The CLI's mock backend, keeping each verdict so that the check can
    see every query the search issued."""

    def __init__(self, reference: AudioBuffer, threshold: float):
        super().__init__(reference, PHRASE, threshold, budget=BUDGET)
        self.verdicts: list[bool] = []

    @staticmethod
    def hear(audio: AudioBuffer) -> AudioBuffer:
        """What reaches the recognizer: over the line, the audio itself."""
        return audio

    def _evaluate(self, audio):
        accepted, transcript = super()._evaluate(audio)
        self.verdicts.append(accepted)
        return accepted, transcript

    def distance(self, audio: AudioBuffer) -> float:
        return self.distance_to_reference(self.hear(audio))


class AirOracle(LoggedOracle):
    """A recognizer heard through a room: each candidate is aired through
    the harsh channel, rejected when VAD finds no speech in it, and
    otherwise judged by the mock oracle against the aired clean source."""

    @staticmethod
    def hear(audio: AudioBuffer) -> AudioBuffer:
        return channel.simulate(audio, HARSH)[0]

    def _evaluate(self, audio):
        aired = self.hear(audio)
        if not vad.detect_speech(aired):
            self.verdicts.append(False)
            return False, ""
        return super()._evaluate(aired)


class AttackInput:
    def __init__(self, wav: bytes, reference: AudioBuffer, threshold: float, oracle_type):
        self.wav = wav
        self.reference = reference
        self.threshold = threshold
        self.oracle_type = oracle_type
        self.backend = oracle_type(reference, threshold)


class _Attack:
    """Shared shape of the two attack workloads: a fresh source and oracle
    per op, a threshold drawn per op, one ``generic_attack`` timed."""

    aliases = {"op_cost.p50": "attack_ms.p50 in reference units",
               "op_cost.p90": "attack_ms.p90 in reference units",
               "candidates_per_ref": "queries per reference unit",
               "op_ms.p50": "attack_ms.p50", "op_ms.p90": "attack_ms.p90",
               "candidates_per_s": "queries per s",
               "candidates_per_op": "queries_per_attack"}
    duration_s = 1.5
    oracle_type = LoggedOracle
    calibration_sources = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.lo, self.hi = self._calibrate()

    def schedule(self) -> list[PerturbationParams]:
        raise NotImplementedError

    def _source(self, rng) -> tuple[bytes, AudioBuffer]:
        wav = encode(bursts(rng, self.duration_s, self.rate), self.rate)
        return wav, self.oracle_type.hear(decode(wav))

    def _calibrate(self) -> tuple[float, float]:
        """Threshold range from the ladder distances of a few fixed sources:
        from a tenth of the spread below the smallest distance (those
        searches exhaust) up to the largest first-rung distance."""
        firsts, smallest = [], []
        for c in range(self.calibration_sources):
            wav, reference = self._source(op_rng(CALIBRATION_SEED, self.tag, _CALIBRATE, c))
            gauge = self.oracle_type(reference, 0.0)
            source = decode(wav)
            d = [gauge.distance(perturb.apply_params(source, p)) for p in self.schedule()]
            firsts.append(d[0])
            smallest.append(min(d))
        lo, hi = min(smallest), max(firsts)
        return lo - 0.1 * (hi - lo), hi

    def threshold(self, i: int) -> float:
        """Op ``i``'s point of a golden-ratio sequence over the range, from a
        seeded start. Any run of ops covers the range evenly, so the share of
        searches that stop at each rung varies far less between runs than
        with independent draws."""
        start = op_rng(self.seed, self.tag, _THRESHOLDS, 0).uniform()
        return self.lo + (self.hi - self.lo) * ((start + i * GOLDEN) % 1.0)

    def prepare(self, i: int) -> AttackInput:
        wav, reference = self._source(op_rng(self.seed, self.tag, _OPS, i))
        return AttackInput(wav, reference, self.threshold(i), self.oracle_type)

    def warmup_input(self) -> AttackInput:
        wav, reference = self._source(op_rng(self.seed, self.tag, _WARMUP, 0))
        return AttackInput(wav, reference, (self.lo + self.hi) / 2.0, self.oracle_type)

    def run(self, op: AttackInput):
        result = attack.generic_attack(decode(op.wav), op.backend, self.schedule())
        if isinstance(result, AttackCandidate):
            return result, audio_io.write_wav(result.audio)
        return result, b""

    def check(self, op: AttackInput, outcome) -> tuple[bytes, int]:
        """Returns (output bytes for the digest, queries issued)."""
        result, wav = outcome
        verdicts = op.backend.verdicts
        used = op.backend.queries_used
        expect(len(verdicts) == used, f"{len(verdicts)} verdicts for {used} queries")
        if isinstance(result, ExhaustionReport):
            expect(used == result.queries_used == len(result.candidates)
                   == min(BUDGET, len(self.schedule())),
                   f"exhaustion after {used} queries")
            expect(not any(verdicts) and
                   not any(c.verdict.accepted for c in result.candidates),
                   "an exhausted search holds an accepted candidate")
            return b"exhausted:%d;" % used, used
        expect(isinstance(result, AttackCandidate), f"unexpected result {result!r}")
        expect(result.verdict.accepted and result.verdict.query_index == used,
               f"winner query_index {result.verdict.query_index}, queries_used {used}")
        expect(verdicts[-1] and not any(verdicts[:-1]),
               "a candidate before the winner was accepted")
        # worst-sounding first: the ladder ascends in window size
        expect(result.params == self.schedule()[used - 1] and
               result.distortion_rank == used - 1,
               f"winner {result.params} is not ladder point {used}")
        distance = self.oracle_type(op.reference, op.threshold).distance(result.audio)
        expect(distance <= op.threshold,
               f"fresh oracle: distance {distance} above threshold {op.threshold}")
        expect(wav_shape(wav) == (audio_io.CANONICAL_RATE, 1, 2, len(result.audio)),
               "winner WAV does not decode to the winner's length at 16 kHz")
        return b"winner:%d:" % used + wav, used


class AttackLine(_Attack):
    """``garble attack --backend mock:...`` in memory: the CLI's default tdi
    ladder against the mock oracle. features and attack do the work;
    channel and vad are not used."""

    name = "attack_line"
    tag = 2
    rate = 44100

    def schedule(self):
        return perturb.tdi_probe_schedule(rpg_seed=RPG_SEED)


class AttackAir(_Attack):
    """The over-the-air rehearsal: a tdi+rpg ladder at 1.0 ... 5.5 ms, each
    candidate aired through the harsh channel and gated by VAD."""

    name = "attack_air"
    tag = 3
    rate = 48000
    oracle_type = AirOracle

    def schedule(self):
        return [PerturbationParams(tdi_window_ms=w, rpg_window_ms=w, rpg_seed=RPG_SEED)
                for w in (1.0 + 0.5 * k for k in range(10))]


WORKLOADS = {w.name: w for w in (SweepGrid, AttackLine, AttackAir)}
