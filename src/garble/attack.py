"""Query-budgeted search for perturbed audio a transcriber still accepts.

The search walks a perturbation schedule from worst-sounding to cleanest and
returns the first candidate the backend accepts, so the winner is always the
most distorted accepted variant. Backends share one budget rule: every
transcription consumes one query, going past the budget raises instead of
silently truncating, and transport failures consume nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import AudioBuffer, write_wav
from .features import FeatureConfig, FeatureMatrix, extract_features, feature_distance
from .perturb import PerturbationParams, apply_params, rpg

DEFAULT_QUERY_BUDGET = 10


class BackendError(RuntimeError):
    """Transport/auth/response failure; the query consumed no budget."""


class BudgetExceededError(RuntimeError):
    """transcribe() was called with the session budget already spent."""


@dataclass(frozen=True)
class TranscriberVerdict:
    accepted: bool
    transcript: str
    query_index: int  # 1-based position within the backend session


@dataclass(frozen=True, eq=False)
class AttackCandidate:
    """A perturbed buffer; params is a tuple of per-word params for
    concatenated candidates. distortion_rank 0 means worst-sounding."""

    params: PerturbationParams | tuple[PerturbationParams, ...]
    audio: AudioBuffer
    distortion_rank: int = -1
    verdict: TranscriberVerdict | None = None


@dataclass(frozen=True, eq=False)
class ExhaustionReport:
    """No candidate was accepted; carries exactly the verdicts issued."""

    candidates: tuple[AttackCandidate, ...]
    queries_used: int


class TranscriberBackend:
    """Base class holding the query-budget bookkeeping."""

    def __init__(self, budget: int = DEFAULT_QUERY_BUDGET):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self._budget = budget
        self._used = 0

    @property
    def budget(self) -> int:
        return self._budget

    @property
    def queries_used(self) -> int:
        return self._used

    @property
    def queries_remaining(self) -> int:
        return self._budget - self._used

    def transcribe(self, audio: AudioBuffer) -> TranscriberVerdict:
        if self._used >= self._budget:
            raise BudgetExceededError(f"query budget of {self._budget} exhausted")
        accepted, transcript = self._evaluate(audio)  # BackendError passes through
        self._used += 1
        return TranscriberVerdict(accepted, transcript, self._used)

    def _evaluate(self, audio: AudioBuffer) -> tuple[bool, str]:
        raise NotImplementedError


class MockOracle(TranscriberBackend):
    """Accepts audio whose feature distance to a reference stays under a
    threshold; stands in for a real model during tests and calibration."""

    def __init__(self, reference: AudioBuffer, reference_transcript: str,
                 threshold: float, feature_config: FeatureConfig = FeatureConfig(),
                 budget: int = DEFAULT_QUERY_BUDGET):
        super().__init__(budget)
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.reference_transcript = reference_transcript
        self.threshold = threshold
        self.feature_config = feature_config
        self._reference_features = extract_features(reference, feature_config)

    def distance_to_reference(self, audio: AudioBuffer) -> float:
        return feature_distance(extract_features(audio, self.feature_config),
                                self._reference_features)

    def _evaluate(self, audio: AudioBuffer) -> tuple[bool, str]:
        if self.distance_to_reference(audio) <= self.threshold:
            return True, self.reference_transcript
        return False, ""


def calibrate_mock_threshold(references: list[AudioBuffer],
                             feature_config: FeatureConfig = FeatureConfig(),
                             n_trials: int = 5, seed: int = 0) -> float:
    """Midpoint between the worst feature-preserving case and the best noise.

    Upper anchor: max distance from each reference to its phase-randomized
    (window = analysis frame) variants. Lower anchor: min distance to
    RMS-matched white noise. Raises when the two sides do not separate.
    """
    rng = np.random.default_rng(seed)
    preserved = []
    noisy = []
    for ref in references:
        ref_feats = extract_features(ref, feature_config)
        rms = float(np.sqrt(np.mean(ref.samples ** 2))) or 1.0
        for trial in range(n_trials):
            shuffled = rpg(ref, feature_config.frame_ms, seed=int(rng.integers(2 ** 31)))
            preserved.append(feature_distance(
                extract_features(shuffled, feature_config), ref_feats))
            noise = AudioBuffer(
                np.clip(rng.normal(0.0, rms, len(ref.samples)), -1.0, 1.0),
                ref.sample_rate)
            noisy.append(feature_distance(
                extract_features(noise, feature_config), ref_feats))
    hi, lo = max(preserved), min(noisy)
    if hi >= lo:
        raise ValueError("fixtures do not separate preserved audio from noise")
    return (hi + lo) / 2.0


def distortion_key(params: PerturbationParams) -> tuple[float, float, float]:
    """Sort key, ascending = worse sounding: smaller windows first, then
    larger time-scale factors, then larger total added-tone amplitude."""
    windows = [w for w in (params.tdi_window_ms, params.rpg_window_ms)
               if w is not None]
    min_window = min(windows) if windows else math.inf
    ts_factor = params.ts_factor_percent if params.ts_factor_percent is not None else 100.0
    hfa_total = sum(amp for _freq, amp in params.hfa_components)
    return (min_window, -ts_factor, -hfa_total)


def _ranked_candidates(audio: AudioBuffer, schedule: list[PerturbationParams]):
    """Yield the schedule worst-sounding first, rendering each candidate only
    when it is drawn. Ties keep schedule order; distortion_rank is 0, 1, ..."""
    for rank, params in enumerate(sorted(schedule, key=distortion_key)):
        yield AttackCandidate(params, apply_params(audio, params), rank)


def _first_accepted(backend: TranscriberBackend, candidates):
    """Query candidates in order and return the first accepted one (verdict
    attached), or an ExhaustionReport when candidates or budget run out.

    A candidate is drawn only when a query is left to spend on it: every
    transcribe() spends exactly one query or raises, so the budget left on
    entry bounds the draws.
    """
    issued = []
    for cand in itertools.islice(candidates, backend.queries_remaining):
        cand = replace(cand, verdict=backend.transcribe(cand.audio))
        issued.append(cand)
        if cand.verdict.accepted:
            return cand
    return ExhaustionReport(tuple(issued), backend.queries_used)


def _require_fresh(backend: TranscriberBackend):
    if backend.queries_used != 0:
        raise ValueError("backend session already has spent queries")


def generic_attack(source: AudioBuffer, backend: TranscriberBackend,
                   schedule: list[PerturbationParams]):
    """Probe the schedule worst-sounding first.

    Returns the first accepted AttackCandidate (verdict attached), or an
    ExhaustionReport when the schedule or the budget runs out. Running out
    of budget mid-schedule is a normal outcome here, not an exception. Each
    candidate is rendered only when a query is spent on it.
    """
    if not schedule:
        raise ValueError("schedule must be nonempty")
    _require_fresh(backend)
    return _first_accepted(backend, _ranked_candidates(source, schedule))


def improved_attack(words: list[AudioBuffer], per_word_variants: int,
                    backend: TranscriberBackend, schedule: list[PerturbationParams],
                    feature_threshold: float = math.inf,
                    feature_config: FeatureConfig = FeatureConfig()):
    """Per-word variant search: each word is perturbed on the schedule, its
    k worst-sounding variants that pass a local feature-distance check are
    kept, and the k^n concatenations are queried in lexicographic order of
    per-word distortion rank. Same return contract as generic_attack.

    A word's variants are rendered worst-sounding first and only until k
    of them pass the check.
    """
    if not words:
        raise ValueError("words must be nonempty")
    if per_word_variants < 1:
        raise ValueError("per_word_variants must be >= 1")
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if len({w.sample_rate for w in words}) != 1:
        raise ValueError("words must share one sample rate")
    _require_fresh(backend)

    per_word: list[list[AttackCandidate]] = []
    for word in words:
        variants = _ranked_candidates(word, schedule)
        if math.isfinite(feature_threshold):
            ref = extract_features(word, feature_config)
            variants = (c for c in variants if feature_distance(
                extract_features(c.audio, feature_config), ref) <= feature_threshold)
        kept = list(itertools.islice(variants, per_word_variants))
        if not kept:
            raise ValueError("a word has no variants under the feature threshold")
        per_word.append(kept)

    rate = words[0].sample_rate
    combos = (AttackCandidate(
        params=tuple(c.params for c in combo),
        audio=AudioBuffer(np.concatenate([c.audio.samples for c in combo]), rate),
        distortion_rank=rank)
        for rank, combo in enumerate(itertools.product(*per_word)))
    return _first_accepted(backend, combos)


# --- remote HTTP backend ----------------------------------------------------

_PUNCTUATION_KEEP = set("abcdefghijklmnopqrstuvwxyz0123456789 ")


def normalize_phrase(text: str) -> list[str]:
    """Lowercase words with punctuation stripped."""
    lowered = text.lower()
    cleaned = "".join(ch if ch in _PUNCTUATION_KEEP else " " for ch in lowered)
    return cleaned.split()


def word_edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def phrase_matches(transcript: str, target: str, max_word_edit: int = 2) -> bool:
    """Case/punctuation-insensitive match allowing small per-word typos."""
    got = normalize_phrase(transcript)
    want = normalize_phrase(target)
    if len(got) != len(want):
        return False
    return all(word_edit_distance(g, w) <= max_word_edit
               for g, w in zip(got, want))


@dataclass(frozen=True)
class RemoteConfig:
    url: str
    method: str = "POST"
    auth_env: str | None = None      # env var holding the bearer token
    content_type: str = "audio/wav"
    transcript_json_path: str = "transcript"  # dotted path, list indices as digits
    budget: int = DEFAULT_QUERY_BUDGET
    max_word_edit_distance: int = 2


def load_remote_config(path: str) -> RemoteConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("remote config must be a JSON object")
    allowed = set(RemoteConfig.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown remote config keys: {sorted(unknown)}")
    if "url" not in raw:
        raise ValueError("remote config requires url")
    for key, value in raw.items():
        if key in ("budget", "max_word_edit_distance"):
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif key == "auth_env":
            ok = value is None or isinstance(value, str)
        else:
            ok = isinstance(value, str)
        if not ok:
            raise ValueError(f"remote config {key} has the wrong type: {value!r}")
    return RemoteConfig(**raw)


def _walk_json_path(document, path: str):
    node = document
    for part in path.split("."):
        if isinstance(node, list):
            if not part.isdigit():
                raise KeyError(part)
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(part)
    return node


class RemoteTranscriber(TranscriberBackend):
    """HTTP backend: one request per query, WAV bytes in, JSON out."""

    def __init__(self, config: RemoteConfig, target_phrase: str):
        super().__init__(config.budget)
        self.config = config
        self.target_phrase = target_phrase

    def _evaluate(self, audio: AudioBuffer) -> tuple[bool, str]:
        headers = {"Content-Type": self.config.content_type}
        if self.config.auth_env:
            token = os.environ.get(self.config.auth_env)
            if not token:
                raise BackendError(
                    f"auth env var {self.config.auth_env} is not set")
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(
            self.config.url, data=write_wav(audio),
            method=self.config.method, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=60.0) as response:
                body = response.read()
        except (urllib.error.URLError, OSError) as exc:
            raise BackendError(f"transport failure: {exc}") from exc
        try:
            document = json.loads(body.decode("utf-8"))
            transcript = _walk_json_path(document, self.config.transcript_json_path)
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            raise BackendError(f"unusable response: {exc}") from exc
        if not isinstance(transcript, str):
            raise BackendError("transcript path did not land on a string")
        accepted = phrase_matches(transcript, self.target_phrase,
                                  self.config.max_word_edit_distance)
        return accepted, transcript
