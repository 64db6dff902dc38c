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
import typing
import unicodedata
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, write_wav
from .features import extract_features, feature_distance, has_frames
from .perturb import PerturbationParams, apply_params, check_params

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


@dataclass(frozen=True)
class QueryRecord:
    """One query without its audio: params (a tuple per word for a
    concatenation), distortion_rank (0 is worst-sounding) and verdict.
    apply_params re-renders the audio byte for byte from (source, params),
    so a search keeps these: it holds each later word's drawn variants (at
    most k each), the first word's variant in use and at most two
    candidates, so two renders for one word."""

    params: PerturbationParams | tuple[PerturbationParams, ...]
    distortion_rank: int
    verdict: TranscriberVerdict


@dataclass(frozen=True, eq=False)
class AttackCandidate(QueryRecord):
    """The accepted query: its record plus the audio. Equality is the
    record's, field by field; the audio, fixed by the params, is left out."""

    audio: AudioBuffer


@dataclass(frozen=True, eq=False)
class ExhaustionReport:
    """No candidate was accepted; carries exactly the verdicts issued, one
    QueryRecord per query in query order, and no rendered audio. A search
    starts on a backend with no spent queries, so these are all it spent."""

    candidates: tuple[QueryRecord, ...]

    @property
    def queries_used(self) -> int:
        return len(self.candidates)


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
    """Accepts audio whose default-config MFCC distance to a reference is at
    most a threshold; stands in for a real model in tests and rehearsals.

    Audio shorter than one analysis frame has no features: it is rejected
    with an empty transcript and the query is spent, as a real recognizer
    given a few ms of audio hears nothing. distance_to_reference raises
    ValueError on such audio, which has no distance.
    """

    def __init__(self, reference: AudioBuffer, reference_transcript: str,
                 threshold: float, budget: int = DEFAULT_QUERY_BUDGET):
        super().__init__(budget)
        if not threshold >= 0:  # NaN fails too
            raise ValueError("threshold must be >= 0")
        self.reference_transcript = reference_transcript
        self.threshold = threshold
        self._reference_features = extract_features(reference)

    def distance_to_reference(self, audio: AudioBuffer) -> float:
        ref = self._reference_features
        return feature_distance(extract_features(audio, ref.config), ref)

    def _accepts(self, audio: AudioBuffer) -> bool:
        """The verdict, also the filter of improved_attack; spends nothing."""
        return (has_frames(audio, self._reference_features.config)
                and self.distance_to_reference(audio) <= self.threshold)

    def _evaluate(self, audio: AudioBuffer) -> tuple[bool, str]:
        accepted = self._accepts(audio)
        return accepted, self.reference_transcript if accepted else ""


def distortion_key(params: PerturbationParams) -> tuple[float, float, float]:
    """Sort key, ascending = worse sounding: smaller windows first, then
    larger time-scale factors, then larger total added-tone amplitude."""
    windows = [w for w in (params.tdi_window_ms, params.rpg_window_ms)
               if w is not None]
    min_window = min(windows) if windows else math.inf
    ts_factor = params.ts_factor_percent if params.ts_factor_percent is not None else 100.0
    hfa_total = sum(amp for _freq, amp in params.hfa_components)
    return (min_window, -ts_factor, -hfa_total)


def _ranked_variants(audio: AudioBuffer, schedule: list[PerturbationParams],
                     limit: int, threshold: float):
    """Yield up to limit (params, audio) pairs over the schedule worst-sounding
    first, ties in schedule order, rendering each point only when it is
    drawn. A finite threshold keeps only what MockOracle(audio, "",
    threshold)._accepts, and raises ValueError when it keeps none."""
    variants = ((params, apply_params(audio, params))
                for params in sorted(schedule, key=distortion_key))
    if math.isfinite(threshold):  # filter holds no render it has dropped
        judge = MockOracle(audio, "", threshold)
        variants = filter(lambda pair: judge._accepts(pair[1]), variants)
    kept = 0
    for kept, pair in enumerate(itertools.islice(variants, limit), 1):
        yield pair
    if not kept:
        raise ValueError("a word has no variants under the feature threshold")


def _lazy_product(first, later):
    """itertools.product(first, *(it for it, _ in later)) in its order, each
    item drawn when a combination first reaches it. later pairs each
    iterator with the list of the items drawn from it so far: each pass
    replays that list, then draws on. first's items are never kept."""
    for item in first:
        if not later:
            yield (item,)
            continue
        (rest, kept), *deeper = later
        drawn = itertools.chain(kept, (kept.append(x) or x for x in rest))
        for tail in _lazy_product(drawn, deeper):
            yield (item, *tail)


def generic_attack(source: AudioBuffer, backend: TranscriberBackend,
                   schedule: list[PerturbationParams]):
    """Probe the schedule worst-sounding first: improved_attack over the one
    word [source] with k = backend.budget, each params out of its 1-tuple.
    Returns the first accepted query as an AttackCandidate, or, when the
    schedule or the budget runs out (not an exception here), an
    ExhaustionReport. Every point is checked at the source's rate before
    the first query (ValueError); only the points queried are rendered, and
    the search holds at most two renders at any budget."""
    found = improved_attack([source], backend.budget, backend, schedule)
    if isinstance(found, AttackCandidate):  # unwrap each 1-tuple of params
        return AttackCandidate(*found.params, found.distortion_rank, found.verdict,
                               found.audio)
    return ExhaustionReport(tuple(QueryRecord(*r.params, r.distortion_rank, r.verdict)
                                  for r in found.candidates))


def improved_attack(words: list[AudioBuffer], per_word_variants: int,
                    backend: TranscriberBackend, schedule: list[PerturbationParams],
                    feature_threshold: float = math.inf):
    """Per-word variant search: each word is perturbed on the schedule, and
    its k worst-sounding variants that MockOracle(word, "", feature_threshold)
    accepts, by that oracle's own verdict, are its candidates. The k^n
    concatenations are queried in lexicographic order of per-word
    distortion rank, and a word's variant is rendered (and filtered) when a
    combination first reaches it. Same return contract as generic_attack,
    and every point is checked before the first query, rendered or not.
    feature_threshold must be >= 0; the default +inf keeps every variant.
    One word is never concatenated. The search holds each later word's
    drawn variants (at most k each), the first word's variant in use and at
    most two candidates: two renders for one word.
    """
    if not words:
        raise ValueError("words must be nonempty")
    if per_word_variants < 1:
        raise ValueError("per_word_variants must be >= 1")
    if len({w.sample_rate for w in words}) != 1:
        raise ValueError("words must share one sample rate")
    if not feature_threshold >= 0:  # NaN fails too
        raise ValueError("feature_threshold must be >= 0")
    if not schedule:
        raise ValueError("schedule must be nonempty")
    rate = words[0].sample_rate
    for params in schedule:
        check_params(params, rate)
    if backend.queries_used != 0:
        raise ValueError("backend session already has spent queries")

    first, *later = [_ranked_variants(word, schedule, per_word_variants, feature_threshold)
                     for word in words]
    combos = _lazy_product(first, [(rest, []) for rest in later])
    # A combination is drawn only when a query is left to spend on it: every
    # transcribe() spends exactly one query or raises, so the budget left on
    # entry bounds the draws. A rejected candidate is kept as a QueryRecord
    # and its audio dropped, so at most two candidates are alive at once: the
    # one last judged and the one being drawn.
    issued = []
    for rank, combo in enumerate(itertools.islice(combos, backend.queries_remaining)):
        params = tuple(p for p, _ in combo)
        audio = combo[0][1] if len(combo) == 1 else AudioBuffer._of_checked(
            np.concatenate([a.samples for _, a in combo]), rate)  # checked, only rearranged
        verdict = backend.transcribe(audio)
        if verdict.accepted:
            return AttackCandidate(params, rank, verdict, audio)
        issued.append(QueryRecord(params, rank, verdict))
    return ExhaustionReport(tuple(issued))


# --- remote HTTP backend ----------------------------------------------------

def normalize_phrase(text: str) -> list[str]:
    """Casefolded words of the composed (NFC) text, so decomposed and
    composed spellings give the same words: any character that is not a
    letter, a digit or a mark (Unicode category M*, such as a vowel sign or
    a combining accent), in any script, separates words."""
    folded = unicodedata.normalize("NFC", text).casefold()
    cleaned = "".join(ch if ch.isalnum() or unicodedata.category(ch)[0] == "M" else " "
                      for ch in folded)
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
    """How to reach a transcription API. Each field is checked at
    construction, whether the config is built in code, read by
    load_remote_config or copied by replace: a wrong type (bool counts as
    wrong) or a negative max_word_edit_distance raises a ValueError that
    names the field. The budget's range is checked by the backend."""

    url: str
    method: str = "POST"
    auth_env: str | None = None      # env var holding the bearer token
    content_type: str = "audio/wav"
    transcript_json_path: str = "transcript"  # dotted path, list indices as digits
    budget: int = DEFAULT_QUERY_BUDGET
    max_word_edit_distance: int = 2

    def __post_init__(self):
        for key, hint in typing.get_type_hints(type(self)).items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, hint):
                raise ValueError(f"remote config {key} has the wrong type: {value!r}")
        if self.max_word_edit_distance < 0:
            raise ValueError("remote config max_word_edit_distance must be >= 0")


def load_remote_config(path: str) -> RemoteConfig:
    """Read a RemoteConfig from a JSON object file. The file must be an
    object with no unknown keys and a url; RemoteConfig checks the values.
    Raises ValueError (JSON errors included) or OSError."""
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
    """HTTP backend: one request per query, WAV bytes in, JSON out.

    A target phrase with no words raises ValueError: it would match a
    transcript of silence.
    """

    def __init__(self, config: RemoteConfig, target_phrase: str):
        if not normalize_phrase(target_phrase):
            raise ValueError(f"target phrase {target_phrase!r} has no words")
        super().__init__(config.budget)
        self.config = config
        self.target_phrase = target_phrase

    def _evaluate(self, audio: AudioBuffer) -> tuple[bool, str]:
        # imported here: the HTTP stack would cost every CLI start 25-55 ms
        import http.client
        import urllib.request

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
        except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
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
