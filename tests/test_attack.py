import dataclasses
import json
import socket
import unicodedata

import numpy as np
import pytest

import garble.attack
from garble.attack import (
    AttackCandidate,
    BackendError,
    BudgetExceededError,
    ExhaustionReport,
    MockOracle,
    QueryRecord,
    RemoteConfig,
    RemoteTranscriber,
    TranscriberVerdict,
    distortion_key,
    generic_attack,
    improved_attack,
    load_remote_config,
    normalize_phrase,
    phrase_matches,
    word_edit_distance,
)
from garble.audio_io import AudioBuffer, read_wav
from garble.cli import main
from garble.features import has_frames
from garble.perturb import PerturbationParams, apply_params, tdi_probe_schedule
from synth import (SR, band_noise, features_peak_bound, random_buffer, voiced_utterance,
                   warm_peak_bytes)


# --- budget bookkeeping -------------------------------------------------------


def test_budget_enforced():
    ref = band_noise(60, duration_s=0.5)
    backend = MockOracle(ref, "ok", threshold=np.inf, budget=2)
    assert backend.queries_remaining == 2
    v1 = backend.transcribe(ref)
    v2 = backend.transcribe(ref)
    assert (v1.query_index, v2.query_index) == (1, 2)
    assert backend.queries_used == 2 and backend.queries_remaining == 0
    with pytest.raises(BudgetExceededError):
        backend.transcribe(ref)
    with pytest.raises(ValueError):
        MockOracle(ref, "ok", threshold=1.0, budget=0)


def test_mock_oracle_thresholds():
    ref = band_noise(61, duration_s=0.5)
    accept_all = MockOracle(ref, "open the door", threshold=np.inf)
    verdict = accept_all.transcribe(random_buffer(62, len(ref)))
    assert verdict.accepted and verdict.transcript == "open the door"

    exact_only = MockOracle(ref, "open the door", threshold=0.0)
    assert exact_only.transcribe(ref).accepted
    rejected = exact_only.transcribe(apply_params(
        ref, PerturbationParams(tdi_window_ms=1.0)))
    assert not rejected.accepted and rejected.transcript == ""


def test_mock_oracle_rejects_white_noise_at_calibrated_threshold():
    ref = band_noise(63, duration_s=0.5)
    probe = MockOracle(ref, "ok", threshold=np.inf)
    noise = AudioBuffer(np.random.default_rng(0).normal(0.0, 0.1, 8000), 16000)
    # a feature-preserving scramble: rpg at the analysis frame length
    scrambled = apply_params(ref, PerturbationParams(rpg_window_ms=20.0))
    near = probe.distance_to_reference(scrambled)
    far = probe.distance_to_reference(noise)
    assert near < far
    # calibrated here: the midpoint between the scramble and the noise
    backend = MockOracle(ref, "ok", threshold=(near + far) / 2.0)
    assert not backend.transcribe(noise).accepted
    assert backend.transcribe(scrambled).accepted


@pytest.mark.parametrize("floor_db, least", [(None, 3.7), (-40.0, 2.2)],
                         ids=["silent-gaps", "floor-40-db"])
def test_noise_sits_further_from_a_voiced_utterance_than_any_rung(floor_db, least):
    # the nearest of five RMS-matched Gaussian noises over the farthest tdi or
    # rpg rung of the 1.0-5.5 ms ladder. Measured minimum over seeds 1-3:
    # 3.78 with digital-silence gaps, 2.23 with a white floor 40 dB under
    # the words; each bound is that minimum rounded down to one decimal
    for seed in (1, 2, 3):
        clip, _ = voiced_utterance(seed, floor_db=floor_db)
        oracle = MockOracle(clip, "x", threshold=np.inf)
        rungs = [PerturbationParams(**{axis: 1.0 + 0.5 * i}, rpg_seed=7)
                 for axis in ("tdi_window_ms", "rpg_window_ms") for i in range(10)]
        farthest = max(oracle.distance_to_reference(apply_params(clip, p)) for p in rungs)
        rms = np.sqrt(np.mean(clip.samples ** 2))
        nearest = min(oracle.distance_to_reference(AudioBuffer(
            np.random.default_rng(k).normal(0.0, rms, len(clip)), SR)) for k in range(5))
        assert nearest / farthest >= least, seed


# --- distortion ordering --------------------------------------------------------


def test_distortion_key_ordering():
    worse = PerturbationParams(tdi_window_ms=1.0)
    better = PerturbationParams(tdi_window_ms=2.0)
    assert distortion_key(worse) < distortion_key(better)
    # larger time-scale compression sounds worse at equal windows
    fast = PerturbationParams(tdi_window_ms=1.0, ts_factor_percent=300.0)
    slow = PerturbationParams(tdi_window_ms=1.0, ts_factor_percent=150.0)
    assert distortion_key(fast) < distortion_key(slow)
    # more added tone amplitude sounds worse at equal windows and speed
    loud = PerturbationParams(hfa_components=((7500.0, 0.5),))
    soft = PerturbationParams(hfa_components=((7500.0, 0.1),))
    assert distortion_key(loud) < distortion_key(soft)
    # rpg and tdi windows compete on equal terms
    assert distortion_key(PerturbationParams(rpg_window_ms=1.5)) < distortion_key(
        PerturbationParams(tdi_window_ms=2.0))


# --- generic attack -------------------------------------------------------------


def attackable_fixture(seed=1):
    """Reference plus a schedule whose third-ranked probe is the winner."""
    ref = band_noise(seed, duration_s=0.5)
    schedule = tdi_probe_schedule(count=5)
    probe = MockOracle(ref, "x", threshold=0.0, budget=1)  # only for distances
    dists = [probe.distance_to_reference(apply_params(ref, p)) for p in schedule]
    assert dists[2] < min(dists[0], dists[1])  # fixture precondition
    threshold = (dists[2] + min(dists[0], dists[1])) / 2.0
    return ref, schedule, threshold, dists


def test_generic_attack_returns_most_distorted_accepted():
    ref, schedule, threshold, _ = attackable_fixture()
    backend = MockOracle(ref, "open the door", threshold)
    result = generic_attack(ref, backend, schedule)
    assert isinstance(result, AttackCandidate)
    assert result.verdict is not None and result.verdict.accepted
    assert result.verdict.query_index == 3
    assert backend.queries_used == 3
    assert result.params.tdi_window_ms == schedule[2].tdi_window_ms
    assert result.distortion_rank == 2


def test_generic_attack_exhaustion_report():
    ref, schedule, _, _ = attackable_fixture()
    backend = MockOracle(ref, "x", threshold=0.0)  # nothing will pass
    result = generic_attack(ref, backend, schedule)
    assert isinstance(result, ExhaustionReport)
    assert backend.queries_used == len(schedule)
    assert result.queries_used == len(schedule)
    assert len(result.candidates) == len(schedule)
    assert all(c.verdict is not None and not c.verdict.accepted
               for c in result.candidates)


def test_generic_attack_stops_at_budget_without_raising():
    ref, schedule, _, _ = attackable_fixture()
    backend = MockOracle(ref, "x", threshold=0.0, budget=3)
    result = generic_attack(ref, backend, schedule)
    assert isinstance(result, ExhaustionReport)
    assert result.queries_used == 3
    assert len(result.candidates) == 3
    assert backend.queries_remaining == 0


def test_generic_attack_spends_a_query_on_audio_shorter_than_a_frame():
    # ts 400 leaves 125 samples, under one 20 ms analysis frame (320)
    ref = random_buffer(67, 500)
    backend = MockOracle(ref, "a", threshold=1.0)
    result = generic_attack(ref, backend,
                            [PerturbationParams(ts_factor_percent=400.0)])
    assert isinstance(result, ExhaustionReport) and result.queries_used == 1
    (cand,) = result.candidates
    assert len(apply_params(ref, cand.params)) == 125
    assert cand.verdict == TranscriberVerdict(False, "", 1)
    with pytest.raises(ValueError):
        backend.distance_to_reference(apply_params(ref, cand.params))


def audio_reachable(value) -> bool:
    """Whether an AudioBuffer or a sample array can be reached from value
    through dataclass fields, tuples and lists."""
    if isinstance(value, (AudioBuffer, np.ndarray)):
        return True
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    return isinstance(value, (tuple, list)) and any(map(audio_reachable, value))


def test_an_exhaustion_report_holds_no_audio():
    # one QueryRecord per query: its params re-render the audio, so the
    # report drops every rejected render; the winner keeps its own
    ref, schedule, threshold, _ = attackable_fixture()
    words = [band_noise(76, duration_s=0.25), band_noise(77, duration_s=0.25)]
    for search in (lambda backend: generic_attack(ref, backend, schedule),
                   lambda backend: improved_attack(words, 2, backend, schedule)):
        report = search(MockOracle(ref, "x", threshold=0.0))
        assert isinstance(report, ExhaustionReport) and report.queries_used > 1
        assert all(isinstance(c, QueryRecord) for c in report.candidates)
        assert not audio_reachable(report)
        assert audio_reachable(search(MockOracle(ref, "x", threshold=np.inf)))


@pytest.mark.parametrize("search", [
    generic_attack,
    lambda source, backend, schedule: improved_attack([source], 10, backend, schedule),
], ids=["generic_attack", "improved_attack"])
def test_an_exhausted_one_word_search_holds_two_renders_at_most(search):
    # 10 s at 16 kHz and the default ten-rung ladder, every query rejected:
    # the search holds the candidate being judged and the one being
    # rendered, so its peak is two renders (the source is allocated before
    # the measure starts) plus the oracle's extract_features working set on
    # 999 frames and 16 KiB for the records: measured about 2.005 renders
    # against this 2.495. One more render alive would pass 3, and a report
    # of every render, or ten eager variants, would hold ten (12.8 MB)
    source = random_buffer(68, 10 * SR)
    backends = iter([MockOracle(source, "x", threshold=0.0) for _ in range(2)])
    schedule = tdi_probe_schedule()
    assert len(schedule) == 10
    render = len(source) * source.samples.itemsize
    peak = warm_peak_bytes(lambda: search(source, next(backends), schedule))
    assert peak <= 2 * render + features_peak_bound(999) + 16 * 1024


@pytest.fixture
def render_count(monkeypatch):
    """Counts the candidates the search renders (calls of apply_params)."""
    calls = []

    def counting(audio, params):
        calls.append(params)
        return apply_params(audio, params)

    monkeypatch.setattr(garble.attack, "apply_params", counting)
    return calls


def test_generic_attack_renders_only_queried_candidates(render_count):
    ref, schedule, threshold, _ = attackable_fixture()
    result = generic_attack(ref, MockOracle(ref, "x", threshold), schedule)
    assert result.distortion_rank == 2
    assert len(render_count) == 3  # of 5 schedule points
    render_count.clear()
    result = generic_attack(ref, MockOracle(ref, "x", threshold=0.0, budget=3), schedule)
    assert isinstance(result, ExhaustionReport) and result.queries_used == 3
    assert len(render_count) == 3


@pytest.mark.parametrize("duration_s, k, count, budget, queries, rungs", [
    # 2 per word, not the 5-point schedule, each drawn when a combination
    # first reaches it: word 0's first variant, then word 1's two
    (0.25, 2, 5, 10, 4, [0, 0, 1, 1]),
    # one query draws one variant per word, not word 1's ten
    (0.3, 10, 10, 1, 1, [0, 0]),
], ids=["two-per-word", "one-query"])
def test_improved_attack_renders_k_variants_per_word(render_count, duration_s, k, count,
                                                     budget, queries, rungs):
    words = [band_noise(76, duration_s=duration_s), band_noise(77, duration_s=duration_s)]
    schedule = tdi_probe_schedule(count=count)
    result = improved_attack(words, k, MockOracle(words[0], "x", threshold=0.0, budget=budget),
                             schedule)
    assert isinstance(result, ExhaustionReport) and result.queries_used == queries
    assert render_count == [schedule[rung] for rung in rungs]


@pytest.mark.parametrize("bad", [
    PerturbationParams(tdi_window_ms=3.0, ts_factor_percent=50.0),
    PerturbationParams(hfa_components=((9000.0, 0.1),)),
    PerturbationParams(tdi_window_ms=1e306),
    # each amplitude is finite, but the mix of the two is not
    PerturbationParams(hfa_components=((1000.0, 1e308), (1000.0, 1e308))),
], ids=["ts-slowdown", "hfa-past-nyquist", "tdi-too-long", "hfa-overflow"])
def test_a_bad_point_ranked_last_fails_before_any_query(render_count, bad):
    # each bad point ranks after tdi 2 ms: generic_attack would render it
    # after a spent query, and improved_attack at k = 1 would never render it
    source = band_noise(67, duration_s=1.5)
    schedule = [PerturbationParams(tdi_window_ms=2.0), bad]
    assert distortion_key(schedule[0]) < distortion_key(bad)
    for search in (lambda backend: generic_attack(source, backend, schedule),
                   lambda backend: improved_attack([source], 1, backend, schedule)):
        backend = MockOracle(source, "x", threshold=0.0)
        with pytest.raises(ValueError):
            search(backend)
        assert backend.queries_used == 0
    assert render_count == []


def test_a_query_calls_the_feature_functions_the_module_holds(monkeypatch):
    # bench/tracer.py counts the feature layer by patching these module
    # attributes: a search that bound them early would zero its counts
    ref, schedule, threshold, _ = attackable_fixture()
    backend = MockOracle(ref, "x", threshold)
    calls = []
    for name in ("extract_features", "feature_distance"):
        def counting(*args, _name=name, _real=getattr(garble.attack, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(garble.attack, name, counting)
    assert generic_attack(ref, backend, schedule).distortion_rank == 2
    assert backend.queries_used == 3
    assert calls == ["extract_features", "feature_distance"] * 3


def test_generic_attack_deterministic():
    ref, schedule, threshold, _ = attackable_fixture()
    a = generic_attack(ref, MockOracle(ref, "x", threshold), schedule)
    b = generic_attack(ref, MockOracle(ref, "x", threshold), schedule)
    assert np.array_equal(a.audio.samples, b.audio.samples)


# --- improved (per-word) attack --------------------------------------------------


def test_improved_attack_orders_combinations_lexicographically():
    words = [band_noise(70, duration_s=0.3), band_noise(71, duration_s=0.3)]
    schedule = tdi_probe_schedule(count=3)
    backend = MockOracle(words[0], "x", threshold=0.0, budget=9)
    result = improved_attack(words, 3, backend, schedule)
    assert isinstance(result, ExhaustionReport)
    assert result.queries_used == 9
    windows = [1.0, 1.5, 2.0]  # ranked worst-first
    want = [(w0, w1) for w0 in windows for w1 in windows]
    got = [(c.params[0].tdi_window_ms, c.params[1].tdi_window_ms)
           for c in result.candidates]
    assert got == want


def test_improved_attack_concatenates_word_variants():
    words = [band_noise(72, duration_s=0.25), band_noise(73, duration_s=0.25)]
    schedule = tdi_probe_schedule(count=2)
    backend = MockOracle(words[0], "go", threshold=np.inf)  # accept first combo
    result = improved_attack(words, 2, backend, schedule)
    assert isinstance(result, AttackCandidate)
    assert backend.queries_used == 1
    assert isinstance(result.params, tuple) and len(result.params) == 2
    want = np.concatenate([
        apply_params(words[0], result.params[0]).samples,
        apply_params(words[1], result.params[1]).samples])
    assert np.array_equal(result.audio.samples, want)


def test_improved_attack_local_filter_prunes_variants():
    word = band_noise(74, duration_s=0.5)
    schedule = tdi_probe_schedule(count=5)
    probe = MockOracle(word, "x", threshold=0.0, budget=1)
    dists = [probe.distance_to_reference(apply_params(word, p)) for p in schedule]
    # allow only the two cleanest probes through the local pre-filter
    cutoff = sorted(dists)[1]
    backend = MockOracle(word, "x", threshold=0.0, budget=10)
    result = improved_attack([word], 5, backend, schedule,
                             feature_threshold=cutoff + 1e-12)
    assert isinstance(result, ExhaustionReport)
    assert result.queries_used == 2  # 3 of 5 variants were filtered out locally
    with pytest.raises(ValueError):
        improved_attack([word], 5, MockOracle(word, "x", 0.0), schedule,
                        feature_threshold=0.0)


def test_improved_attack_filter_drops_variant_without_features():
    # tdi 1 ms + ts 1000 % leaves 15 ms of a 150 ms word, under one 20 ms
    # analysis frame: the filter drops it instead of raising mid-search
    words = [band_noise(78, duration_s=0.15), band_noise(79, duration_s=0.15)]
    short = PerturbationParams(tdi_window_ms=1.0, ts_factor_percent=1000.0)
    clean = PerturbationParams(tdi_window_ms=2.0)
    backend = MockOracle(words[0], "go", threshold=np.inf)
    result = improved_attack(words, 1, backend, [short, clean], feature_threshold=1e9)
    assert isinstance(result, AttackCandidate) and result.verdict.accepted
    assert backend.queries_used == 1
    assert result.params == (clean, clean)
    want = np.concatenate([apply_params(w, clean).samples for w in words])
    assert result.audio.samples.tobytes() == want.tobytes()


class Deaf(garble.attack.TranscriberBackend):
    """Rejects every query, so a search queries all of its candidates."""

    def _evaluate(self, audio):
        return False, ""


class AcceptsQuery(garble.attack.TranscriberBackend):
    """Accepts query number n alone, and keeps every verdict it issues."""

    def __init__(self, n):
        super().__init__()
        self.n, self.verdicts = n, []

    def transcribe(self, audio):
        self.verdicts.append(super().transcribe(audio))
        return self.verdicts[-1]

    def _evaluate(self, audio):
        return self.queries_used + 1 == self.n, "x"


def test_a_winner_is_the_record_of_the_query_that_accepted_it():
    # the winner is its query's QueryRecord plus the audio: params and rank
    # as the search records them for that query when it is rejected, and
    # the verdict the backend issued for it
    source = band_noise(75, duration_s=0.5)
    words = [band_noise(72, duration_s=0.25), band_noise(73, duration_s=0.25)]
    schedule = tdi_probe_schedule(count=3)
    for search in (lambda backend: generic_attack(source, backend, schedule),
                   lambda backend: improved_attack(words, 2, backend, schedule)):
        record = search(Deaf()).candidates[2]
        backend = AcceptsQuery(3)
        winner = search(backend)
        assert isinstance(winner, QueryRecord) and isinstance(winner, AttackCandidate)
        assert ((winner.params, winner.distortion_rank, winner.verdict)
                == (record.params, 2, backend.verdicts[-1]))
        assert winner.verdict == TranscriberVerdict(True, "x", 3)


def test_an_attack_candidate_is_built_with_every_field():
    # built once, for the accepted query, so no field has a placeholder
    audio = band_noise(75, duration_s=0.1)
    params = PerturbationParams(tdi_window_ms=1.0)
    with pytest.raises(TypeError):
        AttackCandidate(params=params, distortion_rank=0, audio=audio)
    with pytest.raises(TypeError):
        AttackCandidate(params=params, audio=audio)
    assert all(f.default is f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(AttackCandidate))


def test_winners_compare_as_their_records():
    # equality is the record's, field by field; the audio is left out
    ref, schedule, threshold, _ = attackable_fixture()
    a, b = (generic_attack(ref, MockOracle(ref, "x", threshold), schedule)
            for _ in range(2))
    assert a.audio is not b.audio
    assert a == b and hash(a) == hash(b)
    assert a != dataclasses.replace(a, distortion_rank=a.distortion_rank + 1)


@pytest.mark.parametrize("seed", [80, 81, 82])
def test_improved_attack_keeps_what_the_mock_oracle_accepts(seed):
    # one judgement for both searches: on a seeded word and ladder, at every
    # acceptance edge, the filter keeps exactly the variants, in rank order,
    # that MockOracle(word, "", threshold) accepts
    rng = np.random.default_rng(seed)
    word = band_noise(seed, duration_s=0.15)
    short = PerturbationParams(tdi_window_ms=1.0, ts_factor_percent=1000.0)
    assert not has_frames(apply_params(word, short))  # 15 ms, under one frame
    ladder = [short] + [PerturbationParams(tdi_window_ms=ms) for ms in rng.uniform(0.5, 6, 4)]
    ladder += [PerturbationParams(rpg_window_ms=ms, rpg_seed=seed)
               for ms in rng.uniform(0.5, 20, 3)]
    ranked = sorted(ladder, key=distortion_key)
    gauge = MockOracle(word, "", 0.0)
    edges = sorted(gauge.distance_to_reference(apply_params(word, p))
                   for p in ladder if p is not short)
    for threshold in (0.0, *edges, 1e9):
        oracle = MockOracle(word, "", threshold, budget=len(ladder))
        accepted = [p for p in ranked if oracle.transcribe(apply_params(word, p)).accepted]
        try:
            result = improved_attack([word], len(ladder), Deaf(len(ladder)), ladder,
                                     feature_threshold=threshold)
        except ValueError as exc:
            assert "no variants" in str(exc)
            kept = []
        else:
            kept = [c.params[0] for c in result.candidates]
        assert kept == accepted
    assert accepted == [p for p in ranked if p is not short]  # 1e9 takes all but one


def test_generic_attack_validates_inputs():
    ref = band_noise(66, duration_s=0.5)
    backend = MockOracle(ref, "x", threshold=np.inf)
    with pytest.raises(ValueError):
        generic_attack(ref, backend, [])
    backend.transcribe(ref)  # spend one query
    with pytest.raises(ValueError, match="spent queries"):
        generic_attack(ref, backend, tdi_probe_schedule(count=2))
    assert backend.queries_used == 1


def test_improved_attack_validates_inputs():
    word = band_noise(75, duration_s=0.25)
    backend = MockOracle(word, "x", threshold=np.inf)
    with pytest.raises(ValueError):
        improved_attack([], 2, backend, tdi_probe_schedule(count=2))
    with pytest.raises(ValueError):
        improved_attack([word], 0, backend, tdi_probe_schedule(count=2))
    with pytest.raises(ValueError):
        improved_attack([word], 2, backend, [])
    other_rate = AudioBuffer(word.samples, 8000)
    with pytest.raises(ValueError):
        improved_attack([word, other_rate], 2, backend, tdi_probe_schedule(count=2))
    for threshold in (np.nan, -np.inf, -1.0):  # none of them may switch the filter off
        with pytest.raises(ValueError, match="feature_threshold"):
            improved_attack([word], 2, backend, tdi_probe_schedule(count=2),
                            feature_threshold=threshold)
    backend.transcribe(word)  # spend one query
    with pytest.raises(ValueError, match="spent queries"):
        improved_attack([word], 2, backend, tdi_probe_schedule(count=2))
    assert backend.queries_used == 1


# --- phrase matching --------------------------------------------------------------


def test_normalize_phrase():
    assert normalize_phrase("Open, the DOOR!") == ["open", "the", "door"]
    assert normalize_phrase("  ") == []
    assert normalize_phrase("a-b c") == ["a", "b", "c"]
    # letters and digits of any script are word characters
    assert normalize_phrase("Öffne die Tür") == ["öffne", "die", "tür"]
    assert normalize_phrase("打开门") == ["打开门"]
    # decomposed (NFD) text gives the composed words
    assert normalize_phrase(unicodedata.normalize("NFD", "Öffne die Tür")) == [
        "öffne", "die", "tür"]
    # marks with no composed form are word characters: vowel signs and
    # viramas, and the dot above that casefolding "İ" leaves after an "i"
    assert normalize_phrase("नमस्ते") == ["नमस्ते"]
    assert normalize_phrase("İstanbul") == ["i\u0307stanbul"]


def test_word_edit_distance():
    assert word_edit_distance("door", "door") == 0
    assert word_edit_distance("door", "dor") == 1
    assert word_edit_distance("door", "doors") == 1
    assert word_edit_distance("kitten", "sitting") == 3
    assert word_edit_distance("", "abc") == 3


def test_phrase_matches():
    assert phrase_matches("Open the dor.", "open the door")
    assert phrase_matches("OPEN THE DOOR", "open the door")
    assert not phrase_matches("open the", "open the door")  # word count differs
    assert not phrase_matches("open the window", "open the door")  # distance 4
    assert phrase_matches("open the windw", "open the window")
    assert not phrase_matches("open the dxxr", "open the door", max_word_edit=1)
    assert phrase_matches("offne die tur", "Öffne die Tür")  # one edit per word
    assert phrase_matches("打开门。", "打开门")
    assert phrase_matches(unicodedata.normalize("NFD", "Öffne die Tür"), "Öffne die Tür",
                          max_word_edit=0)
    assert not phrase_matches("关上门", "打开门", max_word_edit=1)
    assert not phrase_matches("हो", "है", max_word_edit=0)  # the vowel signs differ


def test_phrase_matches_allows_two_edits_per_word_by_default():
    assert phrase_matches("open the dxxr", "open the door")  # 2 edits in one word
    assert phrase_matches("xpen txe dxxr", "open the door")  # 1, 1 and 2 edits
    assert not phrase_matches("open the xxxr", "open the door")  # 3 edits
    assert not phrase_matches("kitten", "sitting")  # 3 edits


# --- remote backend ----------------------------------------------------------------


def test_remote_backend_roundtrip(stub_server):
    stub_server.responses = [
        (200, json.dumps({"result": [{"transcript": "open the door"}]}).encode())]
    config = RemoteConfig(url=stub_server.url,
                          transcript_json_path="result.0.transcript", budget=3)
    backend = RemoteTranscriber(config, "open the door")
    audio = band_noise(80, duration_s=0.1)
    verdict = backend.transcribe(audio)
    assert verdict.accepted and verdict.transcript == "open the door"
    assert backend.queries_used == 1
    sent = stub_server.requests[0]
    assert sent["headers"]["Content-Type"] == "audio/wav"
    # the request body is a playable WAV of the candidate audio
    decoded = read_wav(sent["body"])
    assert len(decoded) == len(audio)


def test_remote_backend_sends_bearer_token(stub_server, monkeypatch):
    stub_server.responses = [(200, json.dumps({"transcript": "nope"}).encode())]
    monkeypatch.setenv("STT_TOKEN", "sekret")
    config = RemoteConfig(url=stub_server.url, auth_env="STT_TOKEN")
    backend = RemoteTranscriber(config, "open the door")
    verdict = backend.transcribe(band_noise(81, duration_s=0.1))
    assert not verdict.accepted and verdict.transcript == "nope"
    assert stub_server.requests[0]["headers"]["Authorization"] == "Bearer sekret"


def test_remote_backend_missing_token_costs_nothing(stub_server, monkeypatch):
    monkeypatch.delenv("NO_SUCH_TOKEN", raising=False)
    config = RemoteConfig(url=stub_server.url, auth_env="NO_SUCH_TOKEN")
    backend = RemoteTranscriber(config, "x")
    with pytest.raises(BackendError):
        backend.transcribe(band_noise(82, duration_s=0.1))
    assert backend.queries_used == 0
    assert stub_server.requests == []  # never even hit the wire


def test_remote_backend_unreachable_costs_nothing():
    # grab a port and close it again so the connection is refused
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    backend = RemoteTranscriber(
        RemoteConfig(url=f"http://127.0.0.1:{port}/t"), "x")
    with pytest.raises(BackendError):
        backend.transcribe(band_noise(83, duration_s=0.05))
    assert backend.queries_used == 0
    assert backend.queries_remaining == backend.budget


def test_remote_backend_bad_responses_cost_nothing(stub_server):
    config = RemoteConfig(url=stub_server.url)
    audio = band_noise(84, duration_s=0.05)

    stub_server.responses = [(200, b"this is not json")]
    backend = RemoteTranscriber(config, "x")
    with pytest.raises(BackendError):
        backend.transcribe(audio)
    assert backend.queries_used == 0

    stub_server.requests.clear()
    stub_server.responses = [(200, json.dumps({"wrong_key": "hi"}).encode())]
    with pytest.raises(BackendError):
        backend.transcribe(audio)
    assert backend.queries_used == 0

    stub_server.requests.clear()
    stub_server.responses = [(200, json.dumps({"transcript": 42}).encode())]
    with pytest.raises(BackendError):
        backend.transcribe(audio)
    assert backend.queries_used == 0

    # after all those failures the budget is still fully available
    stub_server.requests.clear()
    stub_server.responses = [(200, json.dumps({"transcript": "x"}).encode())]
    assert backend.transcribe(audio).accepted
    assert backend.queries_used == 1


@pytest.mark.parametrize("path, document", [
    ("result.first", {"result": ["open the door"]}),
    ("transcript.text", {"transcript": "open the door"}),
    ("count.0", {"count": 3}),
], ids=["word-into-a-list", "past-a-string", "past-a-number"])
def test_remote_backend_unwalkable_transcript_path_costs_nothing(
        stub_server, tmp_path, wav_on_disk, capsys, path, document):
    stub_server.responses = [(200, json.dumps(document).encode())]
    backend = RemoteTranscriber(
        RemoteConfig(url=stub_server.url, transcript_json_path=path), "open the door")
    with pytest.raises(BackendError, match="unusable response"):
        backend.transcribe(band_noise(87, duration_s=0.05))
    assert backend.queries_used == 0
    # the CLI reports a backend error and stops at the first response
    stub_server.requests.clear()
    config_path = tmp_path / "stt.json"
    config_path.write_text(json.dumps({"url": stub_server.url,
                                       "transcript_json_path": path}))
    src = wav_on_disk(band_noise(88, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", "open the door",
                 "--backend", f"remote:{config_path}"]) == 1
    assert "unusable response" in capsys.readouterr().err
    assert len(stub_server.requests) == 1


def test_remote_backend_http_error_costs_nothing(stub_server):
    stub_server.responses = [(500, b"boom")]
    backend = RemoteTranscriber(RemoteConfig(url=stub_server.url), "x")
    with pytest.raises(BackendError):
        backend.transcribe(band_noise(85, duration_s=0.05))
    assert backend.queries_used == 0


def test_remote_backend_malformed_response_costs_nothing(stub_server, tmp_path,
                                                        wav_on_disk, capsys):
    # an answer with no HTTP status line makes http.client raise
    # BadStatusLine, which is not an OSError
    stub_server.responses = [(None, b"garbage\r\n\r\n")]
    backend = RemoteTranscriber(RemoteConfig(url=stub_server.url), "open the door")
    with pytest.raises(BackendError, match="transport failure"):
        backend.transcribe(band_noise(89, duration_s=0.05))
    assert backend.queries_used == 0
    # the CLI reports a backend error, without a traceback, and stops there
    stub_server.requests.clear()
    config_path = tmp_path / "stt.json"
    config_path.write_text(json.dumps({"url": stub_server.url}))
    src = wav_on_disk(band_noise(90, duration_s=0.2))
    assert main(["attack", str(src), "--target-phrase", "open the door",
                 "--backend", f"remote:{config_path}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("backend error: transport failure") and "Traceback" not in err
    assert len(stub_server.requests) == 1


def test_load_remote_config(tmp_path):
    path = tmp_path / "remote.json"
    path.write_text(json.dumps({
        "url": "http://example.invalid/stt",
        "auth_env": "TOKEN",
        "transcript_json_path": "result.0.transcript",
        "budget": 4}))
    config = load_remote_config(str(path))
    assert config.url == "http://example.invalid/stt"
    assert config.budget == 4
    assert config.method == "POST"
    path.write_text(json.dumps({"url": "http://x", "auth_env": None}))
    assert load_remote_config(str(path)).auth_env is None

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"url": "http://x", "tokens": "nope"}))
    with pytest.raises(ValueError):
        load_remote_config(str(bad))
    nourl = tmp_path / "nourl.json"
    nourl.write_text(json.dumps({"budget": 3}))
    with pytest.raises(ValueError):
        load_remote_config(str(nourl))
    notobj = tmp_path / "notobj.json"
    notobj.write_text(json.dumps(["http://x"]))
    with pytest.raises(ValueError):
        load_remote_config(str(notobj))


@pytest.mark.parametrize("key, value", [
    ("url", 5), ("method", None), ("content_type", ["audio/wav"]),
    ("transcript_json_path", 0), ("auth_env", 1), ("budget", "3"),
    ("budget", 3.0), ("budget", True), ("max_word_edit_distance", "2"),
    ("max_word_edit_distance", False), ("max_word_edit_distance", -1)])
def test_load_remote_config_rejects_bad_types(tmp_path, key, value):
    fields = {"url": "http://x", key: value}
    path = tmp_path / "remote.json"
    path.write_text(json.dumps(fields))
    with pytest.raises(ValueError, match=key):
        load_remote_config(str(path))
    with pytest.raises(ValueError, match=key):  # built in code: the same checks
        RemoteConfig(**fields)


@pytest.mark.parametrize("phrase", ["", "!!!", " . "])
def test_remote_backend_rejects_a_target_phrase_with_no_words(stub_server, phrase):
    # silence would match it: the API hears nothing and the query is "accepted"
    stub_server.responses = [(200, json.dumps({"transcript": ""}).encode())]
    assert phrase_matches("", phrase)
    with pytest.raises(ValueError, match="no words"):
        RemoteTranscriber(RemoteConfig(url=stub_server.url), phrase)
    assert stub_server.requests == []


def test_generic_attack_over_remote_backend(stub_server):
    # reject twice, then accept with a near-miss transcript
    reject = json.dumps({"transcript": "static hiss"}).encode()
    accept = json.dumps({"transcript": "open the dor"}).encode()
    stub_server.responses = [(200, reject), (200, reject), (200, accept)]
    backend = RemoteTranscriber(
        RemoteConfig(url=stub_server.url, budget=10), "open the door")
    ref = band_noise(86, duration_s=0.2)
    result = generic_attack(ref, backend, tdi_probe_schedule(count=5))
    assert isinstance(result, AttackCandidate)
    assert result.verdict.query_index == 3
    assert result.verdict.transcript == "open the dor"
    assert backend.queries_used == 3
