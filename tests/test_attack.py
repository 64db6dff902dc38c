import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import garble.attack
from garble.attack import (
    AttackCandidate,
    BackendError,
    BudgetExceededError,
    ExhaustionReport,
    RemoteConfig,
    calibrate_mock_threshold,
    distortion_key,
    generic_attack,
    improved_attack,
    load_remote_config,
    mock_oracle,
    normalize_phrase,
    phrase_matches,
    remote_transcriber,
    word_edit_distance,
)
from garble.audio_io import AudioBuffer, read_wav
from garble.perturb import PerturbationParams, apply_params, tdi_probe_schedule
from synth import band_noise, random_buffer


# --- budget bookkeeping -------------------------------------------------------


def test_budget_enforced():
    ref = band_noise(60, duration_s=0.5)
    backend = mock_oracle(ref, "ok", threshold=np.inf, budget=2)
    assert backend.queries_remaining == 2
    v1 = backend.transcribe(ref)
    v2 = backend.transcribe(ref)
    assert (v1.query_index, v2.query_index) == (1, 2)
    assert backend.queries_used == 2 and backend.queries_remaining == 0
    with pytest.raises(BudgetExceededError):
        backend.transcribe(ref)
    with pytest.raises(ValueError):
        mock_oracle(ref, "ok", threshold=1.0, budget=0)


def test_mock_oracle_thresholds():
    ref = band_noise(61, duration_s=0.5)
    accept_all = mock_oracle(ref, "open the door", threshold=np.inf)
    verdict = accept_all.transcribe(random_buffer(62, len(ref)))
    assert verdict.accepted and verdict.transcript == "open the door"

    exact_only = mock_oracle(ref, "open the door", threshold=0.0)
    assert exact_only.transcribe(ref).accepted
    rejected = exact_only.transcribe(apply_params(
        ref, PerturbationParams(tdi_window_ms=1.0)))
    assert not rejected.accepted and rejected.transcript == ""


def test_mock_oracle_rejects_white_noise_at_calibrated_threshold():
    refs = [band_noise(s, duration_s=0.5) for s in (63, 64)]
    threshold = calibrate_mock_threshold(refs)
    backend = mock_oracle(refs[0], "ok", threshold)
    noise = AudioBuffer(np.random.default_rng(0).normal(0.0, 0.1, 8000), 16000)
    assert not backend.transcribe(noise).accepted
    # feature-preserving scramble sits under the same threshold
    scrambled = apply_params(refs[0], PerturbationParams(rpg_window_ms=20.0))
    assert backend.transcribe(scrambled).accepted


def test_calibration_requires_separation():
    # heterogeneous references cannot share one threshold: the click track's
    # phase-scrambled variants drift further than white noise sits from the
    # noise-like reference, so the two anchors overlap
    clicks = np.zeros(8000)
    clicks[::800] = 0.8
    white = AudioBuffer(np.random.default_rng(1).normal(0.0, 0.3, 8000), 16000)
    with pytest.raises(ValueError):
        calibrate_mock_threshold([AudioBuffer(clicks, 16000), white])


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
    probe = mock_oracle(ref, "x", threshold=0.0, budget=1)  # only for distances
    dists = [probe.distance_to_reference(apply_params(ref, p)) for p in schedule]
    assert dists[2] < min(dists[0], dists[1])  # fixture precondition
    threshold = (dists[2] + min(dists[0], dists[1])) / 2.0
    return ref, schedule, threshold, dists


def test_generic_attack_returns_most_distorted_accepted():
    ref, schedule, threshold, _ = attackable_fixture()
    backend = mock_oracle(ref, "open the door", threshold)
    result = generic_attack(ref, backend, schedule)
    assert isinstance(result, AttackCandidate)
    assert result.verdict is not None and result.verdict.accepted
    assert result.verdict.query_index == 3
    assert backend.queries_used == 3
    assert result.params.tdi_window_ms == schedule[2].tdi_window_ms
    assert result.distortion_rank == 2


def test_generic_attack_exhaustion_report():
    ref, schedule, _, _ = attackable_fixture()
    backend = mock_oracle(ref, "x", threshold=0.0)  # nothing will pass
    result = generic_attack(ref, backend, schedule)
    assert isinstance(result, ExhaustionReport)
    assert backend.queries_used == len(schedule)
    assert result.queries_used == len(schedule)
    assert len(result.candidates) == len(schedule)
    assert all(c.verdict is not None and not c.verdict.accepted
               for c in result.candidates)


def test_generic_attack_stops_at_budget_without_raising():
    ref, schedule, _, _ = attackable_fixture()
    backend = mock_oracle(ref, "x", threshold=0.0, budget=3)
    result = generic_attack(ref, backend, schedule)
    assert isinstance(result, ExhaustionReport)
    assert result.queries_used == 3
    assert len(result.candidates) == 3
    assert backend.queries_remaining == 0


def test_generic_attack_validates_inputs():
    ref = band_noise(66, duration_s=0.5)
    backend = mock_oracle(ref, "x", threshold=np.inf)
    with pytest.raises(ValueError):
        generic_attack(ref, backend, [])
    backend.transcribe(ref)  # spend one query
    with pytest.raises(ValueError):
        generic_attack(ref, backend, tdi_probe_schedule(count=2))


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
    result = generic_attack(ref, mock_oracle(ref, "x", threshold), schedule)
    assert result.distortion_rank == 2
    assert len(render_count) == 3  # of 5 schedule points
    render_count.clear()
    result = generic_attack(ref, mock_oracle(ref, "x", threshold=0.0, budget=3), schedule)
    assert isinstance(result, ExhaustionReport) and result.queries_used == 3
    assert len(render_count) == 3


def test_improved_attack_renders_k_variants_per_word(render_count):
    words = [band_noise(76, duration_s=0.25), band_noise(77, duration_s=0.25)]
    schedule = tdi_probe_schedule(count=5)
    result = improved_attack(words, 2, mock_oracle(words[0], "x", threshold=0.0),
                             schedule)
    assert isinstance(result, ExhaustionReport) and result.queries_used == 4
    assert len(render_count) == 4  # 2 per word, not the 5-point schedule
    assert render_count == [schedule[0], schedule[1]] * 2


def test_generic_attack_deterministic():
    ref, schedule, threshold, _ = attackable_fixture()
    a = generic_attack(ref, mock_oracle(ref, "x", threshold), schedule)
    b = generic_attack(ref, mock_oracle(ref, "x", threshold), schedule)
    assert np.array_equal(a.audio.samples, b.audio.samples)


# --- improved (per-word) attack --------------------------------------------------


def test_improved_attack_orders_combinations_lexicographically():
    words = [band_noise(70, duration_s=0.3), band_noise(71, duration_s=0.3)]
    schedule = tdi_probe_schedule(count=3)
    backend = mock_oracle(words[0], "x", threshold=0.0, budget=9)
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
    backend = mock_oracle(words[0], "go", threshold=np.inf)  # accept first combo
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
    probe = mock_oracle(word, "x", threshold=0.0, budget=1)
    dists = [probe.distance_to_reference(apply_params(word, p)) for p in schedule]
    # allow only the two cleanest probes through the local pre-filter
    cutoff = sorted(dists)[1]
    backend = mock_oracle(word, "x", threshold=0.0, budget=10)
    result = improved_attack([word], 5, backend, schedule,
                             feature_threshold=cutoff + 1e-12)
    assert isinstance(result, ExhaustionReport)
    assert result.queries_used == 2  # 3 of 5 variants were filtered out locally
    with pytest.raises(ValueError):
        improved_attack([word], 5, mock_oracle(word, "x", 0.0), schedule,
                        feature_threshold=0.0)


def test_improved_attack_validates_inputs():
    word = band_noise(75, duration_s=0.25)
    backend = mock_oracle(word, "x", threshold=np.inf)
    with pytest.raises(ValueError):
        improved_attack([], 2, backend, tdi_probe_schedule(count=2))
    with pytest.raises(ValueError):
        improved_attack([word], 0, backend, tdi_probe_schedule(count=2))
    with pytest.raises(ValueError):
        improved_attack([word], 2, backend, [])
    other_rate = AudioBuffer(word.samples, 8000)
    with pytest.raises(ValueError):
        improved_attack([word, other_rate], 2, backend, tdi_probe_schedule(count=2))


# --- phrase matching --------------------------------------------------------------


def test_normalize_phrase():
    assert normalize_phrase("Open, the DOOR!") == ["open", "the", "door"]
    assert normalize_phrase("  ") == []
    assert normalize_phrase("a-b c") == ["a", "b", "c"]


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


# --- remote backend ----------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append(
            {"headers": dict(self.headers), "body": body, "path": self.path})
        idx = min(len(self.server.requests) - 1, len(self.server.responses) - 1)
        status, payload = self.server.responses[idx]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *_args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.responses = [(200, b"{}")]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _url(server):
    return f"http://127.0.0.1:{server.server_address[1]}/transcribe"


def test_remote_backend_roundtrip(stub_server):
    stub_server.responses = [
        (200, json.dumps({"result": [{"transcript": "open the door"}]}).encode())]
    config = RemoteConfig(url=_url(stub_server),
                          transcript_json_path="result.0.transcript", budget=3)
    backend = remote_transcriber(config, "open the door")
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
    config = RemoteConfig(url=_url(stub_server), auth_env="STT_TOKEN")
    backend = remote_transcriber(config, "open the door")
    verdict = backend.transcribe(band_noise(81, duration_s=0.1))
    assert not verdict.accepted and verdict.transcript == "nope"
    assert stub_server.requests[0]["headers"]["Authorization"] == "Bearer sekret"


def test_remote_backend_missing_token_costs_nothing(stub_server, monkeypatch):
    monkeypatch.delenv("NO_SUCH_TOKEN", raising=False)
    config = RemoteConfig(url=_url(stub_server), auth_env="NO_SUCH_TOKEN")
    backend = remote_transcriber(config, "x")
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
    backend = remote_transcriber(
        RemoteConfig(url=f"http://127.0.0.1:{port}/t"), "x")
    with pytest.raises(BackendError):
        backend.transcribe(band_noise(83, duration_s=0.05))
    assert backend.queries_used == 0
    assert backend.queries_remaining == backend.budget


def test_remote_backend_bad_responses_cost_nothing(stub_server):
    config = RemoteConfig(url=_url(stub_server))
    audio = band_noise(84, duration_s=0.05)

    stub_server.responses = [(200, b"this is not json")]
    backend = remote_transcriber(config, "x")
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


def test_remote_backend_http_error_costs_nothing(stub_server):
    stub_server.responses = [(500, b"boom")]
    backend = remote_transcriber(RemoteConfig(url=_url(stub_server)), "x")
    with pytest.raises(BackendError):
        backend.transcribe(band_noise(85, duration_s=0.05))
    assert backend.queries_used == 0


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


def test_generic_attack_over_remote_backend(stub_server):
    # reject twice, then accept with a near-miss transcript
    reject = json.dumps({"transcript": "static hiss"}).encode()
    accept = json.dumps({"transcript": "open the dor"}).encode()
    stub_server.responses = [(200, reject), (200, reject), (200, accept)]
    backend = remote_transcriber(
        RemoteConfig(url=_url(stub_server), budget=10), "open the door")
    ref = band_noise(86, duration_s=0.2)
    result = generic_attack(ref, backend, tdi_probe_schedule(count=5))
    assert isinstance(result, AttackCandidate)
    assert result.verdict.query_index == 3
    assert result.verdict.transcript == "open the dor"
    assert backend.queries_used == 3
