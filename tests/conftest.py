import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from garble.audio_io import write_wav


@pytest.fixture
def wav_on_disk(tmp_path):
    """Factory: persist an AudioBuffer to a temp .wav and return its path."""

    def _save(buf, name="in.wav"):
        path = tmp_path / name
        path.write_bytes(write_wav(buf))
        return path

    return _save


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append(
            {"headers": dict(self.headers), "body": body, "path": self.path})
        idx = min(len(self.server.requests) - 1, len(self.server.responses) - 1)
        status, payload = self.server.responses[idx]
        if status is None:  # raw bytes, not even a status line
            self.wfile.write(payload)
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *_args):
        pass


@pytest.fixture
def stub_server():
    """A transcription API on 127.0.0.1: it records each request in
    .requests and answers the k-th with .responses[k] (the last one once
    they run out), a (status, body) pair, status None for raw bytes. Its
    endpoint is .url."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.responses = [(200, b"{}")]
    server.url = f"http://127.0.0.1:{server.server_address[1]}/transcribe"
    # a short poll, so shutdown() returns at once instead of after 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
