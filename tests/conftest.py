"""Shared fixtures and fixture builders."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest
import requests

from emocause import transport
from emocause.embedding import HashTextEmbedder
from emocause.graph import JaccardNli
from emocause.model import (
    AudioFeatureRecord,
    DEFAULT_EMOTION_CATEGORIES,
    Dialogue,
    ScoringConfig,
    Sextuplet,
    Utterance,
)


@pytest.fixture
def embedder():
    return HashTextEmbedder(dim=64, seed=0)


@pytest.fixture
def nli():
    return JaccardNli()


@pytest.fixture
def cfg():
    return ScoringConfig()


@pytest.fixture(autouse=True)
def backoff_sleeps(monkeypatch):
    """The transport's backoff delays, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(transport, "time", SimpleNamespace(sleep=delays.append))
    return delays


class ScriptedSession(requests.Session):
    """A real requests.Session whose only override is `send`: it records
    each PreparedRequest and its send keywords, then answers with the next
    scripted (status, body) reply, the last one forever; a body that is not
    a str is sent as JSON. Without replies the request goes out for real.
    It ignores proxy variables and ~/.netrc, so neither reaches a test."""

    def __init__(self, *replies):
        super().__init__()
        self.trust_env = False
        self.replies = list(replies)
        self.requests = []
        self.send_kwargs = []

    @property
    def posts(self):
        return len(self.requests)

    def send(self, request, **kwargs):
        self.requests.append(request)
        self.send_kwargs.append(kwargs)
        if not self.replies:
            return super().send(request, **kwargs)
        status, body = self.replies[min(self.posts, len(self.replies)) - 1]
        resp = requests.Response()
        resp.status_code = status
        resp._content = (body if isinstance(body, str) else json.dumps(body)).encode()
        resp.encoding = "utf-8"
        resp.request, resp.url = request, request.url
        return resp


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server naming)
        stub = self.server.stub
        body = self.rfile.read(int(self.headers["Content-Length"]))
        stub.requests.append((self.path, self.headers.get("Authorization"), json.loads(body)))
        status, reply = stub.replies.pop(0) if stub.replies else stub.default
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub(monkeypatch):
    """An HTTP server on 127.0.0.1 that records each POST as (path,
    Authorization header, JSON body) and answers with the next queued
    (status, body bytes) reply, or with `default` once the queue is empty."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    stub = SimpleNamespace(requests=[], replies=[], default=(200, b"{}"))
    stub.url = lambda path: f"http://127.0.0.1:{server.server_port}/{path}"
    server.stub = stub
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield stub
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def make_utterance(index, text="hello there everyone", speaker="ana", t_start=None, t_end=None):
    t0 = float(index * 4) if t_start is None else t_start
    t1 = t0 + 4.0 if t_end is None else t_end
    return Utterance(index=index, speaker=speaker, text=text, t_start=t0, t_end=t1)


def make_audio(index, peak=0, dim=len(DEFAULT_EMOTION_CATEGORIES), intensity=0.5, rate=2.0):
    emotion = [0.0] * dim
    emotion[peak] = 1.0
    return AudioFeatureRecord(
        utterance_index=index, emotion=tuple(emotion), intensity=intensity, speech_rate=rate
    )


def make_dialogue(n=4, with_audio=True, dialogue_id="dlg-1", scenario="customer_service"):
    utterances = tuple(make_utterance(i) for i in range(n))
    audio = {i: make_audio(i) for i in range(n)} if with_audio else {}
    return Dialogue(id=dialogue_id, scenario=scenario, utterances=utterances, audio=audio)


def make_sextuplet(
    sid,
    holder="Ana",
    target="Volt",
    aspect="pricing",
    opinion="negative",
    sentiment="negative",
    rationale="the fees doubled overnight",
    t_start=0.0,
    t_end=4.0,
    window_index=0,
):
    return Sextuplet(
        id=sid,
        holder=holder,
        target=target,
        aspect=aspect,
        opinion=opinion,
        sentiment_label=sentiment,
        rationale=rationale,
        window_index=window_index,
        t_start=t_start,
        t_end=t_end,
    )
