"""Shared fixtures and fixture builders."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urljoin

import pytest
import requests
import urllib3

import emocause
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
    """A real requests.Session whose mounted adapters hand out recording
    pools. Each POST is recorded in `requests` (with .url, .body and
    .headers) and answered with the next scripted (status, body) reply, the
    last one forever; a body that is not a str is sent as JSON. Without
    replies the request goes out for real through the adapter's own pool.
    `pool_proxies` lists the proxies each pool was resolved with. The
    session ignores proxy variables and ~/.netrc, so neither reaches a test."""

    def __init__(self, *replies):
        super().__init__()
        self.trust_env = False
        self.replies = list(replies)
        self.requests = []
        self.pool_proxies = []
        for prefix in ("https://", "http://"):
            self.mount(prefix, _ScriptedAdapter(self))

    @property
    def posts(self):
        return len(self.requests)


class _ScriptedAdapter(requests.adapters.HTTPAdapter):
    def __init__(self, session):
        super().__init__()
        self.session = session

    def get_connection_with_tls_context(self, request, verify, proxies=None, cert=None):
        self.session.pool_proxies.append(proxies)
        pool = super().get_connection_with_tls_context(request, verify, proxies, cert)
        return _ScriptedPool(self.session, pool, request.url)

    def cert_verify(self, conn, url, verify, cert):
        super().cert_verify(conn.pool, url, verify, cert)


class _ScriptedPool:
    def __init__(self, session, pool, url):
        self.session, self.pool, self.url = session, pool, url

    def urlopen(self, method, url, body=None, headers=None, **kwargs):
        session = self.session
        session.requests.append(SimpleNamespace(url=urljoin(self.url, url), body=body, headers=headers))
        if not session.replies:
            return self.pool.urlopen(method, url, body=body, headers=headers, **kwargs)
        status, reply = session.replies[min(session.posts, len(session.replies)) - 1]
        data = (reply if isinstance(reply, str) else json.dumps(reply)).encode()
        return urllib3.HTTPResponse(io.BytesIO(data), status=status, preload_content=True)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server naming)
        stub = self.server.stub
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = raw and json.loads(raw)
        stub.requests.append((self.path, self.headers.get("Authorization"), body))
        stub.cookies.append(self.headers.get("Cookie"))
        if stub.replies:
            status, reply = stub.replies.pop(0)
        elif self.path in stub.routes:
            status, reply = 200, json.dumps(stub.routes[self.path](body)).encode()
        else:
            status, reply = stub.default
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        for name, value in stub.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply)

    do_GET = do_POST  # a followed redirect arrives as a GET without a body

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub(monkeypatch):
    """An HTTP server on 127.0.0.1 that records each request as (path,
    Authorization header, JSON body or b"" for none) in `requests` and its
    Cookie header in `cookies`, and answers with the next queued (status,
    body bytes) reply; once the queue is empty, with 200 and
    `routes[path](body)` as JSON when `routes` has the path, else `default`.
    Every reply also carries the `headers` dict."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    stub = SimpleNamespace(
        requests=[], cookies=[], headers={}, replies=[], routes={}, default=(200, b"{}")
    )
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


def child(*args: str, cli: bool = False) -> tuple[list[str], dict[str, str]]:
    """The command line and environment of `python *args` in a child
    process, or with cli=True of the `emocause` script with args (`python -m
    emocause.cli` where no script is on PATH). The child's PYTHONPATH is the
    absolute directory this process imports emocause from, so it runs the
    same code whatever its working directory."""
    script = cli and shutil.which("emocause")
    command = [script] if script else [sys.executable, *(["-m", "emocause.cli"] if cli else [])]
    env = {**os.environ, "PYTHONPATH": str(Path(emocause.__file__).resolve().parents[1])}
    return [*command, *args], env


def run_child(*args: str, cli: bool = False) -> subprocess.CompletedProcess:
    """The child(*args, cli=cli) process run to its end, with text output captured."""
    argv, env = child(*args, cli=cli)
    return subprocess.run(argv, capture_output=True, text=True, env=env)


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
