"""Shared fixtures and fixture builders."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import socket
import socketserver
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import emocause
from emocause import transport
from emocause.embedding import HashTextEmbedder
from emocause.extraction import MockExtractor
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


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server naming)
        stub = self.server.stub
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = raw and json.loads(raw)
        stub.requests.append((self.path, self.headers.get("Authorization"), body))
        stub.sent.append(SimpleNamespace(headers=self.headers.items(), raw=raw, port=self.client_address[1]))
        if stub.replies:
            status, reply = stub.replies.pop(0)
        elif self.path in stub.routes:
            status, reply = 200, json.dumps(stub.routes[self.path](body)).encode()
        else:
            status, reply = stub.default
        time.sleep(stub.hold_s)
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


class _CountedConnections(socketserver.StreamRequestHandler):
    """A connection stays open for the next request until either side closes
    it. Each one is counted in `connections` and kept in `open` while its
    handler runs."""

    disable_nagle_algorithm = True  # else each reply's body waits on the client's delayed ACK
    timeout = 10  # a connection the client leaves open ends its handler at the latest then

    def setup(self):
        super().setup()
        with self.server.stub.lock:
            self.server.stub.connections += 1
            self.server.stub.open.add(self.connection)

    def finish(self):
        super().finish()
        with self.server.stub.lock:
            self.server.stub.open.discard(self.connection)


class _KeepAliveHandler(_CountedConnections, _StubHandler):
    """_StubHandler over HTTP/1.1, on a connection kept open."""

    protocol_version = "HTTP/1.1"


class _RawHandler(_CountedConnections):
    """Answers each request on a connection with the stub's next scripted bytes."""

    def handle(self):
        stub = self.server.stub
        try:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = self.rfile.readline()
                    if not line:  # the client closed the connection
                        return
                    head += line
                length = next((int(line.split(b":")[1]) for line in head.split(b"\r\n")
                               if line.lower().startswith(b"content-length:")), 0)
                with stub.lock:
                    stub.requests.append(head + self.rfile.read(length))
                    reply = stub.replies.pop(0) if len(stub.replies) > 1 else stub.replies[0]
                if stub.pause_s:
                    for byte in reply:
                        time.sleep(stub.pause_s)
                        self.wfile.write(bytes([byte]))
                else:
                    self.wfile.write(reply)
                if stub.close:
                    return
        except OSError:  # the client reset the connection, or left it idle for `timeout` seconds
            pass


def wait_for(condition, seconds=5.0):
    """Poll condition() until it holds; fail the test after `seconds`."""
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.005)


class _Rendezvous:
    """The first REMOTE_WORKERS calls return only when all of them are in
    flight at once: with fewer at a time, or fewer calls in all, the barrier
    breaks after 5 s and each waiting call raises BrokenBarrierError.
    `calls` counts every call made."""

    def __init__(self):
        self.barrier = threading.Barrier(transport.REMOTE_WORKERS, timeout=5)
        self.calls, self.lock = 0, threading.Lock()

    def __call__(self):
        with self.lock:
            self.calls += 1
            waits = self.calls <= self.barrier.parties
        if waits:
            self.barrier.wait()


class PairedExtractor(MockExtractor):
    """MockExtractor in remote mode, so that transport.map_calls overlaps its
    calls; its first REMOTE_WORKERS calls prove it by meeting at a _Rendezvous."""

    mode = "remote"

    def __init__(self):
        self.rendezvous = _Rendezvous()

    def complete(self, prompt_text):
        self.rendezvous()
        return super().complete(prompt_text)


class PairedNli(JaccardNli):
    """JaccardNli in remote mode, its first REMOTE_WORKERS calls meeting as PairedExtractor's do."""

    mode = "remote"

    def __init__(self):
        self.rendezvous = _Rendezvous()

    def entailment_probability(self, premise, hypothesis):
        self.rendezvous()
        return super().entailment_probability(premise, hypothesis)


def serve_offline_providers(stub, monkeypatch, dim=8):
    """Answer /embed, /chat and /nli on an http_stub-like stub as the offline
    providers would, and point the remote providers' endpoint variables at
    them. Returns the run flags that select all three remote providers."""
    embedder, extractor, nli = HashTextEmbedder(dim), MockExtractor(), JaccardNli()
    stub.routes.update({
        "/embed": lambda req: {"embeddings": [embedder.embed(t).tolist() for t in req["input"]]},
        "/chat": lambda req: {
            "content": extractor.complete("\n".join(m["content"] for m in req["messages"]))
        },
        "/nli": lambda req: {
            "entailment_probability": nli.entailment_probability(req["premise"], req["hypothesis"])
        },
    })
    for var, path in (("EMBED", "embed"), ("LLM", "chat"), ("NLI", "nli")):
        monkeypatch.setenv(f"{var}_ENDPOINT", stub.url(path))
    return ["--embedder", f"remote:m1:{dim}", "--provider", "remote:glm", "--nli", "remote"]


def _serve(monkeypatch, server_class, handler, **fields):
    """A stub server on 127.0.0.1, as http_stub describes, for the duration of
    a fixture; `fields` add to or replace the stub's attributes."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")

    class Server(server_class):  # socketserver's backlog of 5 is below REMOTE_WORKERS, and a
        request_queue_size = 64  # connect the full backlog drops waits 1 s for its resent SYN

    server = Server(("127.0.0.1", 0), handler)
    stub = SimpleNamespace(
        requests=[], sent=[], headers={}, replies=[], routes={}, default=(200, b"{}"), hold_s=0.0,
        connections=0, open=set(), lock=threading.Lock(), **fields,
    )
    stub.url = lambda path: f"http://127.0.0.1:{server.server_address[1]}/{path}"

    def script(*replies):
        encoded = [(status, (body if isinstance(body, str) else json.dumps(body)).encode())
                   for status, body in replies]
        stub.replies[:], stub.default = encoded[:-1], encoded[-1]

    def close_open_connections():
        with stub.lock:
            connections = list(stub.open)
        for conn in connections:
            with contextlib.suppress(OSError):  # one the client has reset is no longer connected
                conn.shutdown(socket.SHUT_RDWR)
        wait_for(lambda: not stub.open)

    stub.script, stub.close_open_connections = script, close_open_connections
    server.stub = stub
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield stub
    finally:
        server.shutdown()
        close_open_connections()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def http_stub(monkeypatch):
    """An HTTP/1.0 server on 127.0.0.1 that closes each connection after its
    reply. It records each request as (path, Authorization header, JSON body
    or b"" for none) in `requests` and its headers, body bytes and client
    port in `sent`, and answers with the next queued (status, body bytes)
    reply; once the queue is empty, with 200 and `routes[path](body)` as
    JSON when `routes` has the path, else `default`. `script(*replies)`
    queues (status, body) replies, the last one answering every request from
    then on, and sends a body that is not a str as JSON. Every reply also
    carries the `headers` dict and is held `hold_s` seconds."""
    yield from _serve(monkeypatch, HTTPServer, _StubHandler)


@pytest.fixture
def keepalive_stub(monkeypatch):
    """http_stub over HTTP/1.1, one thread per connection, so that a client
    may keep a connection open. It counts the connections it accepted in
    `connections`, and `close_open_connections()` closes every open one from
    the server's side and waits for their handlers to end."""
    yield from _serve(monkeypatch, ThreadingHTTPServer, _KeepAliveHandler)


@pytest.fixture
def raw_stub(monkeypatch):
    """A server on 127.0.0.1 that answers each request with scripted bytes,
    one thread per connection. It records each whole request, head and body
    bytes, in `requests` and counts the connections it accepted in
    `connections`. Each request gets the next bytes in `replies`, the last
    one answering every request from then on. With `close` set, the server
    closes the connection after each reply; with `pause_s` set, it sends a
    reply one byte at a time, pausing that long before each byte."""
    yield from _serve(monkeypatch, socketserver.ThreadingTCPServer, _RawHandler, close=False, pause_s=0.0)


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
