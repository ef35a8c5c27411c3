"""Localhost HTTP stub that serves the remote-provider contracts.

Replies come from the package's offline providers, so a remote run must
produce the same artifacts as an offline one:

* ``POST /embed``  {model, input: [text]}     -> {embeddings: [[...]]}  (HashTextEmbedder)
* ``POST /chat``   {model, messages, ...}     -> {content}              (MockExtractor)
* ``POST /nli``    {premise, hypothesis}      -> {entailment_probability} (JaccardNli)

Each reply is held for a fixed time before it is sent, standing in for a
model's service time. The socket has Nagle's algorithm off and every
response goes out in one write; otherwise each keep-alive round trip
waits for the peer's delayed ACK (tens of milliseconds on Linux) and the
benchmark would measure the stub instead of the client.

Requests, body bytes in and out, failures and handling time are counted
per endpoint on the server side.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from emocause.embedding import HashTextEmbedder
from emocause.extraction import MockExtractor
from emocause.graph import JaccardNli

ENDPOINTS = ("embed", "chat", "nli")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 30  # an idle keep-alive connection closes instead of blocking shutdown

    def do_POST(self):  # noqa: N802 (http.server naming)
        t0 = time.perf_counter()
        stub: ProviderStub = self.server.stub
        endpoint = self.path.strip("/")
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        handler = stub.routes.get(endpoint)
        status = HTTPStatus.OK
        try:
            if handler is None:
                status, payload = HTTPStatus.NOT_FOUND, {"error": f"no route {self.path}"}
            else:
                payload = handler(json.loads(body))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            status, payload = HTTPStatus.BAD_REQUEST, {"error": str(exc)}
        out = json.dumps(payload).encode("utf-8")
        time.sleep(stub.hold_s)
        head = (
            f"HTTP/1.1 {status.value} {status.phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(out)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + out)
        stub.record(endpoint, len(body), len(out), status != HTTPStatus.OK, time.perf_counter() - t0)

    def log_message(self, format, *args):  # noqa: A002 (http.server signature)
        pass


class ProviderStub:
    """Threaded localhost server; use as a context manager."""

    def __init__(self, dim: int = 64, seed: int = 0, hold_s: float = 0.001):
        self.hold_s = hold_s
        embedder, extractor, nli = HashTextEmbedder(dim, seed), MockExtractor(), JaccardNli()
        self.routes = {
            "embed": lambda req: {"embeddings": [embedder.embed(t).tolist() for t in req["input"]]},
            "chat": lambda req: {
                "content": extractor.complete("\n".join(m["content"] for m in req["messages"]))
            },
            "nli": lambda req: {
                "entailment_probability": nli.entailment_probability(req["premise"], req["hypothesis"])
            },
        }
        self._lock = threading.Lock()
        self.counts: Counter = Counter()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def url(self, endpoint: str) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/{endpoint}"

    def record(self, endpoint: str, n_in: int, n_out: int, failed: bool, seconds: float) -> None:
        with self._lock:
            self.counts[f"requests.{endpoint}"] += 1
            self.counts["bytes_in"] += n_in
            self.counts["bytes_out"] += n_out
            self.counts["failures"] += int(failed)
            self.counts["server_s"] += seconds

    def snapshot(self) -> Counter:
        with self._lock:
            return Counter(self.counts)

    def __enter__(self) -> "ProviderStub":
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, name="provider-stub")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # Clients must close their sessions first so keep-alive handler
        # threads see EOF; server_close() then joins them.
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=30)
