"""The one JSON-over-HTTP transport behind every remote provider.

Each remote provider POSTs a JSON body to one endpoint, read from
``<PREFIX>_ENDPOINT`` with an optional bearer token from ``<PREFIX>_API_KEY``
unless both are given explicitly, and gets a JSON reply back.

http.client only connects (TCP, proxy tunnel, TLS) and validates. Resolved
once, when the endpoint is built: the request head, in the bytes http.client
checks and would send; the proxy, an ``http://`` one from urllib.request's
``getproxies()`` and ``proxy_bypass()``, with CONNECT for https; the TLS
context, verifying against the ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE``
file, else the system store. What cannot be resolved, a missing CA bundle too,
raises TransportError then. A request leaves in one write. Its reply is read
off the socket into one buffer: an HTTP/1.0 or 1.1 status line, 1xx replies
skipped, at most 100 header lines in a 64 KiB head, a body framed by chunked
Transfer-Encoding, else Content-Length, else the server's close (none after 204
or 304), in the identity Content-Encoding only. Where it reads a reply unlike
http.client, it follows RFC 9112: two different Content-Length values or one
not all digits (``+3``) are malformed (section 6.3), so are a ``0x`` chunk size
(1*HEXDIG) and chunk data without its CRLF (section 7.1) and, on the read that
brings it, a CR or LF outside a CRLF in a head, chunk-size line or trailer
(section 2.2); a field value's outer whitespace is not part of it (section 5),
``chunked`` too. Idle keep-alive connections wait in a LIFO list under a lock,
at most one per thread: only after a whole reply with no byte left over, on
HTTP/1.1 without ``Connection: close`` or HTTP/1.0 with keep-alive; one the
server has closed is reopened before use. A dropped endpoint's connections
close. Gone with requests, as a bearer-token JSON endpoint needs none: session
headers, netrc, cookies, mounted adapters, proxy credentials, a User-Agent,
certifi's CAs.

Retry policy: a connection, TLS or proxy error, a timeout, a reply cut short
or malformed, HTTP 429 and any 5xx are transient. An attempt gets ``timeout``
seconds from its start: connect() has that long for each of its steps, the
write and each read of the reply only the time left. The call is retried at
most MAX_RETRIES times, sleeping BACKOFF_BASE * 2**k seconds before retry k
(0.5, 1 and 2 s), so a request is posted at most four times before
TransportError. Any other status but 200, a 3xx too (redirects are not
followed), or another content encoding is final: TransportError after one
post. A 200 whose body is not JSON or nests too deeply raises
ResponseParseError carrying the raw text and is not retried: the same request
would get the same reply.

Width: map_calls keeps REMOTE_WORKERS = 8 calls of a remote stage in flight, as
each mostly waits on its reply; 8 halves the rounds 4 took, near-best on 2 cores
in or out of the server's process. A provider sees 8 calls at once, 8 keep-alive
connections an endpoint; if every post fails, (MAX_RETRIES + 1) * 8 = 32 posts.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
import threading
import time
from typing import Callable, Sequence

from .errors import ResponseParseError, TransportError

logger = logging.getLogger(__name__)

MAX_RETRIES = 3
BACKOFF_BASE = 0.5
REMOTE_WORKERS = 8
_MAX_HEAD = 65536  # bytes in a reply's head, chunk-size line or trailer: http.client's _MAXLINE
_BARE = re.compile(rb"\r[^\n]|(?<!\r)\n")  # a CR or LF outside a CRLF: RFC 9112 section 2.2
_clock = time.monotonic  # bound here: tests replace the module's `time` with one holding only sleep


def map_calls(fn: Callable, items: Sequence, provider) -> list:
    """[fn(x) for x in items] in input order. A remote provider's calls of one stage (a chat per
    window, an NLI call per distinct pair that can reach the threshold) overlap on REMOTE_WORKERS
    threads; any other provider's run in order, as local providers are pure Python and threads would
    only contend for the interpreter lock. It returns when every call has finished; after a failure
    no later item's call starts, and the first failing item raises. Each worker takes the next index
    off one counter, so calls start in input order, and stops once a call or a worker's start fails."""
    if provider.mode != "remote" or len(items) <= 1:
        return [fn(x) for x in items]
    taken, results, failed = itertools.count(), [None] * len(items), {}

    def work():  # next() of a count and a dict's store are atomic under the interpreter lock
        while not failed and (i := next(taken)) < len(items):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failed[i] = exc

    workers = [threading.Thread(target=work) for _ in range(min(REMOTE_WORKERS, len(items)))]
    try:
        for worker in workers:
            worker.start()
    except BaseException as exc:  # no worker takes an item after it, and it is raised first
        failed[-1] = exc
    for worker in filter(threading.Thread.is_alive, workers):  # each worker started ends before the call
        worker.join()
    if failed:
        raise failed[min(failed)]
    return results


def _connection_class(url: str, timeout: float):
    """The http.client connection class reaching url through its proxy, and the target to send."""
    import http.client  # here, not at module level: an offline run never loads it
    import select
    import ssl
    import urllib.parse
    import urllib.request

    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError("not an http:// or https:// URL")
    https, path, options, tunnel = parts.scheme == "https", parts.path or "/", {"timeout": timeout}, None
    address = (parts.hostname, parts.port or (443 if https else 80))
    target = urllib.parse.urlunsplit(("", "", path, parts.query, ""))
    ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if https and ca and not os.path.isfile(ca):
        raise ValueError(f"no CA certificate bundle file at {ca!r}")
    if https:
        options["context"] = ssl.create_default_context(cafile=ca)
    proxy = not urllib.request.proxy_bypass(parts.netloc) and urllib.request.getproxies().get(parts.scheme)
    if proxy:
        proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy.scheme != "http" or not proxy.hostname or proxy.username is not None:
            raise ValueError(f"proxy {proxy.geturl()!r} is not an http:// proxy without credentials")
        if https:  # CONNECT to the endpoint, then TLS to it through the tunnel
            tunnel = address
        else:  # an HTTP proxy takes the absolute URL
            target = urllib.parse.urlunsplit((parts.scheme, parts.netloc, path, parts.query, ""))
        address = (proxy.hostname, proxy.port or 80)

    class Connection(http.client.HTTPSConnection if https else http.client.HTTPConnection):
        def __init__(self):  # unconnected: post() connects
            super().__init__(*address, **options)
            if tunnel:
                self.set_tunnel(*tunnel)

        def post(self, request: bytes) -> tuple[int, dict, bytearray]:
            """The status, headers by lower-case name and body of the reply to
            request, each socket step given only the time the attempt has left."""
            deadline, buf, start, status = _clock() + self.timeout, bytearray(), 0, 100

            def left() -> float:
                if (seconds := deadline - _clock()) <= 0:
                    raise TimeoutError("timed out")
                return seconds

            def need(size: int) -> None:  # reads until buf holds size bytes
                while len(buf) < size:
                    self.sock.settimeout(left())
                    if not (data := self.sock.recv(65536)):
                        raise http.client.IncompleteRead(bytes(buf))
                    buf.extend(data)

            def find(sep: bytes, at: int) -> int:  # the next sep, at most _MAX_HEAD bytes after `at`
                while ((end := buf.find(sep, at)) < 0 and len(buf) - at <= _MAX_HEAD
                       and not _BARE.search(buf, at)):  # a CR read last is not bare yet: its LF may follow
                    need(len(buf) + 1)
                if _BARE.search(buf, at, len(buf) if end < 0 else end + 1):  # with sep's CR: a CR before it is bare
                    raise http.client.HTTPException("bare CR or LF in a reply's head or framing")
                if not 0 <= end - at <= _MAX_HEAD:
                    raise http.client.HTTPException(f"reply head or line over {_MAX_HEAD} bytes")
                return end

            if self.sock is None:
                self.connect()
            self.sock.settimeout(left())
            self.send(request)
            while status < 200:  # a 1xx reply is interim: the final one follows
                end = find(b"\r\n\r\n", start)
                status_line, *lines = buf[start:end].decode("latin-1").split("\r\n")
                version, _, rest = status_line.partition(" ")
                status = int(rest[:3]) if rest[:3].isdecimal() and rest[3:4] in ("", " ") else 0
                if version not in ("HTTP/1.0", "HTTP/1.1") or status < 100 or len(lines) > 100:
                    raise http.client.HTTPException(f"bad reply head: {status_line!r}, {len(lines)} headers")
                start = end + 4
            fields = [(n.strip().lower(), v.strip()) for n, _, v in (line.partition(":") for line in lines)]
            headers = dict(fields)
            lengths = {value for name, value in fields if name == "content-length"}
            if len(lengths) > 1 or not all(map(str.isdecimal, lengths)):  # RFC 9112 §6.3
                raise http.client.HTTPException(f"reply with an invalid Content-Length: {sorted(lengths)}")
            connection = headers.get("connection", "").lower()
            reusable = "close" not in connection if version == "HTTP/1.1" else "keep-alive" in connection
            length = "0" if status in (204, 304) else headers.get("content-length", "")
            if headers.get("transfer-encoding", "").lower() == "chunked":
                body, size = bytearray(), None
                while size != 0:
                    end = find(b"\r\n", start)
                    digits = buf[start:end].partition(b";")[0].strip()  # a chunk extension is ignored
                    if not digits or digits.strip(b"0123456789abcdefABCDEF"):
                        raise http.client.HTTPException(f"malformed chunk size {bytes(digits)!r}")
                    size, start = int(digits, 16), end + 2
                    need(start + size + 2 if size else 0)  # the chunk and its CRLF; the last chunk has none
                    if size and not buf.startswith(b"\r\n", start + size):  # RFC 9112 §7.1
                        raise http.client.HTTPException("chunk data not followed by CRLF")
                    body += buf[start:start + size]
                    start += size + 2
                start = find(b"\r\n\r\n", start - 4) + 4  # from the last size line's CRLF, past the trailer
            elif length.isdecimal():
                need(end := start + int(length))
                body, start = buf[start:end], end
            else:  # the body runs until the server closes
                try:
                    need(float("inf"))
                except http.client.IncompleteRead:  # the server's close ends the body
                    pass
                body, start, reusable = buf[start:], len(buf), False
            if not reusable or start < len(buf):  # a byte left over would begin the next reply
                self.close()
            return status, headers, body

        def closed_while_idle(self) -> bool:  # the idle socket reads as ready: its server closed it
            if self.sock is None or not hasattr(select, "poll"):  # Windows' select() takes any socket
                return self.sock is not None and bool(select.select([self.sock], [], [], 0)[0])
            poller = select.poll()
            poller.register(self.sock, select.POLLIN)
            return bool(poller.poll(0))

        def __del__(self):  # a dropped endpoint's connections close, with no ResourceWarning
            self.close()

    return Connection, target


class JsonEndpoint:
    """POSTs JSON bodies to one endpoint and returns the decoded replies."""

    def __init__(self, name: str, env_prefix: str, endpoint: str | None, api_key: str | None,
                 timeout: float):
        import http.client

        self.name = name
        self.url = endpoint or os.environ.get(f"{env_prefix}_ENDPOINT", "")
        if not self.url:
            raise TransportError(f"no {name} endpoint configured (set {env_prefix}_ENDPOINT)")
        api_key = api_key or os.environ.get(f"{env_prefix}_API_KEY", "")
        headers = {"Content-Length": "", "Content-Type": "application/json"}  # each call adds its length
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            self._connection, target = _connection_class(self.url, timeout)
            check = self._connection()  # putrequest and putheader check each value and buffer its line
            check.putrequest("POST", target)  # the request line, Host and Accept-Encoding
            for header in headers.items():
                check.putheader(*header)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransportError(f"invalid {name} endpoint {self.url!r}: {exc}") from exc
        lines = check._buffer  # request line, Host, Accept-Encoding, "Content-Length: ", the rest
        self._head = b"\r\n".join(lines[:4]), b"".join(b"\r\n" + line for line in lines[4:]) + b"\r\n\r\n"
        self._transient = (OSError, http.client.HTTPException)
        self._idle, self._lock = [], threading.Lock()  # idle connections, the last put back last

    def call(self, body: dict):
        """The decoded JSON reply to body, after the retries described above."""
        data = json.dumps(body, allow_nan=False).encode()
        head, tail = self._head
        request = b"".join((head, b"%d" % len(data), tail, data))
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                delay = BACKOFF_BASE * 2.0 ** (attempt - 1)
                logger.warning("%s; retry %d of %d in %.1f s", failure, attempt, MAX_RETRIES, delay)
                time.sleep(delay)
            with self._lock:
                conn = self._idle.pop() if self._idle else self._connection()
            if conn.closed_while_idle():
                conn.close()  # post() opens it again
            try:
                status, headers, raw = conn.post(request)
            except BaseException as exc:
                conn.close()
                if not isinstance(exc, self._transient):
                    raise
                failure = f"{self.name} request failed: {exc}"
                continue
            with self._lock:
                self._idle.append(conn)
            if status == 200:
                encoding = headers.get("content-encoding", "identity")
                if encoding.lower() != "identity":
                    raise TransportError(f"{self.name} request failed: reply in Content-Encoding {encoding!r}")
                try:
                    return json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    raise ResponseParseError(
                        f"{self.name} reply is not JSON: {exc}", raw.decode(errors="replace")
                    ) from exc
            failure = f"{self.name} endpoint returned HTTP {status}"
            if status != 429 and status < 500:
                raise TransportError(failure)
        raise TransportError(f"{failure}; no retry left after {MAX_RETRIES + 1} attempts")
