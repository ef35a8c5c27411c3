"""The one JSON-over-HTTP transport behind every remote provider.

Each remote provider POSTs a JSON body to one endpoint, read from
``<PREFIX>_ENDPOINT`` with an optional bearer token from ``<PREFIX>_API_KEY``
unless both are given explicitly, and gets a JSON reply back.

What a call needs is resolved once, when the endpoint is built. Its
requests.Session prepares a request template (the URL, the session's headers
merged with Content-Type and the bearer header, netrc or session auth) and
reads the environment for the proxies (``HTTPS_PROXY``, ``NO_PROXY`` and the
like) and the CA bundle (``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE``). The
HTTPAdapter mounted for the URL then gives the urllib3 pool and the request
target its own send would use, so proxies, CA bundle and client certificate
apply as there; the transport posts to that pool itself and never calls the
adapter's send (nor its max_retries or the session's hooks), and resolves
the pool again once ``session.close()`` has closed it. Headers are built once
as a plain dict; each call adds Content-Length, the jar's cookies as they are
then and the body bytes ``session.post(json=...)`` would send, and stores
cookies only from a reply that sets one (Set-Cookie or Set-Cookie2). A proxy
or CA variable changed later applies only to providers built later. An
endpoint that cannot be prepared or resolved raises TransportError when built.

Retry policy: a connection, TLS or proxy error, a timeout, HTTP 429 and any
5xx are transient. Such a call is retried at most MAX_RETRIES times, sleeping
BACKOFF_BASE * 2**k seconds before retry k (0.5, 1 and 2 s), so a request is
posted at most four times before TransportError is raised. Any other status
but 200, a 3xx too (redirects are not followed), an invalid header or content
encoding is final and raises TransportError after one post. A 200 whose body
is not JSON or nests too deeply raises ResponseParseError carrying the raw
text and is not retried: the same request would get the same reply.

Concurrency: map_calls overlaps the independent calls of one stage (a chat
per window, an NLI call per distinct pair that can reach the threshold) on
REMOTE_WORKERS threads, or `jobs` if more, for a remote provider; a local one
runs on `jobs` threads. Retries stay per call. It returns, waking its caller
once, when every call has finished; after a failure no later item's call
starts, and the first failing item in input order raises, as in a serial loop.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ResponseParseError, TransportError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

MAX_RETRIES = 3
BACKOFF_BASE = 0.5
REMOTE_WORKERS = 4


def map_calls(fn: Callable, items: Sequence, provider, jobs: int) -> list:
    """[fn(x) for x in items] in input order, on max(jobs, REMOTE_WORKERS)
    threads for a remote provider and on `jobs` threads otherwise."""
    workers = max(jobs, REMOTE_WORKERS) if provider.mode == "remote" else jobs
    if min(workers, len(items)) <= 1:
        return [fn(x) for x in items]
    # lowest index of a failed call so far: a later item may fail first, and
    # the items before it still run, so that the first failing one raises
    first_failed = [len(items)]
    lock = threading.Lock()

    def call(i, x):
        if i > first_failed[0]:  # map raises an earlier item's error first
            return None
        try:
            return fn(x)
        except BaseException:
            with lock:
                first_failed[0] = min(first_failed[0], i)
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(call, i, x) for i, x in enumerate(items)]
    return [f.result() for f in futures]


class JsonEndpoint:
    """POSTs JSON bodies to one endpoint and returns the decoded replies."""

    def __init__(
        self,
        name: str,
        env_prefix: str,
        endpoint: str | None,
        api_key: str | None,
        timeout: float,
        session: requests.Session | None,
    ):
        import requests  # here, not at module level: an offline run never loads it
        import urllib3

        self.name = name
        self.url = endpoint or os.environ.get(f"{env_prefix}_ENDPOINT", "")
        if not self.url:
            raise TransportError(f"no {name} endpoint configured (set {env_prefix}_ENDPOINT)")
        api_key = api_key or os.environ.get(f"{env_prefix}_API_KEY", "")
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        timeout = urllib3.Timeout(connect=timeout, read=timeout)
        self._urlopen_args = dict(redirect=False, assert_same_host=False, retries=False,
                                  preload_content=True, timeout=timeout)
        self._session = session or requests.Session()
        try:
            request = requests.Request("POST", self.url, headers=headers)
            self._template = self._session.prepare_request(request)
            if self._session.headers.get("Cookie") is None:  # the jar's cookies are added per call
                self._template.headers.pop("Cookie", None)
            self._headers = dict(self._template.headers)
            url = self._template.url
            self._settings = self._session.merge_environment_settings(url, {}, None, None, None)
            self._adapter = self._session.get_adapter(url)
            self._pool = self._connect()
            self._target = self._adapter.request_url(self._template, self._settings["proxies"])
        except (OSError, ValueError) as exc:  # requests' own errors are OSErrors
            raise TransportError(f"invalid {name} endpoint {self.url!r}: {exc}") from exc

    def _connect(self):
        """The pool HTTPAdapter.send would post the template through, set up as it would."""
        verify, proxies, cert = (self._settings[k] for k in ("verify", "proxies", "cert"))
        pool = self._adapter.get_connection_with_tls_context(self._template, verify, proxies, cert)
        self._adapter.cert_verify(pool, self._template.url, verify, cert)
        return pool

    def _post(self, data: bytes):
        """The urllib3 reply to one POST of data; its cookies go to the session's jar."""
        import requests
        import urllib3

        headers = {**self._headers, "Content-Length": str(len(data))}
        cookie = requests.cookies.get_cookie_header(self._session.cookies, self._template)
        if cookie is not None:
            headers["Cookie"] = cookie
        try:
            resp = self._pool.urlopen("POST", self._target, data, headers, **self._urlopen_args)
        except urllib3.exceptions.ClosedPoolError:  # session.close() closed it; take a new one
            self._pool = self._connect()
            resp = self._pool.urlopen("POST", self._target, data, headers, **self._urlopen_args)
        if "Set-Cookie" in resp.headers or "Set-Cookie2" in resp.headers:  # else the jar is not locked
            requests.cookies.extract_cookies_to_jar(self._session.cookies, self._template, resp)
        return resp

    def call(self, body: dict):
        """The decoded JSON reply to body, after the retries described above."""
        from urllib3 import exceptions as u3

        data = json.dumps(body, allow_nan=False).encode()  # what post(json=body) sends
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                delay = BACKOFF_BASE * 2.0 ** (attempt - 1)
                logger.warning("%s; retry %d of %d in %.1f s", failure, attempt, MAX_RETRIES, delay)
                time.sleep(delay)
            try:
                resp = self._post(data)
            except (OSError, u3.ProtocolError, u3.TimeoutError, u3.SSLError, u3.ProxyError,
                    u3.ClosedPoolError) as exc:
                failure = f"{self.name} request failed: {exc}"
                continue
            except u3.HTTPError as exc:  # an invalid header or content encoding
                raise TransportError(f"{self.name} request failed: {exc}") from exc
            if resp.status == 200:
                try:
                    return json.loads(resp.data)
                except (ValueError, RecursionError) as exc:
                    raise ResponseParseError(
                        f"{self.name} reply is not JSON: {exc}", resp.data.decode(errors="replace")
                    ) from exc
            failure = f"{self.name} endpoint returned HTTP {resp.status}"
            if resp.status != 429 and resp.status < 500:
                raise TransportError(failure)
        raise TransportError(f"{failure}; no retry left after {MAX_RETRIES + 1} attempts")
