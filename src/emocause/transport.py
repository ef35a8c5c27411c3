"""The one JSON-over-HTTP transport behind every remote provider.

Each remote provider POSTs a JSON body to one endpoint, read from
``<PREFIX>_ENDPOINT`` with an optional bearer token from ``<PREFIX>_API_KEY``
unless both are given explicitly, and gets a JSON reply back.

What a call needs is resolved in two places. When the endpoint is built,
its requests.Session prepares one request template: the URL, the session's
default headers merged with Content-Type and the bearer header, and netrc
or session auth; and it reads the environment once for the proxies
(``HTTPS_PROXY``, ``NO_PROXY`` and the like) and the CA bundle
(``REQUESTS_CA_BUNDLE``, ``CURL_CA_BUNDLE``). Each call copies the
template and adds only the JSON body and the session's cookies as they are
at that moment; the body bytes are those ``session.post(json=...)`` sends.
A proxy or CA variable changed after a provider is built therefore applies
only to providers built later. An endpoint URL that cannot be prepared
raises TransportError when the endpoint is built.

Retry policy: a connection error, a timeout, HTTP 429 and any 5xx are
transient. Such a call is retried at most MAX_RETRIES times, sleeping
BACKOFF_BASE * 2**k seconds before retry k (0.5, 1 and 2 s), so a request is
posted at most four times before TransportError is raised. Any other non-200
status is final and raises TransportError after one post. A 200 whose body is
not JSON or nests too deeply raises ResponseParseError carrying the raw text
and is not retried: the same request would get the same reply.

Concurrency: map_calls overlaps the independent calls of one stage (a chat
per window, an NLI call per distinct pair that can reach the threshold) on
REMOTE_WORKERS threads, or `jobs` if more, for a remote provider; a local one
runs on `jobs` threads. Retries stay
per call. After a failure no call for a later item starts, the calls in
flight finish, and the first failing item in input order raises, as in the
serial loop.
"""

from __future__ import annotations

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
        return list(pool.map(call, range(len(items)), items))


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

        self.name = name
        self.url = endpoint or os.environ.get(f"{env_prefix}_ENDPOINT", "")
        if not self.url:
            raise TransportError(f"no {name} endpoint configured (set {env_prefix}_ENDPOINT)")
        api_key = api_key or os.environ.get(f"{env_prefix}_API_KEY", "")
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        self.timeout = timeout
        self._session = session or requests.Session()
        try:
            self._template = self._session.prepare_request(
                requests.Request("POST", self.url, headers=headers)
            )
        except requests.RequestException as exc:
            raise TransportError(f"invalid {name} endpoint {self.url!r}: {exc}") from exc
        if self._session.headers.get("Cookie") is None:
            # the jar's cookies are attached on each call, as they are then
            self._template.headers.pop("Cookie", None)
        self._settings = self._session.merge_environment_settings(
            self._template.url, {}, None, None, None
        )

    def _post(self, body: dict) -> requests.Response:
        request = self._template.copy()
        request.prepare_body(None, None, json=body)
        request.prepare_cookies(self._session.cookies)
        return self._session.send(request, timeout=self.timeout, **self._settings)

    def call(self, body: dict):
        """The decoded JSON reply to body, after the retries described above."""
        import requests

        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                delay = BACKOFF_BASE * 2.0 ** (attempt - 1)
                logger.warning("%s; retry %d of %d in %.1f s", failure, attempt, MAX_RETRIES, delay)
                time.sleep(delay)
            try:
                resp = self._post(body)
            except (requests.ConnectionError, requests.Timeout) as exc:
                failure = f"{self.name} request failed: {exc}"
                continue
            except requests.RequestException as exc:
                raise TransportError(f"{self.name} request failed: {exc}") from exc
            if resp.status_code == 200:
                try:
                    return resp.json()
                except (ValueError, RecursionError) as exc:
                    raise ResponseParseError(
                        f"{self.name} reply is not JSON: {exc}", resp.text
                    ) from exc
            failure = f"{self.name} endpoint returned HTTP {resp.status_code}"
            if resp.status_code != 429 and resp.status_code < 500:
                raise TransportError(failure)
        raise TransportError(f"{failure}; no retry left after {MAX_RETRIES + 1} attempts")
