"""The one JSON-over-HTTP transport behind every remote provider.

Each remote provider POSTs a JSON body to one endpoint, read from
``<PREFIX>_ENDPOINT`` with an optional bearer token from ``<PREFIX>_API_KEY``
unless both are given explicitly, and gets a JSON reply back.

Retry policy: a connection error, a timeout, HTTP 429 and any 5xx are
transient. Such a call is retried at most MAX_RETRIES times, sleeping
BACKOFF_BASE * 2**k seconds before retry k (0.5, 1 and 2 s), so a request
is posted at most four times before TransportError is raised. Any other
non-200 status is final and raises TransportError after one post. A 200
whose body is not JSON raises ResponseParseError carrying the raw text and
is not retried: the same request would get the same reply.
"""

from __future__ import annotations

import logging
import os
import time

import requests

from .errors import ResponseParseError, TransportError

logger = logging.getLogger(__name__)

MAX_RETRIES = 3
BACKOFF_BASE = 0.5


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
        self.name = name
        self.url = endpoint or os.environ.get(f"{env_prefix}_ENDPOINT", "")
        if not self.url:
            raise TransportError(f"no {name} endpoint configured (set {env_prefix}_ENDPOINT)")
        api_key = api_key or os.environ.get(f"{env_prefix}_API_KEY", "")
        self.headers = {"Content-Type": "application/json"}
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self.timeout = timeout
        self._session = session or requests.Session()

    def call(self, body: dict):
        """The decoded JSON reply to body, after the retries described above."""
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                delay = BACKOFF_BASE * 2.0 ** (attempt - 1)
                logger.warning("%s; retry %d of %d in %.1f s", failure, attempt, MAX_RETRIES, delay)
                time.sleep(delay)
            try:
                resp = self._session.post(
                    self.url, json=body, headers=self.headers, timeout=self.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                failure = f"{self.name} request failed: {exc}"
                continue
            except requests.RequestException as exc:
                raise TransportError(f"{self.name} request failed: {exc}") from exc
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise ResponseParseError(
                        f"{self.name} reply is not JSON: {exc}", resp.text
                    ) from exc
            failure = f"{self.name} endpoint returned HTTP {resp.status_code}"
            if resp.status_code != 429 and resp.status_code < 500:
                raise TransportError(failure)
        raise TransportError(f"{failure}; no retry left after {MAX_RETRIES + 1} attempts")
