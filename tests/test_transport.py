"""The shared HTTP transport: status classification, retry budget and
backoff, JSON decoding, and the three remote providers driven through a
real socket, plus the CLI exit codes their failures map to."""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time
from http.cookiejar import DefaultCookiePolicy
from types import SimpleNamespace

import pytest
import requests

from emocause.cli import main
from emocause.embedding import EMBED_BATCH_SIZE, HashTextEmbedder, RemoteTextEmbedder
from emocause.errors import ResponseParseError, TransportError
from emocause.extraction import (
    MockExtractor,
    RemoteExtractor,
    assemble_prompt,
    extract_dialogue,
    extract_sextuplets,
)
from emocause.graph import JaccardNli, RemoteNli, build_graph, temporal_gap
from emocause.kb import build_windows, index_dialogue
from emocause.model import Dialogue, ScoringConfig, Utterance, sextuplets_from_dict
from emocause.synth import ChainSpec, generate
from emocause.transport import REMOTE_WORKERS, JsonEndpoint, map_calls

from conftest import ScriptedSession

BACKOFF = [0.5, 1.0, 2.0]


def _extract(provider):
    """Run one two-utterance window through extract_sextuplets."""
    dialogue = Dialogue(
        id="dlg-1",
        scenario="tech_support",
        utterances=(
            Utterance(0, "ana", "noted thanks", 0.0, 4.0),
            Utterance(1, "ben", "you are welcome", 4.0, 8.0),
        ),
    )
    window = build_windows(dialogue, window_size=2, stride=1)[0]
    return extract_sextuplets(assemble_prompt(window, []), provider, window, dialogue)


def _endpoint(session):
    return JsonEndpoint("test", "TEST", "http://e", None, 1.0, session)


def test_retry_budget_respected(backoff_sleeps):
    session = ScriptedSession((503, {}), (503, {}), (200, "[]"))
    assert _endpoint(session).call({}) == [] and session.posts == 3

    session = ScriptedSession((503, {}))
    with pytest.raises(TransportError, match="HTTP 503"):
        _endpoint(session).call({})
    assert session.posts == 4  # at most MAX_RETRIES + 1 posts
    assert backoff_sleeps == [0.5, 1.0] + BACKOFF


@pytest.mark.parametrize("raw", ["no structure at all", "[" * 100_000 + "]" * 100_000],
                         ids=["prose", "nested-too-deeply"])
def test_malformed_response_is_not_retried(backoff_sleeps, raw):
    session = ScriptedSession((200, raw))
    with pytest.raises(ResponseParseError) as exc:
        _endpoint(session).call({})
    assert session.posts == 1  # the same request would get the same reply
    assert exc.value.raw == raw

    # a JSON reply whose content the extraction parser rejects is not retried either
    session = ScriptedSession((200, {"content": raw}))
    with pytest.raises(ResponseParseError) as exc:
        _extract(RemoteExtractor("glm", endpoint="http://llm", session=session))
    assert session.posts == 1
    assert exc.value.raw == raw
    assert backoff_sleeps == []


def test_missing_endpoint_names_the_variable(monkeypatch):
    monkeypatch.delenv("LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("NLI_ENDPOINT", raising=False)
    with pytest.raises(TransportError, match="LLM_ENDPOINT"):
        RemoteExtractor("glm")
    with pytest.raises(TransportError, match="NLI_ENDPOINT"):
        RemoteNli()


# ---------------------------------------------------------------------------
# What is prepared once per endpoint and what on every call
# ---------------------------------------------------------------------------


def _closed_port_url(path=""):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}/{path}"


def test_environment_is_resolved_once_per_endpoint(monkeypatch):
    session = ScriptedSession((200, {}))
    session.proxies = {"https": "http://proxy.invalid:3128"}
    counts = {"prepare_request": 0, "merge_environment_settings": 0}
    for name in counts:
        original = getattr(session, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(session, name, counted)
    endpoint = _endpoint(session)
    for i in range(10):
        assert endpoint.call({"i": i}) == {}
    assert counts == {"prepare_request": 1, "merge_environment_settings": 1}
    assert session.posts == 10
    assert session.pool_proxies == [session.proxies]
    assert [json.loads(r.body) for r in session.requests] == [{"i": i} for i in range(10)]


def test_each_request_carries_session_headers_and_current_cookies():
    session = ScriptedSession((200, {}))
    session.headers["User-Agent"] = "emocause-tests"
    session.cookies.set("early", "1")
    endpoint = JsonEndpoint("test", "TEST", "http://e", "k", 1.0, session)
    endpoint.call({})
    session.cookies.clear()
    session.cookies.set("sid", "abc")
    endpoint.call({})
    for request in session.requests:
        assert request.headers["Content-Type"] == "application/json"
        assert request.headers["Authorization"] == "Bearer k"
        assert request.headers["User-Agent"] == "emocause-tests"
    assert [r.headers["Cookie"] for r in session.requests] == ["early=1", "sid=abc"]


def test_headers_handed_to_the_pool_keep_their_names_order_and_values():
    defaults = list(requests.utils.default_headers().items())
    session = ScriptedSession((200, {}))
    endpoint = JsonEndpoint("test", "TEST", "http://e", "k", 1.0, session)
    endpoint.call({})
    session.cookies.set("sid", "abc")
    endpoint.call({"i": 1})
    common = [*defaults, ("Content-Type", "application/json"), ("Authorization", "Bearer k")]
    assert [list(r.headers.items()) for r in session.requests] == [
        [*common, ("Content-Length", "2")],
        [*common, ("Content-Length", "8"), ("Cookie", "sid=abc")],
    ]

    # a session's own cookie header, in any case, wins over the jar and is sent once
    session = ScriptedSession((200, {}))
    session.headers["cookie"] = "from=session"
    session.cookies.set("sid", "abc")
    _endpoint(session).call({})
    assert list(session.requests[0].headers.items()) == [
        *defaults, ("cookie", "from=session"), ("Content-Type", "application/json"),
        ("Content-Length", "2"),
    ]


def test_retries_resend_identical_body_bytes(backoff_sleeps):
    body = {"premise": "les frais ont doublé", "hypothesis": "négatif", "n": [1, 2.5]}
    session = ScriptedSession((503, {}))
    with pytest.raises(TransportError, match="HTTP 503"):
        _endpoint(session).call(body)
    sent = {(r.body, r.headers["Content-Length"]) for r in session.requests}
    assert session.posts == 4 and backoff_sleeps == BACKOFF
    # the bytes session.post(json=body) would send
    expected = requests.Request("POST", "http://e", json=body).prepare().body
    assert sent == {(expected, str(len(expected)))}


def test_proxy_environment_is_read_when_the_endpoint_is_built(http_stub, monkeypatch, backoff_sleeps):
    # http_stub sets NO_PROXY=127.0.0.1; every other proxy leads nowhere
    for var in ("http_proxy", "https_proxy", "no_proxy", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("HTTP_PROXY", _closed_port_url())
    monkeypatch.setenv("HTTPS_PROXY", _closed_port_url())
    http_stub.default = (200, b'{"entailment_probability": 0.25}')
    with requests.Session() as session:
        built = RemoteNli(endpoint=http_stub.url("nli"), session=session)
        monkeypatch.delenv("NO_PROXY")
        assert built.entailment_probability("p", "h") == 0.25
        assert len(http_stub.requests) == 1 and backoff_sleeps == []

        # a provider built after the change goes through the (dead) proxy
        later = RemoteNli(endpoint=http_stub.url("nli"), session=session)
        with pytest.raises(TransportError, match="request failed"):
            later.entailment_probability("p", "h")
        assert len(http_stub.requests) == 1 and backoff_sleeps == BACKOFF


def test_a_cookie_set_by_a_reply_is_sent_with_the_next_call(http_stub):
    http_stub.default = (200, b'{"entailment_probability": 0.25}')
    http_stub.headers["Set-Cookie"] = "sid=abc; Path=/"
    with requests.Session() as session:
        nli = RemoteNli(endpoint=http_stub.url("nli"), session=session)
        assert [nli.entailment_probability("p", "h") for _ in range(2)] == [0.25, 0.25]
        assert session.cookies.get("sid") == "abc"
    assert http_stub.cookies == [None, "sid=abc"]


def test_a_cookie_set_by_a_retried_reply_is_sent_with_the_retry(http_stub, backoff_sleeps):
    http_stub.replies = [(503, b"{}")]
    http_stub.headers["Set-Cookie"] = "sid=abc; Path=/"
    http_stub.default = (200, b'{"entailment_probability": 0.25}')
    with requests.Session() as session:
        nli = RemoteNli(endpoint=http_stub.url("nli"), session=session)
        assert nli.entailment_probability("p", "h") == 0.25
    assert http_stub.cookies == [None, "sid=abc"] and backoff_sleeps == [0.5]


def test_a_set_cookie2_reply_is_stored_by_an_rfc2965_jar(http_stub):
    http_stub.default = (200, b'{"entailment_probability": 0.25}')
    http_stub.headers["Set-Cookie2"] = 'sid=abc; Version="1"; Path="/"'
    with requests.Session() as session:
        # requests calls every request unverifiable and gives its origin host with
        # the port, so the strict default would take this cookie for a third party's
        session.cookies.set_policy(DefaultCookiePolicy(rfc2965=True, strict_rfc2965_unverifiable=False))
        nli = RemoteNli(endpoint=http_stub.url("nli"), session=session)
        assert [nli.entailment_probability("p", "h") for _ in range(2)] == [0.25, 0.25]
        assert session.cookies.get("sid") == "abc"
    assert http_stub.cookies[0] is None and "sid=abc" in http_stub.cookies[1]


def test_a_provider_whose_session_was_closed_completes_its_next_call(http_stub, backoff_sleeps):
    http_stub.default = (200, b'{"entailment_probability": 0.25}')
    session = requests.Session()
    nli = RemoteNli(endpoint=http_stub.url("nli"), session=session)
    assert nli.entailment_probability("p", "h") == 0.25
    session.close()
    assert nli.entailment_probability("p", "h") == 0.25
    session.close()
    assert len(http_stub.requests) == 2 and backoff_sleeps == []


def test_a_redirect_is_a_final_failure(http_stub, backoff_sleeps):
    http_stub.replies = [(302, b"")]
    http_stub.headers["Location"] = "/moved"
    http_stub.default = (200, b'{"entailment_probability": 0.5}')
    nli = RemoteNli(endpoint=http_stub.url("nli"), session=ScriptedSession())
    with pytest.raises(TransportError, match="HTTP 302"):
        nli.entailment_probability("p", "h")
    assert [path for path, _, _ in http_stub.requests] == ["/nli"] and backoff_sleeps == []


def test_an_undecodable_content_encoding_is_a_final_failure(http_stub, backoff_sleeps):
    http_stub.headers["Content-Encoding"] = "gzip"
    http_stub.default = (200, b'{"entailment_probability": 0.5}')
    nli = RemoteNli(endpoint=http_stub.url("nli"), session=ScriptedSession())
    with pytest.raises(TransportError, match="request failed"):
        nli.entailment_probability("p", "h")
    assert len(http_stub.requests) == 1 and backoff_sleeps == []


def test_unpreparable_endpoint_fails_when_built(monkeypatch, tmp_path):
    with pytest.raises(TransportError, match="invalid test endpoint"):
        JsonEndpoint("test", "TEST", "no scheme here", None, 1.0, None)
    # a CA bundle that does not exist is found when the pool is resolved
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "missing.pem"))
    with pytest.raises(TransportError, match="invalid test endpoint .*CA certificate bundle"):
        JsonEndpoint("test", "TEST", "https://127.0.0.1:1/", None, 1.0, None)


# ---------------------------------------------------------------------------
# The three providers through a real socket
# ---------------------------------------------------------------------------

PROVIDERS = {
    # name: (call the provider at url, reply body that succeeds)
    "embed": (
        lambda url, session: RemoteTextEmbedder(
            "m1", dim=2, endpoint=url, api_key="k", session=session
        ).embed("hello"),
        {"embeddings": [[3.0, 4.0]]},
    ),
    "chat": (
        # through extract_sextuplets, which is where extraction used to retry
        lambda url, session: _extract(
            RemoteExtractor("glm", endpoint=url, api_key="k", session=session)
        ),
        {"content": "[]"},
    ),
    "nli": (
        lambda url, session: RemoteNli(
            endpoint=url, api_key="k", session=session
        ).entailment_probability("p", "h"),
        {"entailment_probability": 0.25},
    ),
}

FAILURES = {
    # name: (reply, raised, posts, backoff delays)
    "503": ((503, b"{}"), TransportError, 4, BACKOFF),
    "429": ((429, b"{}"), TransportError, 4, BACKOFF),
    "400": ((400, b"{}"), TransportError, 1, []),
    "undecodable": ((200, b"not json"), ResponseParseError, 1, []),
    "fieldless": ((200, b"{}"), ResponseParseError, 1, []),
}


@pytest.mark.parametrize("failure", FAILURES)
@pytest.mark.parametrize("name", PROVIDERS)
def test_provider_failures_over_http(http_stub, backoff_sleeps, name, failure):
    call, _ = PROVIDERS[name]
    reply, raised, posts, delays = FAILURES[failure]
    http_stub.default = reply
    session = ScriptedSession()
    with pytest.raises(raised):
        call(http_stub.url(name), session)
    assert session.posts == len(http_stub.requests) == posts
    assert backoff_sleeps == delays
    assert {auth for _, auth, _ in http_stub.requests} == {"Bearer k"}


@pytest.mark.parametrize("name", PROVIDERS)
def test_provider_recovers_after_transient_failures(http_stub, backoff_sleeps, name):
    call, ok = PROVIDERS[name]
    http_stub.replies = [(503, b"{}"), (429, b"{}")]
    http_stub.default = (200, json.dumps(ok).encode())
    call(http_stub.url(name), ScriptedSession())
    assert len(http_stub.requests) == 3
    assert backoff_sleeps == [0.5, 1.0]
    assert len({json.dumps(body) for _, _, body in http_stub.requests}) == 1


@pytest.mark.parametrize("name", PROVIDERS)
def test_provider_connection_refused_is_retried(backoff_sleeps, name):
    url = _closed_port_url(name)
    call, _ = PROVIDERS[name]
    session = ScriptedSession()
    with pytest.raises(TransportError, match="request failed"):
        call(url, session)
    assert session.posts == 4
    assert backoff_sleeps == BACKOFF


# ---------------------------------------------------------------------------
# Fan-out of the calls of one stage to a remote provider
# ---------------------------------------------------------------------------


class _Rendezvous:
    """The first two calls return only when both are in flight at once:
    made one after the other, the first breaks the barrier after 5 s."""

    def __init__(self):
        self.barrier = threading.Barrier(2, timeout=5)
        self.calls = itertools.count()

    def __call__(self):
        if next(self.calls) < 2:
            self.barrier.wait()


class _PairedExtractor(MockExtractor):
    mode = "remote"

    def __init__(self):
        self.rendezvous = _Rendezvous()

    def complete(self, prompt_text):
        self.rendezvous()
        return super().complete(prompt_text)


class _PairedNli(JaccardNli):
    mode = "remote"

    def __init__(self):
        self.rendezvous = _Rendezvous()

    def entailment_probability(self, premise, hypothesis):
        self.rendezvous()
        return super().entailment_probability(premise, hypothesis)


def test_remote_calls_of_one_stage_overlap_at_one_job(embedder, nli, cfg):
    dialogue, _ = generate(ChainSpec(seed=4, turns=30, chain_length=2))
    kb = index_dialogue(dialogue, embedder, window_size=10, stride=5)
    found = extract_dialogue(dialogue, kb, _PairedExtractor(), cfg, jobs=1)
    assert found == extract_dialogue(dialogue, kb, MockExtractor(), cfg, jobs=1)
    graph = build_graph(found, cfg, embedder, _PairedNli(), jobs=1)
    assert graph == build_graph(found, cfg, embedder, nli, jobs=1)
    assert len(graph.edges) > 0


def test_map_calls_keeps_input_order_and_the_first_error_under_contention():
    """Eight threads on two cores with a shortened switch interval: results
    come back in input order, and with every item from 300 on failing, the
    error raised is item 300's, whichever call failed first."""

    def square_below_300(x):
        if x >= 300:
            raise ValueError(x)
        return x * x

    local = SimpleNamespace(mode="mock")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert map_calls(square_below_300, range(300), local, 8) == [x * x for x in range(300)]
        for _ in range(20):
            with pytest.raises(ValueError) as exc:
                map_calls(square_below_300, range(600), local, 8)
            assert exc.value.args == (300,)
    finally:
        sys.setswitchinterval(interval)


def test_map_calls_raises_the_first_error_once_every_started_call_has_finished():
    """Item 3 fails at once while items 0-2 wait for it and then sleep, and
    item 1 fails after its sleep, while item 2 sleeps on: item 1's error is
    raised, only when every started call has returned, and no item after 3
    is called."""
    lock = threading.Lock()
    started, finished = set(), set()
    item_3_done = threading.Event()

    def sleep_then_fail_1_and_3(x):
        with lock:
            started.add(x)
        try:
            if x < 3:
                item_3_done.wait(5)
                time.sleep(0.1 * (x + 1))
            if x in (1, 3):
                raise ValueError(x)
            return x
        finally:
            with lock:
                finished.add(x)
            if x == 3:
                item_3_done.set()

    with pytest.raises(ValueError) as exc:
        map_calls(sleep_then_fail_1_and_3, range(8), SimpleNamespace(mode="remote"), 1)
    assert exc.value.args == (1,)
    with lock:
        assert started == finished == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# CLI exit codes for remote runs configured through the environment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "reply, code",
    [((503, b"{}"), 3), ((200, b"not json"), 4), ((200, b"{}"), 4), ((200, b"[" * 100_000), 4)],
    ids=["exhausted-503", "undecodable", "fieldless", "nested-too-deeply"],
)
def test_remote_run_exit_codes(http_stub, monkeypatch, tmp_path, capsys, reply, code):
    assert main(["gen", "--seed", "3", "--turns", "20", "--chain-length", "1",
                 "--out-prefix", str(tmp_path / "d")]) == 0
    for var, path in (("EMBED", "embed"), ("LLM", "chat"), ("NLI", "nli")):
        monkeypatch.setenv(f"{var}_ENDPOINT", http_stub.url(path))
    http_stub.default = reply
    assert main(["run", "--dialogue", str(tmp_path / "d.dialogue.json"),
                 "--out-dir", str(tmp_path / "out"), "--embedder", "remote:m1:8",
                 "--provider", "remote:glm", "--nli", "remote"]) == code
    assert "embedding" in capsys.readouterr().err
    assert len(http_stub.requests) == (4 if code == 3 else 1)


def _serve_offline_providers(http_stub, monkeypatch, dim=8):
    """Answer /embed, /chat and /nli as the offline providers would, and
    point the remote provider specs at them."""
    embedder, extractor, nli = HashTextEmbedder(dim), MockExtractor(), JaccardNli()
    http_stub.routes.update({
        "/embed": lambda req: {"embeddings": [embedder.embed(t).tolist() for t in req["input"]]},
        "/chat": lambda req: {
            "content": extractor.complete("\n".join(m["content"] for m in req["messages"]))
        },
        "/nli": lambda req: {
            "entailment_probability": nli.entailment_probability(req["premise"], req["hypothesis"])
        },
    })
    for var, path in (("EMBED", "embed"), ("LLM", "chat"), ("NLI", "nli")):
        monkeypatch.setenv(f"{var}_ENDPOINT", http_stub.url(path))
    return ["--embedder", f"remote:m1:{dim}", "--provider", "remote:glm", "--nli", "remote"]


def test_remote_run_embeds_each_stage_in_one_post(http_stub, monkeypatch, tmp_path):
    # 15 events and 105 admissible pairs: the remote graph stage fans out 105 NLI calls
    assert main(["gen", "--seed", "1", "--turns", "40", "--chain-length", "14",
                 "--out-prefix", str(tmp_path / "d")]) == 0
    inputs = ["--dialogue", str(tmp_path / "d.dialogue.json"), "--gold", str(tmp_path / "d.gold.json")]
    offline = tmp_path / "offline"
    assert main(["run", *inputs, "--out-dir", str(offline), "--embedder", "hash:8:0"]) == 0
    remote = _serve_offline_providers(http_stub, monkeypatch)
    for jobs in ("1", "4"):
        http_stub.requests.clear()
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", *inputs, "--out-dir", str(out), "--jobs", jobs, *remote]) == 0
        embeds = [body["input"] for path, _, body in http_stub.requests if path == "/embed"]
        assert len(embeds) == 2  # one for the index, one for the graph
        assert len(embeds[0]) == len(set(embeds[0])) <= EMBED_BATCH_SIZE
        assert sum(path == "/nli" for path, _, _ in http_stub.requests) == 105
        for name in ("sextuplets.json", "graph.json", "report.json"):
            assert (out / name).read_bytes() == (offline / name).read_bytes()


def test_remote_and_offline_runs_record_the_same_prompt_digest(http_stub, monkeypatch, tmp_path):
    assert main(["gen", "--seed", "1", "--out-prefix", str(tmp_path / "d")]) == 0
    dialogue = ["--dialogue", str(tmp_path / "d.dialogue.json")]
    assert main(["run", *dialogue, "--out-dir", str(tmp_path / "offline"), "--embedder", "hash:8:0"]) == 0
    remote = _serve_offline_providers(http_stub, monkeypatch)
    assert main(["run", *dialogue, "--out-dir", str(tmp_path / "remote"), *remote]) == 0
    digests = [
        next(s["prompt_sha256"] for s in json.loads((tmp_path / run / "manifest.json").read_text())["stages"]
             if s["name"] == "extract")
        for run in ("offline", "remote")
    ]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("jobs", ["1", "4"])
def test_remote_nli_failure_starts_no_new_call(http_stub, monkeypatch, tmp_path, capsys, jobs):
    assert main(["gen", "--seed", "1", "--turns", "40", "--chain-length", "14",
                 "--out-prefix", str(tmp_path / "d")]) == 0
    dialogue = ["--dialogue", str(tmp_path / "d.dialogue.json")]
    assert main(["run", *dialogue, "--out-dir", str(tmp_path / "offline")]) == 0
    _, events = sextuplets_from_dict(json.loads((tmp_path / "offline" / "sextuplets.json").read_text()))
    max_gap = ScoringConfig().effective_max_gap()
    cause, effect = next((c, e) for c in events for e in events
                         if c.id != e.id and 0.0 <= temporal_gap(c, e) <= max_gap)
    remote = _serve_offline_providers(http_stub, monkeypatch)
    del http_stub.routes["/nli"]
    http_stub.default = (503, b"{}")
    capsys.readouterr()
    assert main(["run", *dialogue, "--out-dir", str(tmp_path / "out"), "--jobs", jobs, *remote]) == 3
    assert f"scoring failed for pair ({cause.id} -> {effect.id})" in capsys.readouterr().err
    # each worker's call fails after four posts, and then no worker starts another
    assert sum(path == "/nli" for path, _, _ in http_stub.requests) <= 4 * REMOTE_WORKERS


def test_remote_run_with_a_null_embedding_component_exits_4(http_stub, monkeypatch, tmp_path, capsys):
    assert main(["gen", "--seed", "1", "--out-prefix", str(tmp_path / "d")]) == 0
    remote = _serve_offline_providers(http_stub, monkeypatch)
    http_stub.routes["/embed"] = lambda req: {"embeddings": [[None] + [0.5] * 7] * len(req["input"])}
    assert main(["run", "--dialogue", str(tmp_path / "d.dialogue.json"),
                 "--out-dir", str(tmp_path / "out"), *remote]) == 4
    assert "non-number components: ['NoneType']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "graph.json").exists()


def test_remote_run_with_wrong_embedding_row_count_exits_4(http_stub, monkeypatch, tmp_path, capsys):
    assert main(["gen", "--seed", "3", "--turns", "20", "--chain-length", "1",
                 "--out-prefix", str(tmp_path / "d")]) == 0
    remote = _serve_offline_providers(http_stub, monkeypatch)
    http_stub.routes["/embed"] = lambda req: {"embeddings": [[1.0] * 8] * (len(req["input"]) + 1)}
    assert main(["run", "--dialogue", str(tmp_path / "d.dialogue.json"),
                 "--out-dir", str(tmp_path / "out"), *remote]) == 4
    err = capsys.readouterr().err
    assert "indexing dialogue" in err and "embeddings for" in err
    assert [path for path, _, _ in http_stub.requests] == ["/embed"]
