"""Edge-component scoring, graph construction invariants, export formats."""

from __future__ import annotations

import functools
import json
import math
import random
import re
import string
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.embedding import HashTextEmbedder, embed_text
from emocause.errors import PrecedenceError, ResponseParseError, SchemaError, TransportError
from emocause.extraction import MockExtractor, extract_dialogue
from emocause.graph import (
    CausalEdge,
    JaccardNli,
    RemoteNli,
    build_graph,
    edge_weight,
    export_graph,
    graph_from_json,
    nli_from_spec,
    rationale_score,
    semantic_score,
    serialize_event,
    temporal_gap,
    temporal_score,
)
from emocause.kb import index_dialogue
from emocause.model import ScoringConfig, sextuplets_from_dict
from emocause.synth import ChainSpec, generate

from conftest import PairedNli, make_sextuplet


def test_semantic_identity(embedder):
    assert semantic_score("fine", "fine", embedder) == pytest.approx(1.0, abs=1e-9)
    assert semantic_score("fine", "fine", embedder, normalize=False) == pytest.approx(1.0, abs=1e-9)


def test_semantic_normalization_endpoints():
    # raw -1 maps to 0; verified through the mapping itself at the endpoints
    assert ((-1.0) + 1.0) / 2.0 == 0.0
    assert ((1.0) + 1.0) / 2.0 == 1.0


def test_semantic_matches_independent_recomputation(embedder):
    got = semantic_score("delighted", "positive", embedder, normalize=False)
    a = embedder.embed("delighted")
    b = embedder.embed("positive")
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    norm = math.sqrt(sum(float(x) ** 2 for x in a)) * math.sqrt(sum(float(y) ** 2 for y in b))
    assert got == pytest.approx(dot / norm, abs=1e-12)


def test_semantic_scale_invariance(embedder):
    from emocause.kb import cosine_similarity

    a = embed_text(embedder, "delighted")
    b = embed_text(embedder, "positive")
    assert cosine_similarity(3.7 * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-9)


def test_temporal_gap_sign():
    cause = make_sextuplet("c", t_start=5.0, t_end=10.0)
    effect = make_sextuplet("e", t_start=15.0, t_end=16.0)
    assert temporal_gap(cause, effect) == 5.0
    assert temporal_gap(effect, cause) == pytest.approx(-11.0)
    simultaneous = make_sextuplet("s", t_start=10.0, t_end=12.0)
    assert temporal_gap(cause, simultaneous) == 0.0


def test_temporal_score_values():
    assert temporal_score(0.0, 30.0) == 1.0
    assert temporal_score(30.0, 30.0) == pytest.approx(math.exp(-1), abs=1e-9)
    assert temporal_score(60.0, 30.0) == pytest.approx(math.exp(-2), abs=1e-8)


def test_temporal_score_rejects_negative_gap():
    with pytest.raises(PrecedenceError):
        temporal_score(-1.0, 30.0)
    with pytest.raises(ValueError):
        temporal_score(1.0, 0.0)


@given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0), st.floats(10.0, 100.0))
def test_temporal_score_monotone_and_bounded(d1, d2, tau):
    # gaps past 10 * tau never reach scoring, so underflow to 0.0 is out of scope
    s1, s2 = temporal_score(d1, tau), temporal_score(d2, tau)
    assert 0.0 < s1 <= 1.0
    if d1 <= d2:
        assert s1 >= s2


class _ConstNli:
    id = "const"
    mode = "mock_overlap"

    def __init__(self, p):
        self.p = p

    def entailment_probability(self, premise, hypothesis):
        return self.p


def test_rationale_score_endpoints():
    effect = make_sextuplet("e")
    assert rationale_score("why", effect, _ConstNli(0.0)) == 0.0
    assert rationale_score("why", effect, _ConstNli(1.0), normalize=False) == pytest.approx(
        0.69314718, abs=1e-8
    )
    assert rationale_score("why", effect, _ConstNli(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_rationale_score_requires_rationale():
    with pytest.raises(ValueError):
        rationale_score("  ", make_sextuplet("e"), _ConstNli(0.5))


@pytest.mark.parametrize("p", [1.5, -0.25, math.nan, math.inf])
def test_rationale_score_rejects_a_probability_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=rf"entailment probability {p!r} is outside \[0, 1\]"):
        rationale_score("why", make_sextuplet("e"), _ConstNli(p))


@pytest.mark.parametrize("p", [True, False, "0.7", None])
def test_rationale_score_rejects_a_probability_that_is_not_a_number(p):
    with pytest.raises(ValueError, match=rf"entailment probability {re.escape(repr(p))} is not a number"):
        rationale_score("why", make_sextuplet("e"), _ConstNli(p))


def test_rationale_score_takes_an_int_and_a_float_subclass():
    effect = make_sextuplet("e")
    assert rationale_score("why", effect, _ConstNli(1)) == rationale_score("why", effect, _ConstNli(1.0))
    assert rationale_score("why", effect, _ConstNli(np.float64(0.5))) == rationale_score(
        "why", effect, _ConstNli(0.5))


def test_jaccard_nli_hand_example():
    # effect serializes to {ana, volt, pricing, negative}; rationale shares
    # two of those four tokens -> 2 / (4 + 4 - 2) = 1/3
    effect = make_sextuplet("e", holder="Ana", target="Volt", aspect="pricing",
                            opinion="negative", sentiment="negative")
    assert serialize_event(effect) == "Ana Volt pricing negative negative"
    nli = JaccardNli()
    p = nli.entailment_probability("ana volt timing cost", serialize_event(effect))
    assert p == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_jaccard_nli_strips_punctuation_and_case():
    nli = JaccardNli()
    assert nli.entailment_probability("Ana, Volt!", "ana volt") == 1.0
    assert nli.entailment_probability("!!!", "???") == 0.0


_NO_PUNCT = str.maketrans("", "", string.punctuation)


def _jaccard_without_memo(premise, hypothesis):
    a, b = ({t.translate(_NO_PUNCT) for t in x.casefold().split()} - {""} for x in (premise, hypothesis))
    return len(a & b) / len(a | b) if a | b else 0.0


# texts that share tokens, in other cases, orders and punctuation
_SHARING_TEXTS = ["Ana, Volt pricing!", "ana volt timing cost", "the fees doubled",
                  "Fees: the DOUBLED fees", "!!!"]


def test_jaccard_nli_memo_matches_a_computation_without_it_also_after_it_evicts():
    nli = JaccardNli()
    pairs = [(a, b) for a in _SHARING_TEXTS for b in _SHARING_TEXTS]
    for a, b in pairs:
        assert nli.entailment_probability(a, b) == _jaccard_without_memo(a, b)
    bound = nli._token_set.cache_info().maxsize
    for i in range(bound + 10):
        nli.entailment_probability(f"filler {i}", "filler")
    misses = nli._token_set.cache_info().misses
    for a, b in pairs:
        assert nli.entailment_probability(a, b) == _jaccard_without_memo(a, b)
    assert nli._token_set.cache_info().misses == misses + len(_SHARING_TEXTS)  # all were evicted
    assert nli._token_set.cache_info().currsize == bound


def test_jaccard_nli_memo_under_threads_that_evict_each_other():
    nli = JaccardNli()
    nli._token_set = functools.lru_cache(4)(nli._token_set.__wrapped__)  # evict constantly
    pairs = [(f"w{i % 7} w{i % 5}, shared", f"W{i % 3} shared!") for i in range(100)] * 4
    expected = [_jaccard_without_memo(a, b) for a, b in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda pair: nli.entailment_probability(*pair), pairs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_edge_weight_examples(cfg):
    assert edge_weight(1.0, 1.0, 1.0, cfg) == pytest.approx(1.0, abs=1e-9)
    assert edge_weight(0.0, 0.0, 0.0, cfg) == 0.0
    assert edge_weight(0.8, 0.5, 0.2, cfg) == pytest.approx(0.5, abs=1e-9)
    uneven = ScoringConfig(alpha=0.6, beta=0.3, gamma=0.1)
    assert edge_weight(1.0, 1.0, 1.0, uneven) == pytest.approx(1.0, abs=1e-9)


def _chain_sextuplets():
    # three events, 40 s apart, same sentiment, rationales pointing forward
    a = make_sextuplet("a", holder="Ana", target="Volt", aspect="pricing",
                       opinion="negative", sentiment="negative",
                       rationale="Ben keeps pressing Grid on latency",
                       t_start=0.0, t_end=4.0)
    b = make_sextuplet("b", holder="Ben", target="Grid", aspect="latency",
                       opinion="negative", sentiment="negative",
                       rationale="Cleo keeps pressing Hub on support",
                       t_start=44.0, t_end=48.0)
    c = make_sextuplet("c", holder="Cleo", target="Hub", aspect="support",
                       opinion="negative", sentiment="negative",
                       rationale="the thread wore everyone down",
                       t_start=88.0, t_end=92.0)
    return [a, b, c]


def test_build_graph_single_vertex(cfg, embedder, nli):
    g = build_graph([make_sextuplet("only")], cfg, embedder, nli)
    assert g.vertices == ("only",)
    assert g.edges == ()


def test_build_graph_recovers_chain(cfg, embedder, nli):
    g = build_graph(_chain_sextuplets(), cfg, embedder, nli)
    assert {(e.cause_id, e.effect_id) for e in g.edges} == {("a", "b"), ("b", "c")}
    for e in g.edges:
        assert e.delta_t > 0
        assert 0.0 <= e.weight <= 1.0
        assert e.semantic_score == pytest.approx(1.0, abs=1e-9)


def test_build_graph_precedence_only_one_direction(cfg, embedder, nli):
    early = make_sextuplet("early", t_start=0.0, t_end=4.0)
    late = make_sextuplet("late", holder="Ben", t_start=10.0, t_end=14.0)
    g = build_graph([early, late], replace(cfg, edge_threshold=0.0), embedder, nli)
    assert all(e.delta_t >= 0 for e in g.edges)
    assert ("late", "early") not in {(e.cause_id, e.effect_id) for e in g.edges}


def test_build_graph_max_gap_prunes(cfg, embedder, nli):
    a = make_sextuplet("a", t_start=0.0, t_end=4.0)
    b = make_sextuplet("b", holder="Ben", t_start=5000.0, t_end=5004.0)
    g = build_graph([a, b], replace(cfg, edge_threshold=0.0), embedder, nli)
    assert g.edges == ()  # gap 4996 s exceeds 10 * tau = 300 s


def test_build_graph_duplicate_ids_rejected(cfg, embedder, nli):
    with pytest.raises(ValueError, match="unique"):
        build_graph([make_sextuplet("x"), make_sextuplet("x")], cfg, embedder, nli)


def test_build_graph_overlap_equivalence(cfg, embedder, nli):
    items = _chain_sextuplets()
    assert build_graph(items, cfg, embedder, nli) == build_graph(items, cfg, embedder, PairedNli())


class _SlowEmbedder(HashTextEmbedder):
    """Sleeps 5 ms per call, long enough for threads to overlap."""

    def __init__(self):
        super().__init__(dim=64)
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        time.sleep(0.005)
        return super().embed(text)


def test_build_graph_embeds_each_text_once_under_threads(cfg, nli):
    opinions = ["negative", "frustrated", "pleased", "negative", "frustrated", "pleased"]
    labels = ["negative", "negative", "positive", "neutral", "positive", "neutral"]
    items = [
        make_sextuplet(f"e{i}", holder=f"H{i}", opinion=opinion, sentiment=label,
                       t_start=10.0 * i, t_end=10.0 * i + 4.0)
        for i, (opinion, label) in enumerate(zip(opinions, labels))
    ]
    graphs = []
    for scorer in (nli, PairedNli()):  # the second's calls overlap
        embedder = _SlowEmbedder()
        graphs.append(build_graph(items, replace(cfg, edge_threshold=0.0), embedder, scorer))
        # causes are e0..e4 and effects e1..e5: every opinion and label text occurs
        assert Counter(embedder.texts) == Counter(set(opinions[:5] + labels[1:]))
    assert len(graphs[1].edges) == 15
    assert graphs[1].edges == graphs[0].edges


def test_build_graph_threshold_monotonicity(cfg, embedder, nli):
    items = _chain_sextuplets()
    previous = None
    for step in range(11):
        th = step / 10.0
        g = build_graph(items, replace(cfg, edge_threshold=th), embedder, nli)
        ids = {(e.cause_id, e.effect_id) for e in g.edges}
        if previous is not None:
            assert ids <= previous
        previous = ids


def test_build_graph_weight_monotone_in_gap(cfg, embedder, nli):
    base = _chain_sextuplets()[:2]
    weights = []
    for shift in (0.0, 20.0, 60.0, 120.0):
        moved = replace(base[1], t_start=base[1].t_start + shift, t_end=base[1].t_end + shift)
        g = build_graph([base[0], moved], replace(cfg, edge_threshold=0.0), embedder, nli)
        weights.append(g.edges[0].weight)
    assert weights == sorted(weights, reverse=True)


def test_build_graph_raw_mode_matches_paper_ranges(embedder, nli):
    cfg = ScoringConfig(normalize_scores=False, edge_threshold=0.0)
    g = build_graph(_chain_sextuplets(), cfg, embedder, nli)
    for e in g.edges:
        assert -1.0 <= e.semantic_score <= 1.0
        assert 0.0 < e.temporal_score <= 1.0
        assert 0.0 <= e.rationale_score <= math.log(2.0) + 1e-12


def test_export_empty_dot():
    from emocause.graph import CausalGraph

    assert export_graph(CausalGraph((), ()), "dot", [], "dlg-0") == b"digraph G {\n}\n"


def test_export_json_schema_and_round_trip(cfg, embedder, nli):
    items = _chain_sextuplets()
    g = build_graph(items, cfg, embedder, nli)
    blob = export_graph(g, "json", items, "dlg-9")
    doc = json.loads(blob)
    assert set(doc["edges"][0]) == {
        "cause", "effect", "semantic", "temporal", "rationale", "weight", "delta_t",
    }
    again, sextuplets, dialogue_id = graph_from_json(blob)
    assert again == g
    assert sextuplets == sorted(items, key=lambda s: s.id)
    assert dialogue_id == "dlg-9"


def test_exported_graph_holds_the_sextuplets_document(cfg, embedder, nli):
    items = _chain_sextuplets()[::-1]
    doc = json.loads(export_graph(build_graph(items, cfg, embedder, nli), "json", items, "dlg-9"))
    assert sextuplets_from_dict(doc) == ("dlg-9", sorted(items, key=lambda s: s.id))


def test_graph_from_json_requires_the_dialogue_id(cfg, embedder, nli):
    items = _chain_sextuplets()
    doc = json.loads(export_graph(build_graph(items, cfg, embedder, nli), "json", items, "dlg-9"))
    del doc["dialogue_id"]
    with pytest.raises(SchemaError, match="^dialogue_id: missing required field$"):
        graph_from_json(json.dumps(doc))


def test_export_deterministic(cfg, embedder, nli):
    items = _chain_sextuplets()
    g = build_graph(items, cfg, embedder, nli)
    assert export_graph(g, "json", items, "dlg-9") == export_graph(g, "json", items, "dlg-9")
    assert export_graph(g, "dot", items, "dlg-9") == export_graph(g, "dot", items, "dlg-9")


@pytest.mark.parametrize("prefix, quoted", [("", "a"), ('say "hi"-', 'say \\"hi\\"-a')],
                         ids=["plain", "double-quote"])
def test_export_dot_labels(cfg, embedder, nli, prefix, quoted):
    items = [replace(s, id=prefix + s.id) for s in _chain_sextuplets()]
    g = build_graph(items, cfg, embedder, nli)
    text = export_graph(g, "dot", items, "dlg-9").decode()
    assert text.startswith("digraph G {")
    assert f'  "{quoted}";' in text
    assert f'"{quoted}" -> "{quoted[:-1]}b" [label="w=0.' in text


def test_export_unknown_format(cfg, embedder, nli):
    items = [make_sextuplet("v")]
    g = build_graph(items, cfg, embedder, nli)
    with pytest.raises(ValueError):
        export_graph(g, "yaml", items, "dlg-9")


def test_remote_nli_contract(http_stub):
    http_stub.script((200, {"entailment_probability": 0.25}))
    nli = RemoteNli(endpoint=http_stub.url("nli"), api_key="k")
    assert nli.entailment_probability("p", "h") == 0.25
    assert http_stub.requests == [("/nli", "Bearer k", {"premise": "p", "hypothesis": "h"})]


def test_remote_nli_rejects_out_of_range(http_stub):
    http_stub.script((200, {"entailment_probability": 1.5}))
    nli = RemoteNli(endpoint=http_stub.url("nli"))
    with pytest.raises(ResponseParseError):
        nli.entailment_probability("p", "h")


@pytest.mark.parametrize("value", [True, "0.7", None, [0.5]], ids=["true", "string", "null", "list"])
def test_remote_nli_rejects_a_probability_that_is_not_a_json_number(http_stub, value):
    reply = {"entailment_probability": value}
    http_stub.script((200, reply))
    nli = RemoteNli(endpoint=http_stub.url("nli"))
    with pytest.raises(ResponseParseError, match="not a number in") as exc:
        nli.entailment_probability("p", "h")
    assert exc.value.raw == json.dumps(reply)


def test_remote_nli_takes_json_numbers_in_range(http_stub):
    replies = [(200, {"entailment_probability": p}) for p in (0, 1, 0.5)]
    http_stub.script(*replies)
    nli = RemoteNli(endpoint=http_stub.url("nli"))
    got = [nli.entailment_probability("p", "h") for _ in replies]
    assert got == [0.0, 1.0, 0.5] and all(type(p) is float for p in got)


def test_remote_nli_http_error(http_stub):
    http_stub.script((502, {}))
    nli = RemoteNli(endpoint=http_stub.url("nli"))
    with pytest.raises(TransportError):
        nli.entailment_probability("p", "h")


def test_build_graph_nli_parse_error_keeps_raw_reply(http_stub, cfg, embedder):
    http_stub.script((200, {"entailment_probability": 7}))
    nli = RemoteNli(endpoint=http_stub.url("nli"))
    with pytest.raises(ResponseParseError, match=r"scoring failed for pair \(a -> b\)") as exc:
        build_graph(_chain_sextuplets(), cfg, embedder, nli)
    assert exc.value.raw == '{"entailment_probability": 7}'


@pytest.mark.parametrize("p", [1.5, math.nan])
def test_build_graph_names_the_pair_of_an_in_code_probability_outside_the_unit_interval(
    cfg, embedder, p
):
    with pytest.raises(ResponseParseError, match=r"scoring failed for pair \(a -> b\): entailment"):
        build_graph(_chain_sextuplets(), cfg, embedder, _ConstNli(p))


@pytest.mark.parametrize("p", [True, "0.7"])
def test_build_graph_names_the_pair_of_an_in_code_probability_that_is_not_a_number(
    cfg, embedder, p
):
    with pytest.raises(ResponseParseError,
                       match=r"scoring failed for pair \(a -> b\): entailment probability .* is not a number"):
        build_graph(_chain_sextuplets(), cfg, embedder, _ConstNli(p))


def _reference_graph(items, cfg, embedder, nli):
    """Every admissible pair scored in full, one NLI call each, no pruning."""
    edges = []
    for cause in items:
        for effect in items:
            delta_t = temporal_gap(cause, effect)
            if cause.id == effect.id or not 0.0 <= delta_t <= cfg.effective_max_gap():
                continue
            semantic = semantic_score(cause.opinion, effect.sentiment_label, embedder,
                                      normalize=cfg.normalize_scores)
            temporal = temporal_score(delta_t, cfg.tau)
            rationale = rationale_score(cause.rationale, effect, nli, normalize=cfg.normalize_scores)
            weight = edge_weight(semantic, temporal, rationale, cfg)
            if weight >= cfg.edge_threshold:
                edges.append(CausalEdge(cause.id, effect.id, semantic, temporal, rationale,
                                        weight, delta_t))
    return tuple(sorted(edges, key=lambda e: (e.cause_id, e.effect_id)))


_BELOW_ONE = math.nextafter(1.0, 0.0)

# few distinct values, so that rationales and serialized effects repeat
_events = st.lists(
    st.tuples(
        st.sampled_from(["Ana", "Ben"]),
        st.sampled_from(["negative", "pleased", "frustrated"]),
        st.sampled_from(["negative", "neutral", "positive"]),
        st.sampled_from(["the fees doubled", "Ben kept pressing", "Ana Volt pricing negative"]),
        st.sampled_from([0.0, 4.0, 30.0, 150.0, 296.0, 300.0]),
        st.sampled_from([0.0, 4.0]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    _events,
    st.booleans(),
    st.floats(0.0, 1.0),
    st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.6, 0.3, 0.1), (0.1, 0.2, 0.7)]),
    st.sampled_from([0.0, 1.0, _BELOW_ONE, "overlap"]),
)
def test_build_graph_matches_a_scorer_without_pruning_or_dedup(events, normalize, threshold,
                                                               weights, p):
    embedder = HashTextEmbedder(dim=64, seed=0)
    items = [
        make_sextuplet(f"e{i}", holder=holder, opinion=opinion, sentiment=label,
                       rationale=rationale, t_start=start, t_end=start + length)
        for i, (holder, opinion, label, rationale, start, length) in enumerate(events)
    ]
    alpha, beta, gamma = weights
    cfg = ScoringConfig(alpha=alpha, beta=beta, gamma=gamma, normalize_scores=normalize,
                        edge_threshold=threshold)
    nli = JaccardNli() if p == "overlap" else _ConstNli(p)
    assert build_graph(items, cfg, embedder, nli).edges == _reference_graph(items, cfg, embedder, nli)


@pytest.fixture(scope="module")
def noisy_synth_events():
    """The events MockExtractor finds in a 200-turn dialogue whose every
    non-chain utterance carries a decoy (noise 1.0)."""
    dialogue, _ = generate(ChainSpec(seed=1, turns=200, noise_rate=1.0))
    kb = index_dialogue(dialogue, HashTextEmbedder(dim=64, seed=0))
    return extract_dialogue(dialogue, kb, MockExtractor(), ScoringConfig())


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("threshold", [0.0, ScoringConfig().edge_threshold])
def test_build_graph_matches_a_scorer_without_pruning_or_dedup_on_a_noisy_synth_dialogue(
    noisy_synth_events, normalize, threshold
):
    embedder = HashTextEmbedder(dim=64, seed=0)
    cfg = ScoringConfig(normalize_scores=normalize, edge_threshold=threshold)
    edges = build_graph(noisy_synth_events, cfg, embedder, JaccardNli()).edges
    assert edges == _reference_graph(noisy_synth_events, cfg, embedder, JaccardNli())
    assert len(edges) > 0


class _CountingNli(JaccardNli):
    def __init__(self, fail_on=(), mode=JaccardNli.mode):
        self.asked = Counter()
        self.fail_on = set(fail_on)
        self.mode = mode  # "remote": map_calls overlaps the calls
        self.lock = threading.Lock()  # so that overlapping calls lose no count

    def entailment_probability(self, premise, hypothesis):
        with self.lock:
            self.asked[premise, hypothesis] += 1
        if (premise, hypothesis) in self.fail_on:
            raise TransportError("NLI endpoint returned HTTP 503")
        return super().entailment_probability(premise, hypothesis)


def _repeating_sextuplets():
    # two holders with one rationale each, five events 20 s apart: many
    # admissible pairs ask the same (rationale, serialized effect) question
    return [
        make_sextuplet(f"e{i}", holder=("Ana", "Ben")[i % 2],
                       rationale=("the fees doubled", "Ben kept pressing")[i % 2],
                       t_start=20.0 * i, t_end=20.0 * i + 4.0)
        for i in range(5)
    ]


@pytest.mark.parametrize("mode", [JaccardNli.mode, "remote"])
@pytest.mark.parametrize("threshold", [0.0, 0.5, 0.6])
def test_build_graph_asks_each_distinct_pair_that_can_reach_the_threshold_once(
    mode, threshold, cfg, embedder
):
    items = _repeating_sextuplets()
    cfg = replace(cfg, edge_threshold=threshold)
    nli = _CountingNli(mode=mode)
    graph = build_graph(items, cfg, embedder, nli)
    # at P = 1 the weight is the bound, so the edges kept are the pairs that survive it
    by_id = {s.id: s for s in items}
    survivors = {
        (by_id[e.cause_id].rationale, serialize_event(by_id[e.effect_id]))
        for e in _reference_graph(items, cfg, embedder, _ConstNli(1.0))
    }
    assert nli.asked == Counter(survivors)
    assert graph.edges == _reference_graph(items, cfg, embedder, JaccardNli())
    admissible = sum(1 for c in items for e in items if 0.0 <= temporal_gap(c, e) <= 300.0
                     and c.id != e.id)
    assert len(survivors) < admissible


def test_build_graph_skips_the_nli_for_a_pair_that_cannot_reach_the_threshold(cfg, embedder):
    early = make_sextuplet("a", rationale="the fees doubled", t_start=0.0, t_end=4.0)
    near = make_sextuplet("b", holder="Ben", t_start=10.0, t_end=14.0)
    far = make_sextuplet("c", holder="Cleo", rationale="Cleo waited", t_start=290.0, t_end=294.0)
    cfg = replace(cfg, edge_threshold=0.7)
    # (a -> c) is 290 s apart: below 0.7 whatever the NLI says, and its
    # question fails; (a -> b) and (b -> c) are scored as before
    doomed = ("the fees doubled", serialize_event(far))
    nli = _CountingNli(fail_on={doomed})
    graph = build_graph([early, near, far], cfg, embedder, nli)
    assert doomed not in nli.asked
    assert graph.edges == _reference_graph([early, near], cfg, embedder, JaccardNli())
    # the same question on a pair that can reach the threshold fails, named by the pair
    close = replace(far, t_start=20.0, t_end=24.0)
    with pytest.raises(TransportError, match=r"scoring failed for pair \(a -> c\)"):
        build_graph([early, near, close], replace(cfg, edge_threshold=0.3), embedder, nli)


def test_build_graph_rejects_a_blank_rationale_on_a_pair_that_cannot_reach_the_threshold(
    cfg, embedder
):
    blank = make_sextuplet("a", rationale="  ", t_start=0.0, t_end=4.0)
    effect = make_sextuplet("b", holder="Ben", t_start=200.0, t_end=204.0)
    nli = _CountingNli()
    with pytest.raises(ValueError, match="rationale must be non-empty"):
        build_graph([blank, effect], replace(cfg, edge_threshold=1.0), embedder, nli)
    assert not nli.asked


def test_build_graph_keeps_a_pair_whose_bound_equals_the_threshold(cfg, embedder):
    items = _chain_sextuplets()
    top = build_graph(items, replace(cfg, edge_threshold=0.0), embedder, _ConstNli(1.0)).edges
    exact = replace(cfg, edge_threshold=top[0].weight)
    kept = build_graph(items, exact, embedder, _ConstNli(1.0)).edges
    assert top[0] in kept
    assert kept == _reference_graph(items, exact, embedder, _ConstNli(1.0))


def test_nli_from_spec():
    assert nli_from_spec("overlap").id == "overlap"
    with pytest.raises(ValueError):
        nli_from_spec("wat")
