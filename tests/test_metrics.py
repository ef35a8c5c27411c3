"""Link matching, causal metrics, span/pair micro-F1, gold-file ingestion."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.errors import SchemaError
from emocause.graph import CausalEdge, CausalGraph
from emocause.metrics import (
    NATIVE_FIELDS,
    TRIPLET_FIELDS,
    EvalReport,
    GoldAnnotation,
    causal_chain_score,
    consistent_edges,
    evaluate,
    evaluate_many,
    gold_from_dict,
    gold_to_dict,
    load_gold,
    match_gold,
    match_links,
    render_report_text,
)

from conftest import make_sextuplet, run_child


def _edge(cause, effect, weight=0.8, semantic=0.9, delta_t=5.0):
    return CausalEdge(
        cause_id=cause,
        effect_id=effect,
        semantic_score=semantic,
        temporal_score=0.5,
        rationale_score=0.5,
        weight=weight,
        delta_t=delta_t,
    )


def _fixture(n=3, prefix="s", holder_prefix="H"):
    return [
        make_sextuplet(
            f"{prefix}{i}",
            holder=f"{holder_prefix}{i}",
            target=f"T{i}",
            aspect=f"a{i}",
            t_start=float(10 * i),
            t_end=float(10 * i + 4),
        )
        for i in range(n)
    ]


def test_match_links_identity():
    gold_sx = _fixture(3, "g")
    pred_sx = _fixture(3, "p")
    gold = GoldAnnotation("d", tuple(gold_sx), (("g0", "g1"), ("g1", "g2")))
    graph = CausalGraph(("p0", "p1", "p2"), (_edge("p0", "p1"), _edge("p1", "p2")))
    matches = match_links(graph, pred_sx, gold)
    assert all(link is not None for _, link in matches)


def test_match_links_direction_sensitive():
    gold_sx = _fixture(2, "g")
    pred_sx = _fixture(2, "p")
    gold = GoldAnnotation("d", tuple(gold_sx), (("g0", "g1"),))
    reversed_graph = CausalGraph(("p0", "p1"), (_edge("p1", "p0"),))
    matches = match_links(reversed_graph, pred_sx, gold)
    assert matches[0][1] is None


def test_match_links_one_to_one():
    gold_sx = _fixture(2, "g")
    # two predicted events with the same content key both point at the same gold link
    pred_sx = _fixture(2, "p") + [
        make_sextuplet("p0bis", holder="H0", target="T0", aspect="a0", t_start=1.0, t_end=2.0)
    ]
    gold = GoldAnnotation("d", tuple(gold_sx), (("g0", "g1"),))
    graph = CausalGraph(
        ("p0", "p0bis", "p1"), (_edge("p0", "p1", weight=0.9), _edge("p0bis", "p1", weight=0.7))
    )
    matches = match_links(graph, pred_sx, gold)
    matched = [link for _, link in matches if link]
    assert len(matched) == 1
    # the heavier edge wins the unique gold link
    by_edge = dict(((e.cause_id, e.effect_id), link) for e, link in matches)
    assert by_edge[("p0", "p1")] is not None
    assert by_edge[("p0bis", "p1")] is None


def test_match_links_takes_same_key_gold_links_in_gold_order_by_edge_weight():
    # g0 -> g1 and g2 -> g3 share one content key, and so do the three edges
    gold_sx = _fixture(2, "g") + [
        make_sextuplet("g2", holder="H0", target="T0", aspect="a0"),
        make_sextuplet("g3", holder="H1", target="T1", aspect="a1"),
    ]
    gold = GoldAnnotation("d", tuple(gold_sx), (("g2", "g3"), ("g0", "g1")))
    pred_sx = _fixture(2, "p") + [
        make_sextuplet("p0bis", holder="H0", target="T0", aspect="a0"),
        make_sextuplet("p1bis", holder="H1", target="T1", aspect="a1"),
    ]
    graph = CausalGraph(
        tuple(s.id for s in pred_sx),
        (_edge("p0bis", "p1", 0.7), _edge("p0", "p1", 0.9), _edge("p0", "p1bis", 0.8)),
    )
    assert [link for _, link in match_links(graph, pred_sx, gold)] == [
        None, ("g2", "g3"), ("g0", "g1"),
    ]


def test_match_links_permutation_invariant():
    gold_sx = _fixture(4, "g")
    pred_sx = _fixture(4, "p")
    gold = GoldAnnotation("d", tuple(gold_sx), (("g0", "g1"), ("g1", "g2"), ("g2", "g3")))
    edges = [_edge("p0", "p1", 0.9), _edge("p1", "p2", 0.7), _edge("p2", "p3", 0.8),
             _edge("p0", "p3", 0.6)]
    baseline = None
    for perm_seed in range(5):
        shuffled = edges[:]
        random.Random(perm_seed).shuffle(shuffled)
        graph = CausalGraph(tuple(s.id for s in pred_sx), tuple(shuffled))
        count = sum(1 for _, link in match_links(graph, pred_sx, gold) if link)
        correctness = evaluate(graph, pred_sx, gold).causal_correctness
        if baseline is None:
            baseline = (count, correctness)
        assert (count, correctness) == baseline


def test_evaluate_causal_values():
    gold_sx = _fixture(5, "g")
    pred_sx = _fixture(5, "p")
    gold = GoldAnnotation(
        "d", tuple(gold_sx), (("g0", "g1"), ("g1", "g2"), ("g2", "g3"), ("g3", "g4"))
    )
    edges = (
        _edge("p0", "p1"), _edge("p1", "p2"), _edge("p2", "p3"), _edge("p0", "p4"),
    )  # 3 of 4 predicted edges are gold
    graph = CausalGraph(tuple(s.id for s in pred_sx), edges)
    report = evaluate(graph, pred_sx, gold)
    assert report.causal_correctness == report.causal_recall == report.causal_f1 == 0.75
    assert report.counts == {"correct_links": 3, "predicted_links": 4, "consistent_links": 4,
                             "gold_links": 4}


def test_causal_zero_denominator_conventions():
    empty_graph = CausalGraph((), ())
    no_links = GoldAnnotation("d", (), ())
    some_links = GoldAnnotation("d", tuple(_fixture(2, "g")), (("g0", "g1"),))
    an_edge = CausalGraph(("g0", "g1"), (_edge("g0", "g1"),))
    # evaluate and evaluate_many follow the same rules; consistency is 1.0 on an empty graph
    for items, correctness, recall, f1 in (
        ([(empty_graph, [], no_links)], 1.0, 1.0, 1.0),
        ([(empty_graph, [], some_links)], 0.0, 0.0, 0.0),
        ([(empty_graph, [], no_links), (empty_graph, [], some_links)], 0.0, 0.0, 0.0),
        ([(an_edge, _fixture(2, "g"), no_links)], 0.0, 1.0, 0.0),
        ([], 1.0, 1.0, 1.0),
    ):
        reports = [evaluate_many(items)]
        if len(items) == 1:
            reports.append(evaluate(*items[0]))
        for report in reports:
            assert (report.causal_correctness, report.causal_consistency) == (correctness, 1.0)
            assert (report.causal_recall, report.causal_f1) == (recall, f1)
            assert report.causal_chain_score == 0.5 * correctness + 0.5


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(0.0, 1.0)), max_size=8),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_removing_a_matched_edge_never_raises_causal_recall(edges, links):
    pred_sx = _fixture(4, "p")
    gold = GoldAnnotation("d", tuple(_fixture(4, "g")), tuple((f"g{c}", f"g{e}") for c, e in links))
    graph = CausalGraph(tuple(s.id for s in pred_sx),
                        tuple(_edge(f"p{c}", f"p{e}", weight=w) for c, e, w in edges))
    recall = evaluate(graph, pred_sx, gold).causal_recall
    for i, (_, link) in enumerate(match_links(graph, pred_sx, gold)):
        if link is not None:
            cut = CausalGraph(graph.vertices, graph.edges[:i] + graph.edges[i + 1:])
            assert evaluate(cut, pred_sx, gold).causal_recall <= recall


def test_consistency_all_good():
    graph = CausalGraph(("a", "b", "c"), (_edge("a", "b"), _edge("b", "c")))
    assert consistent_edges(graph) == [True, True]
    assert evaluate(graph, [], GoldAnnotation("d", (), ())).causal_consistency == 1.0


def test_consistency_two_cycle_is_zero():
    graph = CausalGraph(
        ("a", "b"),
        (_edge("a", "b", delta_t=0.0), _edge("b", "a", delta_t=0.0)),
    )
    assert consistent_edges(graph) == [False, False]
    assert evaluate(graph, [], GoldAnnotation("d", (), ())).causal_consistency == 0.0


def test_consistency_semantic_floor():
    edges = (
        _edge("a", "b"), _edge("b", "c"), _edge("c", "d"),
        _edge("a", "d", semantic=0.2),  # below the 0.5 floor
    )
    graph = CausalGraph(("a", "b", "c", "d"), edges)
    assert consistent_edges(graph) == [True, True, True, False]
    assert consistent_edges(graph, floor=0.2) == [True] * 4
    assert evaluate(graph, [], GoldAnnotation("d", (), ())).causal_consistency == 0.75


def test_consistency_negative_gap_fails():
    graph = CausalGraph(("a", "b"), (_edge("a", "b", delta_t=-1.0),))
    assert consistent_edges(graph) == [False]
    assert evaluate(graph, [], GoldAnnotation("d", (), ())).causal_consistency == 0.0


def test_edge_leaving_one_cycle_for_another_is_consistent():
    # a <-> b and c <-> d are cycles, but c cannot reach b, so b -> c is on none
    pairs = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")]
    graph = CausalGraph(("a", "b", "c", "d"), tuple(_edge(c, e, delta_t=0.0) for c, e in pairs))
    assert consistent_edges(graph) == [False, False, True, False, False]


def _reaches(edges, start, goal):
    seen, frontier = {start}, {start}
    while frontier:
        frontier = {e for c, e in edges if c in frontier} - seen
        seen |= frontier
    return goal in seen


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=10))
def test_consistent_edges_flags_exactly_the_edges_on_a_cycle(pairs):
    graph = CausalGraph(tuple("abcd"), tuple(_edge(c, e) for c, e in pairs))
    assert consistent_edges(graph) == [not _reaches(pairs, e, c) for c, e in pairs]


def test_importing_emocause_does_not_import_networkx():
    code = "import sys, emocause.cli; assert 'networkx' not in sys.modules"
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_consistency_empty_graph():
    assert consistent_edges(CausalGraph((), ())) == []
    assert evaluate(CausalGraph((), ()), [], GoldAnnotation("d", (), ())).causal_consistency == 1.0


def test_causal_chain_score_values():
    assert causal_chain_score(0.8, 0.6) == pytest.approx(0.7)
    assert causal_chain_score(1.0, 1.0) == 1.0
    assert causal_chain_score(0.0, 0.0) == 0.0


@given(st.floats(0, 1), st.floats(0, 1))
def test_chain_score_midpoint_identity(c1, c2):
    assert abs(causal_chain_score(c1, c2) - (0.5 * c1 + 0.5 * c2)) <= 1e-12


def test_span_f1_identity_and_degenerate():
    items = _fixture(3)
    report = evaluate(CausalGraph((), ()), items, GoldAnnotation("d", tuple(items), ()))
    assert all(v == 1.0 for v in report.span_f1.values())
    assert all(v == 1.0 for v in report.pair_f1.values())
    report = evaluate(CausalGraph((), ()), [], GoldAnnotation("d", tuple(items), ()))
    assert all(v == 0.0 for v in report.span_f1.values())
    assert all(v == 0.0 for v in report.pair_f1.values())


def test_nothing_predicted_against_an_empty_gold_reads_one_empty_rule():
    """No events and no links on either side: every span, pair and causal
    ratio reads 1.0, as the module docstring's empty rules say."""
    report = evaluate(CausalGraph((), ()), [], GoldAnnotation("d", (), ()))
    assert set(report.span_f1.values()) == set(report.pair_f1.values()) == {1.0}
    assert report.causal_correctness == report.causal_recall == report.causal_f1 == 1.0


def test_span_f1_hand_computed_micro():
    # 4 predicted targets, 3 gold targets, 2 correct -> P=1/2, R=2/3, F1=4/7
    gold = [make_sextuplet(f"g{i}", target=t) for i, t in enumerate(("T0", "T1", "T2"))]
    pred = [make_sextuplet(f"p{i}", target=t) for i, t in enumerate(("T0", "T1", "X", "Y"))]
    report = evaluate(CausalGraph((), ()), pred, GoldAnnotation("d", tuple(gold), ()))
    assert report.span_f1["target"] == pytest.approx(4.0 / 7.0)


def test_span_f1_case_folded():
    gold = [make_sextuplet("g", target="Volt")]
    pred = [make_sextuplet("p", target="VOLT")]
    report = evaluate(CausalGraph((), ()), pred, GoldAnnotation("d", tuple(gold), ()))
    assert report.span_f1["target"] == 1.0


def test_f1_swap_symmetry():
    gold = [make_sextuplet(f"g{i}", target=t) for i, t in enumerate(("T0", "T1", "T2"))]
    pred = [make_sextuplet(f"p{i}", target=t) for i, t in enumerate(("T0", "X"))]
    forward = evaluate(CausalGraph((), ()), pred, GoldAnnotation("d", tuple(gold), ()))
    backward = evaluate(CausalGraph((), ()), gold, GoldAnnotation("d", tuple(pred), ()))
    assert forward.span_f1["target"] == pytest.approx(backward.span_f1["target"])


def test_span_map_covers_table_elements():
    report = evaluate(CausalGraph((), ()), _fixture(2), GoldAnnotation("d", tuple(_fixture(2)), ()))
    assert set(report.span_f1) == {"holder", "target", "aspect", "opinion", "rationale", "sentiment"}
    assert set(report.pair_f1) == {"T-A", "T-O", "A-O"}


def test_evaluate_report_identities():
    pred_sx = _fixture(4, "p")
    gold_sx = _fixture(4, "g")
    gold = GoldAnnotation("d", tuple(gold_sx), (("g0", "g1"), ("g1", "g2")))
    graph = CausalGraph(tuple(s.id for s in pred_sx), (_edge("p0", "p1"), _edge("p1", "p2")))
    report = evaluate(graph, pred_sx, gold)
    assert report.causal_chain_score == pytest.approx(
        0.5 * report.causal_correctness + 0.5 * report.causal_consistency, abs=1e-12
    )
    assert report.causal_f1 == pytest.approx(
        2 * report.causal_correctness * report.causal_recall
        / (report.causal_correctness + report.causal_recall), abs=1e-12
    )
    assert 0.0 <= report.causal_correctness <= 1.0
    assert report.counts["predicted_links"] == 2
    assert report.counts["gold_links"] == 2
    assert report.causal_recall == report.counts["correct_links"] / report.counts["gold_links"]


def test_evaluate_many_micro_merges():
    a_pred = _fixture(2, "pa", holder_prefix="A")
    a_gold = _fixture(2, "ga", holder_prefix="A")
    b_pred = _fixture(2, "pb", holder_prefix="B")
    b_gold = _fixture(2, "gb", holder_prefix="B")
    gold_a = GoldAnnotation("da", tuple(a_gold), (("ga0", "ga1"),))
    gold_b = GoldAnnotation("db", tuple(b_gold), (("gb0", "gb1"),))
    graph_a = CausalGraph(("pa0", "pa1"), (_edge("pa0", "pa1"),))   # matched
    graph_b = CausalGraph(("pb0", "pb1"), (_edge("pb1", "pb0"),))   # reversed, unmatched
    merged = evaluate_many([(graph_a, a_pred, gold_a), (graph_b, b_pred, gold_b)])
    assert merged.causal_correctness == merged.causal_recall == merged.causal_f1 == 0.5
    assert merged.counts["predicted_links"] == 2
    assert merged.counts["correct_links"] == 1


def test_evaluate_many_merges_span_and_pair_f1_as_micro_averages():
    # a: 1 of 1 predicted targets correct (F1 1); b: 0 of 3 against 1 gold (F1 0).
    # Micro: 1 correct, 4 predicted, 2 gold -> P=1/4, R=1/2, F1=1/3; the macro mean is 1/2.
    a_pred, a_gold = [make_sextuplet("pa", target="T0")], [make_sextuplet("ga", target="T0")]
    b_pred = [make_sextuplet(f"pb{i}", target=t) for i, t in enumerate("XYZ")]
    b_gold = [make_sextuplet("gb", target="T1")]
    empty = CausalGraph((), ())
    items = [(empty, a_pred, GoldAnnotation("a", tuple(a_gold), ())),
             (empty, b_pred, GoldAnnotation("b", tuple(b_gold), ()))]
    per_dialogue = [evaluate(*item) for item in items]
    merged = evaluate_many(items)
    for key, metric in (("target", "span_f1"), ("T-A", "pair_f1"), ("T-O", "pair_f1")):
        assert [getattr(r, metric)[key] for r in per_dialogue] == [1.0, 0.0]
        assert getattr(merged, metric)[key] == pytest.approx(1.0 / 3.0)
    assert merged.span_f1["holder"] == 1.0  # one distinct holder on every side
    assert merged.pair_f1["A-O"] == 1.0


def test_render_report_text_aligned():
    report = evaluate(CausalGraph((), ()), [], GoldAnnotation("d", (), ()))
    text = render_report_text(report)
    for metric in ("causal_correctness", "causal_recall", "causal_f1"):
        assert f"\n{metric} " in f"\n{text}"
    assert "span_f1[sentiment]" in text
    assert "counts[gold_links]" in text


def test_gold_round_trip():
    gold_sx = _fixture(3, "g")
    gold = GoldAnnotation("d", tuple(gold_sx), (("g0", "g1"),))
    again = gold_from_dict(json.loads(json.dumps(gold_to_dict(gold))))
    assert again == gold


def test_gold_rejects_dangling_link():
    with pytest.raises(SchemaError, match="unknown sextuplet id"):
        GoldAnnotation("d", tuple(_fixture(2, "g")), (("g0", "missing"),))


def test_load_gold_native():
    gold = GoldAnnotation("d", tuple(_fixture(2, "g")), (("g0", "g1"),))
    loaded = load_gold(json.dumps(gold_to_dict(gold)))
    assert loaded == [gold]


_TRIPLET_DOC = {
    "doc_id": "doc-001",
    "sentences": ["the screen is amazing", "battery drains fast"],
    "speakers": [0, 1],
    "replies": [-1, 0],
    "triplets": [
        [0, 1, 2, 3, 3, 4, "pos", "screen", "display quality", "amazing"],
        [5, 6, 7, 8, 9, 10, "neg", "battery", "battery life", "drains fast"],
    ],
}


def test_load_gold_triplet_list_layout():
    golds = load_gold(json.dumps([_TRIPLET_DOC]))
    assert len(golds) == 1
    gold = golds[0]
    assert gold.dialogue_id == "doc-001"
    assert len(gold.sextuplets) == 2
    assert gold.causal_links == ()
    first = gold.sextuplets[0]
    assert (first.target, first.aspect, first.opinion, first.sentiment_label) == (
        "screen", "display quality", "amazing", "positive",
    )
    assert first.problems() == []


@pytest.mark.parametrize("entry", [
    {"target": "screen", "aspect": "glare", "opinion": "bad", "polarity": "neg"},
    [0, 1, 0, 1, 0, 1, "neg", "screen", "glare"],
    [0, 1, 0, 1, 0, 1, "neg", "screen", "glare", "bad", "extra"],
    "neg screen glare bad",
], ids=["keyed", "nine-columns", "eleven-columns", "string"])
def test_load_gold_reads_a_triplet_only_as_a_diaasq_row_of_10_columns(entry):
    doc = {"doc_id": "doc-002", "triplets": [[0, 1, 0, 1, 0, 1, "neg", "screen", "glare", "bad"], entry]}
    with pytest.raises(SchemaError, match="expected a DiaASQ triplet row of 10 columns") as exc:
        load_gold(json.dumps(doc))
    assert exc.value.path == "triplets[1]"


@pytest.mark.parametrize("entry, path", [
    ([0, 1, 0, 1, 0, 1, "neg", "screen", "glare", None], "triplets[0][9]"),
    ([0, 1, 0, 1, 0, 1, "neg", "screen", 3, "bad"], "triplets[0][8]"),
    ([0, 1, 0, 1, 0, 1, None, "screen", "glare", "bad"], "triplets[0][6]"),
    ([0, 1, 0, 1, 0, 1, "neg", None, None, "bad"], "triplets[0][7]"),
    ([0, 1, 0, 1, 0, 1, 1, "screen", "glare", "bad"], "triplets[0][6]"),
], ids=["columns-null-opinion", "columns-number-aspect", "columns-null-polarity", "columns-null",
        "columns-number"])
def test_load_gold_triplet_field_that_is_not_a_string_is_a_schema_error(entry, path):
    with pytest.raises(SchemaError, match="expected string") as exc:
        load_gold(json.dumps({"doc_id": "x", "triplets": [entry]}))
    assert exc.value.path == path


@pytest.mark.parametrize("doc, path", [
    ({"doc_id": None}, "doc_id"),
    ({"doc_id": 42}, "doc_id"),
    ({"dialogue_id": ["d"]}, "dialogue_id"),
], ids=["doc-id-null", "doc-id-number", "dialogue-id-list"])
def test_load_gold_triplet_document_id_that_is_not_a_string_is_a_schema_error(doc, path):
    with pytest.raises(SchemaError, match="expected string") as exc:
        load_gold(json.dumps({**doc, "triplets": _TRIPLET_DOC["triplets"]}))
    assert exc.value.path == path
    assert load_gold(json.dumps({"dialogue_id": "d", "triplets": []}))[0].dialogue_id == "d"


def test_match_gold_refuses_a_document_of_another_dialogue_in_either_schema():
    native = load_gold(json.dumps(gold_to_dict(GoldAnnotation("d", tuple(_fixture(2, "g")), ()))))
    assert match_gold(native, "d") == native[0]
    with pytest.raises(SchemaError, match=r"dialogue 'other' among 'd'") as exc:
        match_gold(native, "other")
    assert exc.value.path == "gold"
    triplets = load_gold(json.dumps([_TRIPLET_DOC]))
    assert match_gold(triplets, "doc-001") == triplets[0]
    with pytest.raises(SchemaError, match=r"dialogue 'other' among 'doc-001'"):
        match_gold(triplets, "other")
    both = load_gold(json.dumps([_TRIPLET_DOC, {**_TRIPLET_DOC, "doc_id": "doc-002"}]))
    with pytest.raises(SchemaError, match="among 2 documents"):
        match_gold(both, "other")


def test_load_gold_reads_each_document_by_its_own_key():
    native = gold_to_dict(GoldAnnotation("d", tuple(_fixture(2, "g")), ()))
    golds = load_gold(json.dumps(native) + "\n" + json.dumps(_TRIPLET_DOC))
    assert [(g.dialogue_id, g.annotates) for g in golds] == [
        ("d", NATIVE_FIELDS), ("doc-001", TRIPLET_FIELDS)]
    assert load_gold(json.dumps([native])) == load_gold(json.dumps(native))


@pytest.mark.parametrize("text, path, message", [
    (json.dumps([_TRIPLET_DOC, {"doc_id": "x", "sentences": []}]), "[1]", "sextuplets or a triplets key"),
    (json.dumps(_TRIPLET_DOC) + "\n" + json.dumps({**_TRIPLET_DOC, "doc_id": None}), "line 2: doc_id",
     "expected string"),
    (json.dumps([_TRIPLET_DOC, _TRIPLET_DOC]), "[1].doc_id", "repeats dialogue id 'doc-001'"),
    (json.dumps([_TRIPLET_DOC, {**_TRIPLET_DOC, "doc_id": None, "dialogue_id": "doc-001"}]), "[1].doc_id",
     "expected string"),
    (json.dumps([_TRIPLET_DOC, {"dialogue_id": "doc-001", "triplets": []}]), "[1].dialogue_id",
     "repeats dialogue id 'doc-001'"),
    (json.dumps({"triplets": []}), "dialogue_id", "missing required field"),
    ("[]", "", "no dialogue"),
], ids=["no-schema-key", "jsonl-bad-id", "repeated-doc-id", "doc-id-before-dialogue-id",
        "repeated-across-keys", "triplets-without-id", "empty"])
def test_load_gold_names_the_document_it_refuses(text, path, message):
    with pytest.raises(SchemaError, match=message) as exc:
        load_gold(text)
    assert exc.value.path == path


def test_a_triplet_gold_scores_only_the_fields_it_annotates():
    gold = load_gold(json.dumps(_TRIPLET_DOC))[0]
    predicted = [make_sextuplet("p0", target="screen", aspect="display quality", opinion="amazing",
                                sentiment="positive")]
    report = evaluate(CausalGraph(("p0",), ()), predicted, gold)
    assert set(report.span_f1) == {"target", "aspect", "opinion", "sentiment"}
    assert set(report.pair_f1) == {"T-A", "T-O", "A-O"}
    assert report.span_f1["target"] == pytest.approx(2 / 3)
    assert report.causal_chain_score is report.causal_recall is report.causal_f1 is report.counts is None
    assert set(report.to_dict()) == {"span_f1", "pair_f1"}
    text = render_report_text(report)
    assert "span_f1[target]" in text and "pair_f1[T-O]" in text
    for omitted in ("holder", "rationale", "causal", "counts"):
        assert omitted not in text


def test_evaluate_many_over_native_and_triplet_gold_scores_the_shared_fields():
    native = GoldAnnotation("d", tuple(_fixture(2, "g")), (("g0", "g1"),))
    triplet = load_gold(json.dumps(_TRIPLET_DOC))[0]
    graph = CausalGraph(("g0", "g1"), (_edge("g0", "g1"),))
    mixed = evaluate_many([(graph, _fixture(2, "g"), native), (CausalGraph((), ()), [], triplet)])
    assert set(mixed.to_dict()) == {"span_f1", "pair_f1"}
    assert set(mixed.span_f1) == {"target", "aspect", "opinion", "sentiment"}
    # micro-averaged over both documents: 2 of 2 predicted targets among 4 gold ones
    assert mixed.span_f1["target"] == pytest.approx(2 / 3)
    alone = evaluate_many([(graph, _fixture(2, "g"), native)]).to_dict()
    assert set(alone) == {"span_f1", "pair_f1", "causal_correctness", "causal_consistency",
                          "causal_chain_score", "causal_recall", "causal_f1", "counts"}
    assert set(alone["counts"]) == {"correct_links", "predicted_links", "consistent_links", "gold_links"}


def test_load_gold_refuses_a_triplet_polarity_it_does_not_know():
    row = [0, 1, 0, 1, 0, 1, "Mixed", "screen", "glare", "bad"]
    with pytest.raises(SchemaError, match="unrecognized polarity 'Mixed'") as exc:
        load_gold(json.dumps({"doc_id": "x", "triplets": [_TRIPLET_DOC["triplets"][0], row]}))
    assert exc.value.path == "triplets[1]"
    polarities = {"POS": "positive", "neg": "negative", "neu": "neutral", "other": "neutral"}
    rows = [[0, 1, 0, 1, 0, 1, p, f"t{i}", "a", "o"] for i, p in enumerate(polarities)]
    gold = load_gold(json.dumps({"doc_id": "x", "triplets": rows}))[0]
    assert [s.sentiment_label for s in gold.sextuplets] == list(polarities.values())


@pytest.mark.parametrize("implicit, column", [("target", 7), ("opinion", 9)])
def test_an_implicit_target_or_opinion_is_not_scored(implicit, column):
    """Two DiaASQ rows, one with an empty target or opinion, against the one
    right prediction: every span and pair F1 reads 1.0. Scored as a value,
    the empty field read 2/3 for its span and for the two pairs holding it."""
    rows = [[0, 1, 0, 1, 0, 1, "neg", "screen", "glare", "bad"] for _ in range(2)]
    rows[0][column] = ""
    gold = load_gold(json.dumps({"doc_id": "d", "triplets": rows}))[0]
    assert getattr(gold.sextuplets[0], implicit) == ""  # read as implicit, no placeholder
    predicted = [make_sextuplet("p0", target="screen", aspect="glare", opinion="bad", sentiment="negative")]
    report = evaluate(CausalGraph(("p0",), ()), predicted, gold)
    assert report.span_f1 == dict.fromkeys(("target", "aspect", "opinion", "sentiment"), 1.0)
    assert report.pair_f1 == dict.fromkeys(("T-A", "T-O", "A-O"), 1.0)
    # predicted with the empty field beside the right one, against the right one alone: all 1.0 too
    report = evaluate(CausalGraph((), ()), gold.sextuplets, replace(gold, sextuplets=gold.sextuplets[1:]))
    assert set(report.span_f1.values()) == set(report.pair_f1.values()) == {1.0}


def test_an_implicit_aspect_is_scored_as_a_value():
    rows = [[0, 1, 0, 1, 0, 1, "neg", "screen", "", "bad"], [0, 1, 0, 1, 0, 1, "neg", "screen", "glare", "bad"]]
    gold = load_gold(json.dumps({"doc_id": "d", "triplets": rows}))[0]
    predicted = [make_sextuplet("p0", target="screen", aspect="glare", opinion="bad", sentiment="negative")]
    report = evaluate(CausalGraph(("p0",), ()), predicted, gold)
    assert report.span_f1["aspect"] == pytest.approx(2 / 3)
    assert report.pair_f1["T-A"] == report.pair_f1["A-O"] == pytest.approx(2 / 3)
    assert report.span_f1["target"] == report.pair_f1["T-O"] == 1.0


def test_load_gold_unrecognized_layout():
    with pytest.raises(SchemaError):
        load_gold(json.dumps({"something": 1}))
    with pytest.raises(SchemaError):
        load_gold(json.dumps({"triplets": [[1, 2, 3]]}))
