"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`).
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emocause.cli import main as cli_main
from emocause.embedding import HashTextEmbedder, fuse
from emocause.errors import SchemaError, StoreFormatError
from emocause.extraction import MockExtractor, apply_rule_table, dedup_sextuplets, extract_dialogue
from emocause.graph import (
    CausalEdge,
    CausalGraph,
    JaccardNli,
    build_graph,
    edge_weight,
    rationale_score,
    temporal_score,
)
from emocause.kb import (
    KnowledgeBase,
    KnowledgeBaseMeta,
    TimeWindow,
    index_dialogue,
    load_kb,
    retrieve,
    save_kb,
)
from emocause.metrics import (
    GoldAnnotation,
    causal_chain_score,
    evaluate,
    gold_to_dict,
    read_gold,
)
from emocause.model import AudioFeatureRecord, ScoringConfig, Sextuplet
from emocause.synth import ChainSpec, generate

from conftest import serve_offline_providers


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


class _ConstNli:
    id = "const"
    mode = "mock_overlap"

    def __init__(self, p):
        self.p = p

    def entailment_probability(self, premise, hypothesis):
        return self.p


def test_criterion_1_formula_exactness():
    with criterion("1 formula exactness"):
        started = time.perf_counter()
        tau = 30.0
        assert temporal_score(0.0, tau) == 1.0
        assert abs(temporal_score(tau, tau) - math.exp(-1.0)) <= 1e-9

        effect = Sextuplet("e", "H", "T", "a", "o", "positive", "r")
        raw = rationale_score("premise", effect, _ConstNli(1.0), normalize=False)
        assert abs(raw - math.log(2.0)) <= 1e-9

        for weights in ((1 / 3, 1 / 3, 1 / 3), (0.2, 0.5, 0.3), (0.6, 0.2, 0.2), (0.98, 0.01, 0.01)):
            cfg = ScoringConfig(alpha=weights[0], beta=weights[1], gamma=weights[2])
            assert abs(edge_weight(1.0, 1.0, 1.0, cfg) - 1.0) <= 1e-9
        assert time.perf_counter() - started < 1.0


def _synthetic_kb(n_entries, dim, seed):
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(n_entries):
        windows.append(
            TimeWindow(
                window_index=i // 5,
                dialogue_id=f"d{i % 5}",
                start_index=0,
                end_index=1,
                text=f"w{i}",
            )
        )
    order = sorted(range(n_entries), key=lambda i: (windows[i].dialogue_id, windows[i].window_index))
    vectors = rng.standard_normal((n_entries, dim))[order]
    windows = [windows[i] for i in order]
    meta = KnowledgeBaseMeta(dim - 9, 8, 2, 2, "hash:0:0", n_entries)
    return KnowledgeBase(windows, vectors, meta), rng


def _oracle_rank(query_window, q, kb, top_n):
    scored = []
    for i, w in enumerate(kb.windows):
        if w.dialogue_id == query_window.dialogue_id and w.window_index == query_window.window_index:
            continue
        row = kb.vectors[i]
        dot = sum(float(a) * float(b) for a, b in zip(q, row))
        sim = dot / (
            math.sqrt(sum(float(a) ** 2 for a in q)) * math.sqrt(sum(float(b) ** 2 for b in row))
        )
        scored.append((-sim, w.dialogue_id, w.window_index))
    scored.sort()
    return [(d, w) for _, d, w in scored[:top_n]]


def test_criterion_2_retrieval_oracle_equivalence():
    with criterion("2 retrieval oracle equivalence"):
        started = time.perf_counter()
        kb, rng = _synthetic_kb(500, 64, seed=2024)
        for trial in range(100):
            if trial % 2 == 0:
                idx = int(rng.integers(0, 500))
                query_window, q = kb.windows[idx], kb.vectors[idx]
            else:
                query_window = TimeWindow(10_000 + trial, "query", 0, 1, "q")
                q = rng.standard_normal(64)
            hits = retrieve(query_window, q, kb, top_n=3)
            got = [(h.window.dialogue_id, h.window.window_index) for h in hits]
            assert got == _oracle_rank(query_window, q, kb, 3)
        assert time.perf_counter() - started < 5.0


def test_criterion_3_fusion_shape_and_slices():
    with criterion("3 fusion shape and slice recovery"):
        rng = np.random.default_rng(3)
        for d_t in (8, 64, 384):
            for d_e in (4, 8, 16):
                raw = rng.standard_normal(d_t)
                text = raw / np.linalg.norm(raw)
                weights = rng.random(d_e) + 0.01
                emotion = tuple(float(x) for x in weights / weights.sum())
                rate = float(rng.uniform(0.5, 8.0))
                record = AudioFeatureRecord(0, emotion, intensity=0.5, speech_rate=rate)
                fused = fuse(text, record, emotion_dim=d_e, rate_scale=5.0)
                assert fused.shape == (d_t + d_e + 1,)
                assert np.array_equal(fused[:d_t], text)
                assert np.array_equal(fused[d_t : d_t + d_e], np.asarray(emotion))
                assert fused[d_t + d_e] == rate / 5.0


def _metric_fixture():
    def event(sid, tag, t):
        return Sextuplet(sid, f"H{tag}", f"T{tag}", f"a{tag}", "negative", "negative",
                         "stated basis", t_start=t, t_end=t + 2.0)

    gold_sx = tuple(event(f"g{i}", i, 10.0 * i) for i in range(5))
    pred_sx = [event(f"p{i}", i, 10.0 * i) for i in range(5)]
    gold = GoldAnnotation(
        "d", gold_sx, (("g0", "g1"), ("g1", "g2"), ("g2", "g3"), ("g3", "g4"))
    )

    def edge(cause, effect, weight, semantic):
        return CausalEdge(cause, effect, semantic, 0.5, 0.5, weight, 5.0)

    edges = (
        edge("p0", "p1", 0.9, 0.9),
        edge("p1", "p2", 0.8, 0.9),
        edge("p2", "p3", 0.7, 0.9),
        edge("p0", "p4", 0.6, 0.2),  # unmatched in gold and below the semantic floor
    )
    graph = CausalGraph(tuple(s.id for s in pred_sx), edges)
    return graph, pred_sx, gold


def test_criterion_4_metric_identities():
    with criterion("4 metric identities"):
        graph, pred_sx, gold = _metric_fixture()
        report = evaluate(graph, pred_sx, gold, consistency_floor=0.5)
        assert (report.causal_correctness, report.causal_consistency) == (0.75, 0.75)
        assert report.causal_chain_score == 0.75
        assert causal_chain_score(0.75, 0.75) == 0.75

        # 1,000 random subsets of the fixture's edges, with random weights and semantic scores
        rng = random.Random(4)
        for _ in range(1000):
            edges = tuple(replace(e, weight=rng.random(), semantic_score=rng.random())
                          for e in graph.edges if rng.random() < 0.7)
            report = evaluate(CausalGraph(graph.vertices, edges), pred_sx, gold)
            c1, c2 = report.causal_correctness, report.causal_consistency
            assert abs(report.causal_chain_score - (0.5 * c1 + 0.5 * c2)) <= 1e-12


def _bruteforce_extraction(dialogue):
    """The independent oracle: rule table over every utterance, no windows."""
    found = []
    for u in dialogue.utterances:
        for k, item in enumerate(apply_rule_table(u.text)):
            found.append(
                Sextuplet(
                    id=f"oracle-{u.index:03d}-{k}",
                    holder=item["holder"],
                    target=item["target"],
                    aspect=item["aspect"],
                    opinion=item["opinion"],
                    sentiment_label=item["sentiment"],
                    rationale=item["rationale"],
                    window_index=0,
                    t_start=u.t_start,
                    t_end=u.t_end,
                )
            )
    return dedup_sextuplets(found)


def test_criterion_5_end_to_end_planted_chain():
    with criterion("5 end-to-end planted-chain recovery"):
        started = time.perf_counter()
        cfg = ScoringConfig()
        embedder = HashTextEmbedder(64, 0)
        nli = JaccardNli()
        for seed in range(1, 21):
            dialogue, gold = generate(ChainSpec(seed=seed, turns=80, chain_length=4, noise_rate=0.0))
            kb = index_dialogue(dialogue, embedder, window_size=cfg.window_size,
                                stride=cfg.stride, rate_scale=cfg.rate_scale)
            sextuplets = extract_dialogue(dialogue, kb, MockExtractor(), cfg)
            graph = build_graph(sextuplets, cfg, embedder, nli)
            report = evaluate(graph, sextuplets, gold, consistency_floor=cfg.consistency_floor)
            assert report.causal_correctness == 1.0, f"seed {seed}"
            assert report.causal_consistency == 1.0, f"seed {seed}"
            assert report.causal_recall == 1.0, f"seed {seed}"

            noisy, noisy_gold = generate(
                ChainSpec(seed=seed, turns=80, chain_length=4, noise_rate=0.2)
            )
            kb2 = index_dialogue(noisy, embedder, window_size=cfg.window_size,
                                 stride=cfg.stride, rate_scale=cfg.rate_scale)
            pipeline_sx = extract_dialogue(noisy, kb2, MockExtractor(), cfg)
            pipeline_graph = build_graph(pipeline_sx, cfg, embedder, nli)
            pipeline_correctness = evaluate(pipeline_graph, pipeline_sx, noisy_gold).causal_correctness

            oracle_sx = _bruteforce_extraction(noisy)
            oracle_graph = build_graph(oracle_sx, cfg, embedder, nli)
            oracle_correctness = evaluate(oracle_graph, oracle_sx, noisy_gold).causal_correctness
            assert pipeline_correctness == oracle_correctness, f"seed {seed}"
        assert time.perf_counter() - started < 60.0


_POOL_HOLDERS = ("Ana", "Ben", "Cleo", "Dot", "Eli")
_POOL_TARGETS = ("Volt", "Grid", "Hub", "Mesh")
_POOL_ASPECTS = ("pricing", "latency", "support", "")
_POOL_OPINIONS = ("negative", "positive", "criticizes", "praises", "resents")
_POOL_RATIONALES = (
    "the fees doubled", "replies stalled for days", "Ana keeps pressing Volt on pricing",
    "the update landed broken",
)


def _random_sextuplets(seed):
    rng = random.Random(seed)
    count = rng.randint(3, 8)
    items = []
    clock = 0.0
    for i in range(count):
        clock += rng.uniform(0.0, 80.0)
        duration = rng.uniform(1.0, 8.0)
        label = rng.choice(("positive", "negative", "neutral"))
        items.append(
            Sextuplet(
                id=f"r{seed}-{i}",
                holder=rng.choice(_POOL_HOLDERS),
                target=rng.choice(_POOL_TARGETS),
                aspect=rng.choice(_POOL_ASPECTS),
                opinion=rng.choice(_POOL_OPINIONS),
                sentiment_label=label,
                rationale=rng.choice(_POOL_RATIONALES),
                t_start=clock,
                t_end=clock + duration,
            )
        )
        clock += duration
    return items


def test_criterion_6_graph_invariants():
    with criterion("6 graph invariants"):
        cfg = ScoringConfig()
        embedder = HashTextEmbedder(64, 0)
        nli = JaccardNli()
        thresholds = [i / 10.0 for i in range(11)]
        for seed in range(100):
            items = _random_sextuplets(seed)
            previous = None
            for th in thresholds:
                graph = build_graph(items, replace(cfg, edge_threshold=th), embedder, nli)
                ids = {(e.cause_id, e.effect_id) for e in graph.edges}
                for e in graph.edges:
                    assert e.delta_t >= 0.0
                    assert e.cause_id != e.effect_id
                    assert 0.0 <= e.weight <= 1.0
                    assert 0.0 <= e.semantic_score <= 1.0
                    assert 0.0 <= e.rationale_score <= 1.0
                    assert 0.0 < e.temporal_score <= 1.0
                if previous is not None:
                    assert ids <= previous
                previous = ids


def test_criterion_7_persistence_round_trip():
    with criterion("7 persistence round-trip"):
        embedder = HashTextEmbedder(64, 0)
        dialogue, _ = generate(ChainSpec(seed=77, turns=100, chain_length=4))
        kb = index_dialogue(dialogue, embedder, window_size=10, stride=5)
        assert kb.meta.entry_count == 19
        blob = save_kb(kb)
        loaded = load_kb(blob)

        rng = np.random.default_rng(7)
        for trial in range(50):
            if trial % 2 == 0:
                idx = int(rng.integers(0, 19))
                query_window, q = kb.windows[idx], kb.vectors[idx]
            else:
                query_window = TimeWindow(900 + trial, "elsewhere", 0, 1, "q")
                q = rng.standard_normal(kb.vectors.shape[1])
            before = [
                (h.window.dialogue_id, h.window.window_index, h.similarity)
                for h in retrieve(query_window, q, kb, top_n=5)
            ]
            after = [
                (h.window.dialogue_id, h.window.window_index, h.similarity)
                for h in retrieve(query_window, q, loaded, top_n=5)
            ]
            assert before == after

        corrupt_rng = np.random.default_rng(8)
        positions = {0, 4, 5, 12, len(blob) // 3, len(blob) // 2, len(blob) - 2}
        positions.update(int(corrupt_rng.integers(0, len(blob))) for _ in range(5))
        for position in positions:
            corrupted = bytearray(blob)
            corrupted[position] ^= 0xFF
            with pytest.raises(StoreFormatError):
                load_kb(bytes(corrupted))


def test_criterion_8_run_determinism(tmp_path, http_stub, monkeypatch):
    with criterion("8 run determinism"):
        prefix = tmp_path / "case"
        assert cli_main(["gen", "--seed", "7", "--turns", "80", "--chain-length", "4",
                         "--out-prefix", str(prefix)]) == 0
        dialogue_path = f"{prefix}.dialogue.json"
        gold_path = f"{prefix}.gold.json"
        serve_offline_providers(http_stub, monkeypatch)
        # the third run's extractor and NLI calls overlap, as remote calls do,
        # and the stub answers them as MockExtractor and JaccardNli would
        overlapping = ["--provider", "remote:glm", "--nli", "remote"]
        outputs = []
        for run_dir, providers in (("run1", []), ("run2", []), ("run3", overlapping)):
            out_dir = tmp_path / run_dir
            assert cli_main(["run", "--dialogue", dialogue_path, "--gold", gold_path,
                             "--out-dir", str(out_dir), *providers]) == 0
            outputs.append({
                name: (out_dir / name).read_bytes()
                for name in ("sextuplets.json", "graph.json", "report.json", "kb.cmkb")
            })
        assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_9_external_gold_schema_metrics(tmp_path):
    # Published benchmark figures need proprietary models and unreleased data;
    # criteria 1-8 stand in for them. What must work here: a triplet-schema
    # gold file feeds the harness under its dialogue's id and yields the span
    # and pair metrics it annotates, and none that it does not annotate.
    with criterion("9 external triplet-schema gold ingestion"):
        doc = {
            "doc_id": "ext-042",
            "sentences": ["the screen is amazing", "but the battery drains fast"],
            "speakers": [0, 1],
            "triplets": [
                [0, 1, 2, 4, 4, 5, "pos", "screen", "display quality", "amazing"],
                [6, 7, 8, 10, 11, 12, "neg", "battery", "battery life", "drains fast"],
            ],
        }
        gold_file = tmp_path / "external.gold.json"
        gold_file.write_text(json.dumps([doc]))
        gold = read_gold(gold_file, "ext-042")
        assert len(gold.sextuplets) == 2
        with pytest.raises(SchemaError, match="no gold annotation for dialogue 'some-other-doc'"):
            read_gold(gold_file, "some-other-doc")

        predicted = [
            Sextuplet("p0", "unknown", "screen", "display quality", "amazing", "positive",
                      "unannotated"),
            Sextuplet("p1", "unknown", "battery", "battery cost", "drains fast", "negative",
                      "unannotated"),
        ]
        report = evaluate(CausalGraph(("p0", "p1"), ()), predicted, gold)
        assert set(report.to_dict()) == {"span_f1", "pair_f1"}
        assert set(report.span_f1) == {"target", "aspect", "opinion", "sentiment"}
        assert set(report.pair_f1) == {"T-A", "T-O", "A-O"}
        assert report.span_f1["target"] == 1.0
        assert report.span_f1["aspect"] == 0.5
        assert report.pair_f1["T-O"] == 1.0
        for value in list(report.span_f1.values()) + list(report.pair_f1.values()):
            assert 0.0 <= value <= 1.0

        # a native gold in a one-element array is the native gold, with every metric
        native = GoldAnnotation("ext-043", tuple(predicted), (("p0", "p1"),))
        native_file = tmp_path / "native.gold.json"
        native_file.write_text(json.dumps([gold_to_dict(native)]))
        assert read_gold(native_file, "ext-043") == native
        report = evaluate(CausalGraph(("p0", "p1"), ()), predicted, native)
        assert set(report.span_f1) == {"holder", "target", "aspect", "opinion", "rationale", "sentiment"}
        assert 0.0 <= report.causal_chain_score <= 1.0
