"""Tests of the benchmark itself, on workloads small enough to run in seconds.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import pytest  # noqa: E402

import emocause.extraction as extraction  # noqa: E402
import emocause.kb as kb  # noqa: E402
import emocause.pipeline as pipeline  # noqa: E402
from bench import (  # noqa: E402
    REFERENCE_PROBE_S,
    Checks,
    SpeedProbe,
    cross_checks,
    measure,
    measure_traced,
    samples_for_tail,
    tail,
)
from stub import ProviderStub  # noqa: E402
from tracing import Tracer, patched  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

# Shapes small enough for a unit test; 70 turns is the fewest that
# validation accepts without a warning.
SMALL = {
    "corpus-retrieval": dict(dialogues=3, turns=70),
    "remote-providers": dict(dialogues=1, chain=6),
}


def small(name: str):
    return replace(WORKLOADS[name], **SMALL[name])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_traced(name: str, tmp_path: Path):
    w = small(name)
    inputs = write_inputs(w, 7, tmp_path / "inputs")
    checks = Checks()
    if w.remote:
        with ProviderStub() as stub:
            result = measure_traced(w, inputs, 0, tmp_path, checks, tmp_path / "trace.json", stub)
    else:
        result = measure_traced(w, inputs, 0, tmp_path, checks, tmp_path / "trace.json")
    return w, result, checks


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes_every_check_and_reports_every_layer_metric(name, tmp_path):
    w, result, checks = run_traced(name, tmp_path)
    assert checks.failed == 0, checks.messages
    assert set(result.metrics) == {m["name"] for m in benchmark_spec()["per_layer"]}
    m = {k: v for k, (v, _) in result.metrics.items()}
    assert m["kb.windows"] > 0 and m["graph.nli_calls"] > 0 and m["embedding.embed_calls"] > 0
    assert m["graph.edges_kept"] <= m["graph.pairs_admissible"] <= m["graph.pairs_enumerated"]
    assert 0 < m["embedding.useful_ratio"] <= 1
    if w.remote:
        assert m["transport.requests.embed"] == m["embedding.embed_calls"]
        assert m["transport.requests.nli"] == m["graph.nli_calls"]
    else:
        assert m["transport.requests.embed"] == 0
    spans = json.loads((tmp_path / "trace.json").read_text())
    assert spans["spans"] and spans["environment"]["python"]


def test_cross_checks_catch_a_miscount(tmp_path):
    w = small("corpus-retrieval")
    inputs = write_inputs(w, 3, tmp_path / "inputs")
    from workloads import offline_providers, run_pass

    p = run_pass(w, inputs, offline_providers(), tmp_path / "out")
    edges = sum(len(o.graph.edges) for o in p.outputs.values())
    kept = sum(len(o.sextuplets) for o in p.outputs.values())
    good = {"graph.edges_kept": (edges, "count"), "extraction.sextuplets_kept": (kept, "count"),
            "kb.windows": (p.kb_windows, "count")}
    checks = Checks()
    cross_checks(good, p, None, checks)
    assert checks.failed == 0
    cross_checks({**good, "graph.edges_kept": (edges + 1, "count")}, p, None, checks)
    assert checks.failed == 1
    provider_calls = {"embedding.embed_calls": (5, "count"), "extraction.provider_calls": (1, "count"),
                      "graph.nli_calls": (2, "count")}
    stub_counts = {"requests.embed": 4, "requests.chat": 1, "requests.nli": 2}
    cross_checks({**good, **provider_calls}, p, stub_counts, checks)
    assert checks.failed == 2


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    w = small("corpus-retrieval")
    inputs = write_inputs(w, 5, tmp_path / "inputs")
    checks = Checks()
    result = measure(w, inputs, 0, tmp_path, checks, ROOT / "src")
    assert checks.failed == 0, checks.messages
    assert set(result.metrics) == {m["name"] for m in benchmark_spec()["end_to_end"]}
    assert all(value > 0 for value, _ in result.metrics.values())


def test_patches_are_restored():
    before = (pipeline.build_graph, kb.window_embedding, extraction.retrieve,
              extraction.ExtractionPrompt.render)
    with patched(Tracer()):
        assert pipeline.build_graph is not before[0]
    assert (pipeline.build_graph, kb.window_embedding, extraction.retrieve,
            extraction.ExtractionPrompt.render) == before


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [("a", "", 0.0, 10.0, -1), ("b", "", 1.0, 4.0, 0), ("c", "", 2.0, 3.0, 1)]
    total, own, calls = tracer.times()
    assert own == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert total["a"] == 10.0 and calls["b"] == 1


def test_speed_probe_samples_while_open():
    with SpeedProbe() as probe:
        start = time.perf_counter()
        time.sleep(0.2)
    assert len(probe.samples) >= 3
    assert probe.factor(start, time.perf_counter()) > 0
    assert probe.factor(0.0, 0.0) == 1.0


def test_stolen_time_is_interpolated_capped_and_taken_out():
    probe = SpeedProbe()
    probe.stolen = [(0.0, 10.0), (1.0, 10.5), (2.0, 11.5)]
    assert probe.stolen_in(0.5, 1.5) == pytest.approx(0.75)
    assert probe.stolen_in(1.5, 1.6) == pytest.approx(0.1)
    probe.samples = [(1.0, 2 * REFERENCE_PROBE_S)]
    assert probe.effective(0.5, 1.5) == pytest.approx((1.0 - 0.75) * 0.5)
    probe.stolen = [(0.0, 0.0), (1.0, 3.0)]
    assert probe.stolen_in(0.0, 1.0) == 1.0


def test_tail_is_the_fixed_percentile_and_runs_collect_ten_samples_beyond_it():
    assert tail([float(i) for i in range(1, 61)], 75.0) == (45.0, "p75 of 60 samples, 15 beyond it")
    assert tail([float(i) for i in range(1, 201)], 90.0) == (180.0, "p90 of 200 samples, 20 beyond it")
    assert tail([3.0, 1.0, 2.0], 90.0) == (3.0, "p90 of 3 samples, 0 beyond it")
    assert samples_for_tail(75.0) == 40 and samples_for_tail(90.0) == 100
    for w in WORKLOADS.values():
        assert tail([0.0] * samples_for_tail(w.tail_percentile), w.tail_percentile)[1].endswith(
            "10 beyond it")
