"""The names and keywords the benchmark harness calls, on one small pass of each workload.

benchmarks/run.py reports a failed check as `"correct": false` and still exits
0; it exits 1 only when an exception escapes it, as it does when the package
loses a name or keyword the harness calls: the remote constructors' `session=`,
the `jobs=` of run_pipeline, extract_dialogue and build_graph, a manifest's
`stages` entries, a RunResult field. One traced pass of a two-dialogue,
20-turn copy of each workload, with every call site the tracer patches in
place, goes through all of them.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

pytest.importorskip("requests")  # benchmarks/workloads.py builds its remote providers with it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from stub import ENDPOINTS, ProviderStub  # noqa: E402
from tracing import Tracer, patched  # noqa: E402
from workloads import (  # noqa: E402
    ARTIFACTS,
    STAGES,
    WORKLOADS,
    offline_providers,
    remote_providers,
    run_pass,
    write_inputs,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_pass_of_each_workload_runs(name, tmp_path):
    w = replace(WORKLOADS[name], dialogues=2, turns=20, chain=3)
    inputs = write_inputs(w, 1, tmp_path / "inputs")
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(tracer))
        stub = stack.enter_context(ProviderStub()) if w.remote else None
        prov = remote_providers(stub) if w.remote else offline_providers()
        stack.callback(prov.close)  # the stub's shutdown waits for its clients to close
        result = run_pass(w, inputs, prov, tmp_path / "out", tracer=tracer)
    assert set(result.outputs) == set(inputs.golds) and len(result.outputs) == 2
    for output in result.outputs.values():
        assert len(output.artifacts) == len(ARTIFACTS) and all(output.artifacts)
    assert list(result.stages) == list(STAGES)
    assert result.kb_windows > 0 and 0.0 <= result.chain_score <= 1.0
    assert tracer.counters["kb.windows"] > 0
    assert {span[0] for span in tracer.spans} >= {"kb.index", "extraction.extract_dialogue", "graph.build"}
    if w.remote:
        assert all(stub.counts[f"requests.{endpoint}"] > 0 for endpoint in ENDPOINTS)
        assert stub.counts["failures"] == 0
