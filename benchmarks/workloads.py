"""Workload inputs and one pass of each workload over them.

A workload is a set of `synth.generate` dialogues written to files; the
program only ever sees those files. A pass carries every input from its
file to its evaluation report through emocause's public functions and
returns the timings, the artifacts and the objects the checks need.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

import emocause.pipeline as pipeline
from emocause.embedding import RemoteTextEmbedder, provider_from_spec
from emocause.extraction import RemoteExtractor, extractor_from_spec, sextuplets_to_dict
from emocause.graph import RemoteNli, nli_from_spec
from emocause.metrics import gold_to_dict
from emocause.model import ScoringConfig, dialogue_to_dict, dumps_canonical
from emocause.synth import ChainSpec, generate

from tracing import direct_calls

perf_counter = time.perf_counter

CFG = ScoringConfig()
OFFLINE_SPECS = {"embedder": "hash:64:0", "extractor": "mock", "nli": "overlap"}
REMOTE_SPECS = {"embedder": "remote:stub-embed:64", "extractor": "remote:stub-chat", "nli": "remote"}
ARTIFACTS = ("sextuplets.json", "graph.json", "report.json")
STAGES = ("validate", "index", "extract", "graph", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dialogues: int
    turns: int
    chain: int
    noise: float
    kind: str  # "corpus" | "pipeline"
    tail_percentile: float  # dialogue_s_tail; a run collects >= 10 samples beyond it
    remote: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-retrieval",
            "20 dialogues x 200 turns indexed as one corpus KB; the exhaustive "
            "retrieval scan and repeated embeddings carry it, graph scoring barely shows",
            dialogues=20, turns=200, chain=6, noise=0.3, kind="corpus", tail_percentile=90.0,
        ),
        Workload(
            "remote-providers",
            "4 dialogues x 70 turns, 15 planted events each, through run_pipeline with remote "
            "providers against a localhost stub holding each reply 1 ms; cost is round trips",
            dialogues=4, turns=70, chain=14, noise=0.0, kind="pipeline", tail_percentile=75.0,
            remote=True,
        ),
    )
}


@dataclass
class Inputs:
    dialogue_paths: list[Path]
    gold_paths: list[Path]
    corpus_path: Path
    golds: dict  # dialogue id -> GoldAnnotation
    utterances: int


def write_inputs(w: Workload, seed: int, root: Path) -> Inputs:
    """Generate the workload's dialogues from `seed` and write them as files:
    one `.dialogue.json` and `.gold.json` per dialogue, plus a `.jsonl` corpus."""
    rng = random.Random(f"{w.name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    dialogue_paths, gold_paths, golds, lines = [], [], {}, []
    for dialogue_seed in rng.sample(range(1, 10**8), w.dialogues):
        d, gold = generate(
            ChainSpec(seed=dialogue_seed, turns=w.turns, chain_length=w.chain, noise_rate=w.noise)
        )
        path = root / f"{d.id}.dialogue.json"
        path.write_text(dumps_canonical(dialogue_to_dict(d)))
        gold_path = root / f"{d.id}.gold.json"
        gold_path.write_text(dumps_canonical(gold_to_dict(gold)))
        dialogue_paths.append(path)
        gold_paths.append(gold_path)
        golds[d.id] = gold
        lines.append(json.dumps(dialogue_to_dict(d), sort_keys=True))
    corpus_path = root / "corpus.jsonl"
    corpus_path.write_text("\n".join(lines) + "\n")
    return Inputs(dialogue_paths, gold_paths, corpus_path, golds, w.dialogues * w.turns)


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


@dataclass
class Providers:
    embedder: object
    extractor: object
    nli: object
    sessions: list = field(default_factory=list)

    def close(self) -> None:
        for s in self.sessions:
            s.close()


def offline_providers() -> Providers:
    return Providers(
        provider_from_spec(OFFLINE_SPECS["embedder"]),
        extractor_from_spec(OFFLINE_SPECS["extractor"]),
        nli_from_spec(OFFLINE_SPECS["nli"]),
    )


def remote_providers(stub) -> Providers:
    sessions = [requests.Session() for _ in range(3)]
    return Providers(
        RemoteTextEmbedder("stub-embed", 64, endpoint=stub.url("embed"), session=sessions[0]),
        RemoteExtractor("stub-chat", endpoint=stub.url("chat"), session=sessions[1]),
        RemoteNli(endpoint=stub.url("nli"), session=sessions[2]),
        sessions,
    )


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class DialogueOutput:
    sextuplets: list
    graph: object
    gold: object
    artifacts: tuple[bytes, ...]  # bytes of ARTIFACTS, in order
    kb_path: Path | None = None


@dataclass
class PassResult:
    seconds: float
    dialogue_s: dict[str, float]  # dialogue id -> seconds from its file to its report
    spans: dict[str, tuple[float, float]]  # dialogue id -> perf_counter interval of its own work
    stages: dict[str, float]
    outputs: dict[str, DialogueOutput]
    kb_windows: int
    chain_score: float
    span_f1_mean: float
    kb_round_trip_exact: bool = True


def _span_f1_mean(report) -> float:
    return statistics.fmean(report.span_f1.values())


def corpus_pass(inputs: Inputs, prov: Providers, out: Path, *, jobs: int = 1, tracer=None) -> PassResult:
    """read_corpus -> index_corpus -> save_kb/load_kb through a file ->
    extract_dialogue, build_graph and export per dialogue -> evaluate_many.

    A dialogue's time is its own extract and graph time plus an equal share
    of the corpus-wide read, index, KB round trip and evaluation."""
    call = direct_calls(tracer)
    out.mkdir(parents=True, exist_ok=True)
    kb_path = out / "corpus.cmkb"
    if tracer is not None:
        tracer.trace_id = "corpus"

    t0 = perf_counter()
    dialogues = call["read_corpus"](inputs.corpus_path)
    t1 = perf_counter()
    built = call["index_corpus"](
        dialogues, prov.embedder, window_size=CFG.window_size, stride=CFG.stride,
        rate_scale=CFG.rate_scale,
    )
    call["write_kb"](built, kb_path)
    loaded = call["read_kb"](kb_path)
    t2 = perf_counter()

    own, extract_s, graph_s, found, spans = [], 0.0, 0.0, [], {}
    for d in dialogues:
        if tracer is not None:
            tracer.trace_id = d.id
        a = perf_counter()
        sextuplets = call["extract_dialogue"](d, loaded, prov.extractor, CFG, jobs=jobs)
        sext_bytes = dumps_canonical(sextuplets_to_dict(d.id, sextuplets)).encode()
        b = perf_counter()
        graph = call["build_graph"](sextuplets, CFG, prov.embedder, prov.nli, jobs=jobs)
        graph_bytes = call["export_graph"](graph, "json", sextuplets, d.id)
        c = perf_counter()
        extract_s += b - a
        graph_s += c - b
        own.append(c - a)
        spans[d.id] = (a, c)
        found.append((d.id, sextuplets, graph, sext_bytes, graph_bytes))

    if tracer is not None:
        tracer.trace_id = "corpus"
    t3 = perf_counter()
    golds = {g.dialogue_id: g for p in inputs.gold_paths for g in call["load_gold"](p.read_bytes())}
    report = call["evaluate_many"](
        [(graph, sextuplets, golds[did]) for did, sextuplets, graph, _, _ in found],
        consistency_floor=CFG.consistency_floor,
    )
    report_bytes = dumps_canonical(report.to_dict()).encode()
    t4 = perf_counter()

    exact = built.windows == loaded.windows and bool((built.vectors == loaded.vectors).all())
    shared = (t2 - t0) + (t4 - t3)
    outputs = {
        did: DialogueOutput(sextuplets, graph, golds[did], (sext_bytes, graph_bytes, report_bytes))
        for did, sextuplets, graph, sext_bytes, graph_bytes in found
    }
    return PassResult(
        seconds=t4 - t0,
        dialogue_s={f[0]: s + shared / len(own) for f, s in zip(found, own)},
        spans=spans,
        stages=dict(zip(STAGES, (t1 - t0, t2 - t1, extract_s, graph_s, t4 - t3))),
        outputs=outputs,
        kb_windows=loaded.meta.entry_count,
        chain_score=report.causal_chain_score,
        span_f1_mean=_span_f1_mean(report),
        kb_round_trip_exact=exact,
    )


def pipeline_pass(inputs: Inputs, prov: Providers, out: Path, *, jobs: int = 1, tracer=None) -> PassResult:
    """run_pipeline (the CLI `run` path) on each dialogue file with its gold."""
    run = pipeline.run_pipeline if tracer is None else tracer.wrap("pipeline.run", pipeline.run_pipeline)
    dialogue_s, spans, outputs, stages = {}, {}, {}, dict.fromkeys(STAGES, 0.0)
    windows, scores, f1s = 0, [], []
    t0 = perf_counter()
    for path, gold_path in zip(inputs.dialogue_paths, inputs.gold_paths):
        run_dir = out / path.name.removesuffix(".dialogue.json")
        if tracer is not None:
            tracer.trace_id = run_dir.name
        a = perf_counter()
        result = run(
            path, run_dir, CFG, gold_path=gold_path, embedder=prov.embedder,
            extractor=prov.extractor, nli=prov.nli, jobs=jobs,
        )
        did = result.dialogue.id
        spans[did] = (a, perf_counter())
        dialogue_s[did] = spans[did][1] - a
        outputs[did] = DialogueOutput(
            result.sextuplets, result.graph, inputs.golds[did],
            tuple((run_dir / name).read_bytes() for name in ARTIFACTS),
            run_dir / "kb.cmkb",
        )
        for stage in json.loads((run_dir / "manifest.json").read_text())["stages"]:
            stages[stage["name"]] += stage["seconds"]
        windows += result.kb.meta.entry_count
        scores.append(result.report.causal_chain_score)
        f1s.append(_span_f1_mean(result.report))
    return PassResult(
        seconds=perf_counter() - t0,
        dialogue_s=dialogue_s,
        spans=spans,
        stages=stages,
        outputs=outputs,
        kb_windows=windows,
        chain_score=statistics.fmean(scores),
        span_f1_mean=statistics.fmean(f1s),
    )


def run_pass(w: Workload, inputs: Inputs, prov: Providers, out: Path, **kw) -> PassResult:
    return (corpus_pass if w.kind == "corpus" else pipeline_pass)(inputs, prov, out, **kw)

