"""End-to-end batch pipeline: validate, index, extract, score, evaluate.

Every stage (one function shared by `run` and its subcommand) writes a plain
file and records its digest in the run manifest; with deterministic providers,
identical inputs and config produce byte-identical files, whether a stage's
calls overlap (a remote provider's) or run in order (transport.map_calls).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from . import __version__ as package_version
from .embedding import EmbeddingProvider, provider_from_spec
from .extraction import ExtractorProvider, extract_dialogue, extractor_from_spec
from .graph import CausalGraph, NliProvider, build_graph, export_graph, nli_from_spec
from .ingest import read_dialogue
from .kb import KnowledgeBase, index_dialogue, write_kb
from .metrics import EvalReport, GoldAnnotation, evaluate, read_gold, render_report_text
from .model import (  # validate_dialogue: benchmarks/tracing.py patches pipeline.validate_dialogue
    Dialogue,
    ScoringConfig,
    Sextuplet,
    dumps_canonical,
    sextuplets_to_dict,
    validate_dialogue,
)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to audit a run, in the one manifest format: `run`
    writes manifest.json; gen, index, extract, graph and eval --out write
    <out>.manifest.json. Keys: `version`; `config` (ScoringConfig fields,
    null for gen); `providers` (role -> provider id); `inputs` and `outputs`
    (path -> SHA-256 of the file); `stages` ({"name", "seconds"} in run
    order: validate, where every command but gen reads its inputs, then
    index, extract, graph, eval, or gen alone). The extract stage also holds
    `prompt_sha256`, the digest of every rendered extraction prompt in
    window order (extract_dialogue's prompt_hash)."""

    config: ScoringConfig | None
    providers: dict[str, str]
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    stages: list[dict] = field(default_factory=list)
    version: str = package_version

    @contextmanager
    def stage(self, name: str) -> Iterator[dict]:
        """Time the block; it may add keys to the stage entry it is given."""
        entry = {"name": name}
        t0 = time.perf_counter()
        yield entry
        entry["seconds"] = round(time.perf_counter() - t0, 6)
        self.stages.append(entry)

    def add_input(self, path: str | Path) -> None:
        self.inputs[str(path)] = sha256_file(path)

    def add_output(self, path: str | Path) -> None:
        self.outputs[str(path)] = sha256_file(path)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(dumps_canonical(asdict(self)))


def extract_stage(manifest: RunManifest, dialogue: Dialogue, kb: KnowledgeBase,
                  extractor: ExtractorProvider, cfg: ScoringConfig,
                  out_path: str | Path) -> list[Sextuplet]:
    """Write the sextuplets document to out_path; record the digest of the prompts."""
    with manifest.stage("extract") as stage:
        prompts = hashlib.sha256()
        sextuplets = extract_dialogue(dialogue, kb, extractor, cfg, prompt_hash=prompts)
        stage["prompt_sha256"] = prompts.hexdigest()
        Path(out_path).write_text(dumps_canonical(sextuplets_to_dict(dialogue.id, sextuplets)))
        manifest.add_output(out_path)
    return sextuplets


def graph_stage(manifest: RunManifest, dialogue_id: str, sextuplets: list[Sextuplet],
                cfg: ScoringConfig, embedder: EmbeddingProvider, nli: NliProvider,
                out_path: str | Path) -> CausalGraph:
    """Write DOT to a .dot out_path, else JSON embedding the sextuplets and dialogue id."""
    with manifest.stage("graph"):
        graph = build_graph(sextuplets, cfg, embedder, nli)
        fmt = "dot" if str(out_path).endswith(".dot") else "json"
        Path(out_path).write_bytes(export_graph(graph, fmt, sextuplets, dialogue_id))
        manifest.add_output(out_path)
    return graph


def eval_stage(manifest: RunManifest, graph: CausalGraph, sextuplets: list[Sextuplet],
               gold: GoldAnnotation, cfg: ScoringConfig, out_path: str | Path | None) -> EvalReport:
    """Write the report to out_path, if one is given."""
    with manifest.stage("eval"):
        report = evaluate(graph, sextuplets, gold, consistency_floor=cfg.consistency_floor)
        if out_path:
            Path(out_path).write_text(dumps_canonical(report.to_dict()))
            manifest.add_output(out_path)
    return report


@dataclass
class RunResult:
    dialogue: Dialogue
    kb: KnowledgeBase
    sextuplets: list[Sextuplet]
    graph: CausalGraph
    report: EvalReport | None
    manifest: RunManifest


def run_pipeline(
    dialogue_path: str | Path,
    out_dir: str | Path,
    cfg: ScoringConfig | None = None,
    *,
    gold_path: str | Path | None = None,
    embedder: EmbeddingProvider | str = "hash:64:0",
    extractor: ExtractorProvider | str = "mock",
    nli: NliProvider | str = "overlap",
    jobs: int = 1,  # never read; benchmarks/workloads.py passes one until ROADMAP item 1b
    strict: bool = False,
) -> RunResult:
    """Run every stage over one dialogue file, writing all artifacts to out_dir."""
    cfg = cfg or ScoringConfig()
    out = Path(out_dir)
    if isinstance(embedder, str):
        embedder = provider_from_spec(embedder)
    if isinstance(extractor, str):
        extractor = extractor_from_spec(extractor)
    if isinstance(nli, str):
        nli = nli_from_spec(nli)

    manifest = RunManifest(cfg, {"embedder": embedder.id, "extractor": extractor.id, "nli": nli.id})
    manifest.add_input(dialogue_path)
    if gold_path is not None:
        manifest.add_input(gold_path)

    with manifest.stage("validate"):
        dialogue = read_dialogue(dialogue_path, strict=strict)
        gold = None if gold_path is None else read_gold(gold_path, dialogue.id)
    # a run refused for its providers, its dialogue or its gold leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)

    with manifest.stage("index"):
        kb = index_dialogue(
            dialogue,
            embedder,
            window_size=cfg.window_size,
            stride=cfg.stride,
            rate_scale=cfg.rate_scale,
        )
        kb_path = out / "kb.cmkb"
        write_kb(kb, kb_path)
        manifest.add_output(kb_path)

    sextuplets = extract_stage(manifest, dialogue, kb, extractor, cfg, out / "sextuplets.json")
    graph = graph_stage(manifest, dialogue.id, sextuplets, cfg, embedder, nli, out / "graph.json")
    eval_report = None
    if gold is not None:
        eval_report = eval_stage(manifest, graph, sextuplets, gold, cfg, out / "report.json")

    manifest.write(out / "manifest.json")

    return RunResult(
        dialogue=dialogue,
        kb=kb,
        sextuplets=sextuplets,
        graph=graph,
        report=eval_report,
        manifest=manifest,
    )


def describe_run(result: RunResult) -> str:
    """Short human summary printed at the end of a run."""
    lines = [
        f"dialogue {result.dialogue.id}: {result.dialogue.n} utterances",
        f"knowledge base: {result.kb.meta.entry_count} windows "
        f"(k={result.kb.meta.window_size}, stride={result.kb.meta.stride})",
        f"sextuplets: {len(result.sextuplets)}",
        f"graph: {len(result.graph.vertices)} vertices, {len(result.graph.edges)} edges",
    ]
    if result.report is not None:
        lines.append("")
        lines.append(render_report_text(result.report))
    return "\n".join(lines)
