"""End-to-end batch pipeline: validate, index, extract, score, evaluate.

Every stage writes a plain inspectable file and records its digest in the
run manifest; with deterministic providers, identical inputs and config
produce byte-identical output files regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__ as package_version
from .embedding import EmbeddingProvider, provider_from_spec
from .extraction import (
    ExtractorProvider,
    extract_dialogue,
    extractor_from_spec,
    sextuplets_to_dict,
)
from .graph import CausalGraph, NliProvider, build_graph, export_graph, nli_from_spec
from .ingest import IngestOptions, read_dialogue
from .kb import KnowledgeBase, index_dialogue, write_kb
from .metrics import EvalReport, evaluate, load_gold, match_gold, render_report_text
from .model import (  # validate_dialogue: benchmarks/tracing.py patches pipeline.validate_dialogue
    Dialogue,
    ScoringConfig,
    Sextuplet,
    dumps_canonical,
    scoring_config_to_dict,
    validate_dialogue,
)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to audit a run: config, providers, inputs, outputs,
    and per-stage wall-clock timings."""

    config: dict
    providers: dict[str, str]
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    stages: list[dict] = field(default_factory=list)
    version: str = package_version

    def record_stage(self, name: str, seconds: float) -> None:
        self.stages.append({"name": name, "seconds": round(seconds, 6)})

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "providers": self.providers,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "stages": self.stages,
        }


@dataclass
class RunResult:
    dialogue: Dialogue
    kb: KnowledgeBase
    sextuplets: list[Sextuplet]
    graph: CausalGraph
    report: EvalReport | None
    manifest: RunManifest
    out_dir: Path


class _Timer:
    def __init__(self, manifest: RunManifest, name: str):
        self.manifest = manifest
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.record_stage(self.name, time.perf_counter() - self.t0)
        return False


def run_pipeline(
    dialogue_path: str | Path,
    out_dir: str | Path,
    cfg: ScoringConfig | None = None,
    *,
    gold_path: str | Path | None = None,
    embedder: EmbeddingProvider | str = "hash:64:0",
    extractor: ExtractorProvider | str = "mock",
    nli: NliProvider | str = "overlap",
    jobs: int = 1,
    strict: bool = False,
) -> RunResult:
    """Run every stage over one dialogue file, writing all artifacts to out_dir."""
    cfg = cfg or ScoringConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if isinstance(embedder, str):
        embedder = provider_from_spec(embedder)
    if isinstance(extractor, str):
        extractor = extractor_from_spec(extractor)
    if isinstance(nli, str):
        nli = nli_from_spec(nli)

    manifest = RunManifest(
        config=scoring_config_to_dict(cfg),
        providers={"embedder": embedder.id, "extractor": extractor.id, "nli": nli.id},
    )
    manifest.inputs[str(dialogue_path)] = sha256_file(dialogue_path)
    if gold_path is not None:
        manifest.inputs[str(gold_path)] = sha256_file(gold_path)

    with _Timer(manifest, "validate"):
        dialogue = read_dialogue(dialogue_path, IngestOptions(strict=strict))

    with _Timer(manifest, "index"):
        kb = index_dialogue(
            dialogue,
            embedder,
            window_size=cfg.window_size,
            stride=cfg.stride,
            rate_scale=cfg.rate_scale,
        )
        kb_path = out / "kb.cmkb"
        write_kb(kb, kb_path)
        manifest.outputs[str(kb_path)] = sha256_file(kb_path)

    with _Timer(manifest, "extract"):
        sextuplets = extract_dialogue(dialogue, kb, extractor, cfg, jobs=jobs)
        sext_path = out / "sextuplets.json"
        sext_path.write_text(dumps_canonical(sextuplets_to_dict(dialogue.id, sextuplets)))
        manifest.outputs[str(sext_path)] = sha256_file(sext_path)

    with _Timer(manifest, "graph"):
        graph = build_graph(sextuplets, cfg, embedder, nli, jobs=jobs)
        graph_path = out / "graph.json"
        graph_path.write_bytes(export_graph(graph, "json", sextuplets, dialogue.id))
        manifest.outputs[str(graph_path)] = sha256_file(graph_path)

    eval_report = None
    if gold_path is not None:
        with _Timer(manifest, "eval"):
            gold = match_gold(load_gold(Path(gold_path).read_bytes()), dialogue.id)
            eval_report = evaluate(graph, sextuplets, gold, consistency_floor=cfg.consistency_floor)
            report_path = out / "report.json"
            report_path.write_text(dumps_canonical(eval_report.to_dict()))
            manifest.outputs[str(report_path)] = sha256_file(report_path)

    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")

    return RunResult(
        dialogue=dialogue,
        kb=kb,
        sextuplets=sextuplets,
        graph=graph,
        report=eval_report,
        manifest=manifest,
        out_dir=out,
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
