"""End-to-end batch pipeline: validate, index, extract, score, evaluate.

Every stage writes a plain inspectable file and records its digest in the
run manifest; with deterministic providers, identical inputs and config
produce byte-identical output files regardless of worker count.
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
from .extraction import (
    ExtractorProvider,
    extract_dialogue,
    extractor_from_spec,
    sextuplets_to_dict,
)
from .graph import CausalGraph, NliProvider, build_graph, export_graph, nli_from_spec
from .ingest import read_dialogue
from .kb import KnowledgeBase, index_dialogue, write_kb
from .metrics import EvalReport, evaluate, load_gold, match_gold, render_report_text
from .model import (  # validate_dialogue: benchmarks/tracing.py patches pipeline.validate_dialogue
    Dialogue,
    ScoringConfig,
    Sextuplet,
    dumps_canonical,
    read_input,
    scoring_config_to_dict,
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
    order, named validate, index, extract, graph, eval, or gen). The extract
    stage also holds `prompt_sha256`, the digest of every rendered
    extraction prompt in window order (extract_dialogue's prompt_hash)."""

    config: dict | None
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


@dataclass
class RunResult:
    dialogue: Dialogue
    kb: KnowledgeBase
    sextuplets: list[Sextuplet]
    graph: CausalGraph
    report: EvalReport | None
    manifest: RunManifest
    out_dir: Path


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
    manifest.add_input(dialogue_path)
    if gold_path is not None:
        manifest.add_input(gold_path)

    with manifest.stage("validate"):
        dialogue = read_dialogue(dialogue_path, strict=strict)
        gold = None
        if gold_path is not None:
            gold = match_gold(read_input(gold_path, load_gold), dialogue.id)
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

    with manifest.stage("extract") as stage:
        prompts = hashlib.sha256()
        sextuplets = extract_dialogue(dialogue, kb, extractor, cfg, jobs=jobs, prompt_hash=prompts)
        stage["prompt_sha256"] = prompts.hexdigest()
        sext_path = out / "sextuplets.json"
        sext_path.write_text(dumps_canonical(sextuplets_to_dict(dialogue.id, sextuplets)))
        manifest.add_output(sext_path)

    with manifest.stage("graph"):
        graph = build_graph(sextuplets, cfg, embedder, nli, jobs=jobs)
        graph_path = out / "graph.json"
        graph_path.write_bytes(export_graph(graph, "json", sextuplets, dialogue.id))
        manifest.add_output(graph_path)

    eval_report = None
    if gold is not None:
        with manifest.stage("eval"):
            eval_report = evaluate(graph, sextuplets, gold, consistency_floor=cfg.consistency_floor)
            report_path = out / "report.json"
            report_path.write_text(dumps_canonical(eval_report.to_dict()))
            manifest.add_output(report_path)

    manifest.write(out / "manifest.json")

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
