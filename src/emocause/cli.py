"""Command-line interface exposing each pipeline stage as a subcommand.

Exit codes: 0 success; 1 validation or evaluation failure; 2 usage error,
such as a path that cannot be read or written (any OSError); 3 provider or
transport error; 4 file-format error. A remote provider's missing endpoint,
refused or timed-out connection, HTTP 429 or 5xx still failing after the
transport's retries, or any other non-200 status exits 3; a 200 whose body
is not JSON exits 4, as do a reply nested deeper than json's recursion
limit, a reply without its fields, an embedding reply whose row count is
not the number of texts sent, and a JSON input file that does not decode:
one that is not UTF-8, is malformed, nests too deeply or holds a number
JSON cannot read (the message names the file); an embedding of the wrong
dimension exits 3.
Scoring flags map one-to-one onto ScoringConfig fields; flags override the
--config file, which overrides the built-in defaults. Every manifest the
subcommands write has the one format described in pipeline.RunManifest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    DialogueParseError,
    EmbeddingError,
    InvalidDialogueError,
    ResponseParseError,
    SchemaError,
    StoreFormatError,
    StrictModeError,
    TransportError,
)
from .extraction import extract_dialogue, extractor_from_spec
from .embedding import provider_from_spec
from .graph import build_graph, export_graph, graph_from_json, nli_from_spec
from .ingest import load_raw_dialogue, read_corpus, read_dialogue
from .kb import index_corpus, read_kb, retrieve, write_kb
from .metrics import evaluate, gold_to_dict, load_gold, match_gold, render_report_text
from .model import (
    ScoringConfig,
    dialogue_to_dict,
    dumps_canonical,
    loads_json,
    read_input,
    scoring_config_from_dict,
    scoring_config_to_dict,
    sextuplets_from_dict,
    sextuplets_to_dict,
    validate_dialogue,
)
from .pipeline import RunManifest, describe_run, run_pipeline
from .synth import ChainSpec, generate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_PROVIDER = 3
EXIT_FORMAT = 4

_CONFIG_FLAGS = (
    # (flag, config field, type, help)
    ("--alpha", "alpha", float, "semantic component weight (ScoringConfig.alpha)"),
    ("--beta", "beta", float, "temporal component weight (ScoringConfig.beta)"),
    ("--gamma", "gamma", float, "rationale component weight (ScoringConfig.gamma)"),
    ("--tau", "tau", float, "temporal decay constant in seconds (ScoringConfig.tau)"),
    ("--threshold", "edge_threshold", float, "edge inclusion threshold (ScoringConfig.edge_threshold)"),
    ("--top-n", "top_n", int, "retrieval depth (ScoringConfig.top_n)"),
    ("--window-size", "window_size", int, "utterances per window (ScoringConfig.window_size)"),
    ("--stride", "stride", int, "window step (ScoringConfig.stride)"),
    ("--rate-scale", "rate_scale", float, "speech-rate divisor before fusion (ScoringConfig.rate_scale)"),
    ("--max-gap", "max_gap", float, "largest scored gap in seconds, default 10*tau (ScoringConfig.max_gap)"),
    ("--consistency-floor", "consistency_floor", float,
     "semantic floor for consistent edges (ScoringConfig.consistency_floor)"),
)


def _add_config_flags(parser: argparse.ArgumentParser, names: set[str] | None = None) -> None:
    for flag, dest, typ, help_text in _CONFIG_FLAGS:
        if names is None or dest in names:
            parser.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)
    parser.add_argument(
        "--raw-scores",
        action="store_true",
        default=None,
        help="keep components in their raw ranges (ScoringConfig.normalize_scores=False)",
    )
    parser.add_argument("--config", default=None, help="JSON file of ScoringConfig fields")


def _resolve_config(args: argparse.Namespace) -> ScoringConfig:
    """Defaults, overridden by --config file values, overridden by flags."""
    base: dict = {}
    if getattr(args, "config", None):
        base = read_input(args.config, loads_json)
        if not isinstance(base, dict):
            raise ConfigError("config file must hold a flat JSON object")
    for _, dest, _, _ in _CONFIG_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            base[dest] = value
    if getattr(args, "raw_scores", None):
        base["normalize_scores"] = False
    return scoring_config_from_dict(base)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    dialogue = read_input(args.dialogue, load_raw_dialogue)
    report = validate_dialogue(dialogue)
    for issue in report.issues:
        print(f"{issue.severity.upper():7s} {issue.location}: {issue.message}")
    print(f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_index(args) -> int:
    cfg = _resolve_config(args)
    provider = provider_from_spec(args.embedder)
    manifest = RunManifest(scoring_config_to_dict(cfg), {"embedder": provider.id})
    for path in args.dialogues:
        manifest.add_input(path)
    with manifest.stage("validate"):
        dialogues = [d for path in args.dialogues
                     for d in read_corpus(path, strict=args.strict)]
    with manifest.stage("index"):
        kb = index_corpus(
            dialogues,
            provider,
            window_size=cfg.window_size,
            stride=cfg.stride,
            rate_scale=cfg.rate_scale,
        )
        write_kb(kb, args.out)
        manifest.add_output(args.out)
    manifest.write(f"{args.out}.manifest.json")
    print(f"indexed {kb.meta.entry_count} windows from {len(dialogues)} dialogue(s) -> {args.out}")
    return EXIT_OK


def _dialogue_id_from_arg(value: str) -> str:
    if Path(value).exists():
        return read_input(value, load_raw_dialogue).id
    return value


def _cmd_retrieve(args) -> int:
    kb = read_kb(args.kb)
    dialogue_id = _dialogue_id_from_arg(args.dialogue)
    query = next(
        ((w, v) for w, v in zip(kb.windows, kb.vectors)
         if w.dialogue_id == dialogue_id and w.window_index == args.window),
        None,
    )
    if query is None:
        raise SchemaError(
            "window", f"window {args.window} of dialogue {dialogue_id!r} is not in the index"
        )
    hits = retrieve(*query, kb, args.top_n)
    for rank, hit in enumerate(hits, start=1):
        w = hit.window
        print(f"#{rank} similarity={hit.similarity:.4f} "
              f"dialogue={w.dialogue_id} window={w.window_index} "
              f"utterances=[{w.start_index}..{w.end_index}]")
        for line in w.text.splitlines():
            print(f"    {line}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    cfg = _resolve_config(args)
    provider = extractor_from_spec(args.provider)
    manifest = RunManifest(scoring_config_to_dict(cfg), {"extractor": provider.id})
    manifest.add_input(args.kb)
    manifest.add_input(args.dialogue)
    with manifest.stage("validate"):
        kb = read_kb(args.kb)
        dialogue = read_dialogue(args.dialogue, strict=args.strict)
    with manifest.stage("extract") as stage:
        prompts = hashlib.sha256()
        sextuplets = extract_dialogue(dialogue, kb, provider, cfg, jobs=args.jobs, prompt_hash=prompts)
        stage["prompt_sha256"] = prompts.hexdigest()
        Path(args.out).write_text(dumps_canonical(sextuplets_to_dict(dialogue.id, sextuplets)))
        manifest.add_output(args.out)
    manifest.write(f"{args.out}.manifest.json")
    print(f"extracted {len(sextuplets)} sextuplet(s) -> {args.out}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    cfg = _resolve_config(args)
    embedder = provider_from_spec(args.embedder)
    nli = nli_from_spec(args.nli)
    manifest = RunManifest(scoring_config_to_dict(cfg), {"embedder": embedder.id, "nli": nli.id})
    manifest.add_input(args.sextuplets)
    with manifest.stage("graph"):
        dialogue_id, sextuplets = sextuplets_from_dict(read_input(args.sextuplets, loads_json))
        graph = build_graph(sextuplets, cfg, embedder, nli, jobs=args.jobs)
        fmt = "dot" if args.out.endswith(".dot") else "json"
        Path(args.out).write_bytes(
            export_graph(graph, fmt, sextuplets if fmt == "json" else None,
                         dialogue_id if fmt == "json" else None)
        )
        manifest.add_output(args.out)
    manifest.write(f"{args.out}.manifest.json")
    print(f"graph for {dialogue_id}: {len(graph.vertices)} vertices, "
          f"{len(graph.edges)} edges -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    manifest = RunManifest(scoring_config_to_dict(cfg), {})
    manifest.add_input(args.predicted)
    manifest.add_input(args.gold)
    with manifest.stage("eval"):
        graph, sextuplets, dialogue_id = read_input(args.predicted, graph_from_json)
        if sextuplets is None:
            raise SchemaError(
                "sextuplets",
                "predicted graph JSON must embed its sextuplets (export with the graph subcommand)",
            )
        gold = match_gold(read_input(args.gold, load_gold), dialogue_id)
        report = evaluate(graph, sextuplets, gold, consistency_floor=cfg.consistency_floor)
        if args.out:
            Path(args.out).write_text(dumps_canonical(report.to_dict()))
            manifest.add_output(args.out)
    print(render_report_text(report))
    if args.out:
        manifest.write(f"{args.out}.manifest.json")
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = ChainSpec(
        seed=args.seed,
        scenario=args.scenario,
        turns=args.turns,
        chain_length=args.chain_length,
        noise_rate=args.noise,
        speakers=args.speakers,
    )
    manifest = RunManifest(None, {"generator": f"chain:{args.seed}"})
    dialogue_path = Path(f"{args.out_prefix}.dialogue.json")
    gold_path = Path(f"{args.out_prefix}.gold.json")
    with manifest.stage("gen"):
        dialogue, gold = generate(spec)
        dialogue_path.write_text(dumps_canonical(dialogue_to_dict(dialogue)))
        gold_path.write_text(dumps_canonical(gold_to_dict(gold)))
        manifest.add_output(dialogue_path)
        manifest.add_output(gold_path)
    manifest.write(f"{dialogue_path}.manifest.json")
    print(f"wrote {dialogue_path} ({dialogue.n} utterances) and "
          f"{gold_path} ({len(gold.sextuplets)} sextuplets, {len(gold.causal_links)} links)")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    result = run_pipeline(
        args.dialogue,
        args.out_dir,
        cfg,
        gold_path=args.gold,
        embedder=args.embedder,
        extractor=args.provider,
        nli=args.nli,
        jobs=args.jobs,
        strict=args.strict,
    )
    print(describe_run(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emocause",
        description="Emotional-causality extraction pipeline over long dialogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dialogue file against every invariant")
    p.add_argument("dialogue", help="dialogue JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("index", help="build and persist the sliding-window knowledge base")
    p.add_argument("dialogues", nargs="+", help="dialogue .json / .jsonl files")
    p.add_argument("--out", required=True, help="output .cmkb file")
    p.add_argument("--embedder", default="hash:64:0",
                   help="hash:<dim>:<seed> or remote:<model>:<dim>")
    p.add_argument("--strict", action="store_true", help="treat ingest warnings as errors")
    _add_config_flags(p, {"window_size", "stride", "rate_scale"})
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("retrieve", help="print the most similar windows for a query window")
    p.add_argument("--kb", required=True, help=".cmkb file")
    p.add_argument("--dialogue", required=True, help="dialogue file or dialogue id")
    p.add_argument("--window", required=True, type=int, help="query window index")
    p.add_argument("--top-n", type=int, default=3, help="result depth (ScoringConfig.top_n)")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("extract", help="extract sextuplets with retrieval-augmented prompts")
    p.add_argument("--kb", required=True, help=".cmkb file containing the dialogue's windows")
    p.add_argument("--dialogue", required=True, help="dialogue JSON file")
    p.add_argument("--provider", default="mock", help="mock or remote:<model>")
    p.add_argument("--out", required=True, help="output sextuplets JSON file")
    p.add_argument("--jobs", type=int, default=1, help="threads for window calls; remote calls always overlap")
    p.add_argument("--strict", action="store_true", help="treat ingest warnings as errors")
    _add_config_flags(p, {"top_n"})
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("graph", help="score event pairs and build the causal graph")
    p.add_argument("--sextuplets", required=True, help="sextuplets JSON file")
    p.add_argument("--out", required=True, help="output graph file (.json or .dot)")
    p.add_argument("--embedder", default="hash:64:0")
    p.add_argument("--nli", default="overlap", help="overlap or remote")
    p.add_argument("--jobs", type=int, default=1, help="threads for NLI calls; remote calls always overlap")
    _add_config_flags(p, {"alpha", "beta", "gamma", "tau", "edge_threshold", "max_gap"})
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("eval", help="score a predicted graph against gold annotations")
    p.add_argument("--predicted", required=True, help="graph JSON (with embedded sextuplets)")
    p.add_argument("--gold", required=True, help="gold file (native or triplet schema)")
    p.add_argument("--out", default=None, help="optional report JSON output")
    _add_config_flags(p, {"consistency_floor"})
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic dialogue with a planted causal chain")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--turns", type=int, default=80)
    p.add_argument("--chain-length", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--scenario", default="customer_service")
    p.add_argument("--speakers", type=int, default=4)
    p.add_argument("--out-prefix", required=True, help="writes <prefix>.dialogue.json and <prefix>.gold.json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run every stage and emit a manifest")
    p.add_argument("--dialogue", required=True, help="dialogue JSON file")
    p.add_argument("--gold", default=None, help="optional gold file for evaluation")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--provider", default="mock", help="extractor: mock or remote:<model>")
    p.add_argument("--embedder", default="hash:64:0")
    p.add_argument("--nli", default="overlap")
    p.add_argument("--jobs", type=int, default=1, help="threads for provider calls; remote ones overlap")
    p.add_argument("--strict", action="store_true", help="treat ingest warnings as errors")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_run)

    return parser


_EXIT_CODES = (
    ((SchemaError, DialogueParseError, StoreFormatError, ResponseParseError), EXIT_FORMAT),
    ((ConfigError, ValueError, OSError), EXIT_USAGE),
    ((InvalidDialogueError, StrictModeError), EXIT_VALIDATION),
    ((TransportError, EmbeddingError), EXIT_PROVIDER),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
