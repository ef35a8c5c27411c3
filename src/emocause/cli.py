"""Command-line interface exposing each pipeline stage as a subcommand.

Exit codes: 0 success; 1 validation or evaluation failure; 2 usage error,
such as a path that cannot be read or written (any OSError); 3 provider or
transport error; 4 file-format error. A remote provider's missing endpoint,
refused or timed-out connection, HTTP 429 or 5xx still failing after the
transport's retries, or any other non-200 status exits 3; a 200 whose body
is not JSON exits 4, as do a reply nested deeper than json's recursion
limit, a reply without its fields, an embedding reply whose row count is
not the number of texts sent, a dialogue file with no dialogue, and a JSON
input file that does not decode: one that is not UTF-8, is malformed, nests
too deeply or holds a number JSON cannot read (the message names the file);
an embedding of the wrong dimension exits 3. A graph JSON is the sextuplets
document plus vertices and edges, and a native gold file that document plus
causal_links; one without any of these keys exits 4. So do a dialogue file
that holds one dialogue id twice, a dialogue file of two or more dialogues
given to run, extract or retrieve, a .cmkb whose window_size or stride
build_windows refuses or whose text_dim is below 1 or emotion_dim not 8,
and extract or retrieve with a KB indexed from other utterances under the
dialogue's id (extraction.dialogue_rows). The same id in two files given to
index is a usage error (exit 2); a reader that closes stdout early leaves
the command's exit status as it is. A dialogue file is a JSON document, a
JSON array of dialogues or JSONL (one per line); validate reports on each
of its dialogues and index reads them all.
Scoring flags map one-to-one onto ScoringConfig fields; flags override the
--config file, which overrides the built-in defaults. Every manifest the
subcommands write has the one format described in pipeline.RunManifest.
A remote provider's calls overlap on transport.REMOTE_WORKERS threads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
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
from .extraction import dialogue_rows, extractor_from_spec
from .embedding import provider_from_spec
from .graph import graph_from_json, nli_from_spec
from .ingest import parse_corpus, read_corpus, read_dialogue
from .kb import index_corpus, read_kb, retrieve, write_kb
from .metrics import gold_to_dict, load_gold, match_gold, render_report_text
from .model import (
    ScoringConfig,
    dialogue_to_dict,
    dumps_canonical,
    loads_json,
    read_input,
    scoring_config_from_dict,
    sextuplets_from_dict,
    validate_dialogue,
)
from .pipeline import RunManifest, describe_run, eval_stage, extract_stage, graph_stage, run_pipeline
from .synth import ChainSpec, generate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_PROVIDER = 3
EXIT_FORMAT = 4

_ONE_DIALOGUE = "dialogue file of one dialogue: a JSON document, a one-element array or one JSONL line"

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
    if names is None or "normalize_scores" in names:
        parser.add_argument("--raw-scores", action="store_true", default=None,
                            help="keep components in their raw ranges (ScoringConfig.normalize_scores=False)")
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


def _cmd_validate(args) -> tuple[int, list[str]]:
    dialogues = read_input(args.dialogue, parse_corpus)
    lines, errors, warnings = [], 0, 0
    for dialogue in dialogues:
        report = validate_dialogue(dialogue)
        prefix = f"{dialogue.id}: " if len(dialogues) > 1 else ""
        lines += (f"{prefix}{issue.severity.upper():7s} {issue.location}: {issue.message}"
                  for issue in report.issues)
        errors, warnings = errors + len(report.errors), warnings + len(report.warnings)
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return EXIT_VALIDATION if errors else EXIT_OK, lines


def _cmd_index(args) -> tuple[int, list[str]]:
    cfg = _resolve_config(args)
    provider = provider_from_spec(args.embedder)
    manifest = RunManifest(cfg, {"embedder": provider.id})
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
    return EXIT_OK, [f"indexed {kb.meta.entry_count} windows from {len(dialogues)} dialogue(s) -> {args.out}"]


def _cmd_retrieve(args) -> tuple[int, list[str]]:
    kb = read_kb(args.kb)
    dialogue = read_dialogue(args.dialogue)
    rows = dialogue_rows(kb, dialogue)
    if not 0 <= args.window < len(rows):
        raise SchemaError(
            "window", f"window {args.window} of dialogue {dialogue.id!r} is not in the index"
        )
    query = rows[args.window]
    hits = retrieve(kb.windows[query], kb.vectors[query], kb, args.top_n)
    lines = []
    for rank, hit in enumerate(hits, start=1):
        w = hit.window
        lines.append(f"#{rank} similarity={hit.similarity:.4f} "
                     f"dialogue={w.dialogue_id} window={w.window_index} "
                     f"utterances=[{w.start_index}..{w.end_index}]")
        lines += (f"    {line}" for line in w.text.splitlines())
    return EXIT_OK, lines


def _cmd_extract(args) -> tuple[int, list[str]]:
    cfg = _resolve_config(args)
    provider = extractor_from_spec(args.provider)
    manifest = RunManifest(cfg, {"extractor": provider.id})
    manifest.add_input(args.kb)
    manifest.add_input(args.dialogue)
    with manifest.stage("validate"):
        kb = read_kb(args.kb)
        dialogue = read_dialogue(args.dialogue, strict=args.strict)
    # the windows are the KB's, whatever window settings the config holds
    manifest.config = replace(cfg, window_size=kb.meta.window_size, stride=kb.meta.stride)
    sextuplets = extract_stage(manifest, dialogue, kb, provider, cfg, args.out)
    manifest.write(f"{args.out}.manifest.json")
    return EXIT_OK, [f"extracted {len(sextuplets)} sextuplet(s) -> {args.out}"]


def _cmd_graph(args) -> tuple[int, list[str]]:
    cfg = _resolve_config(args)
    embedder = provider_from_spec(args.embedder)
    nli = nli_from_spec(args.nli)
    manifest = RunManifest(cfg, {"embedder": embedder.id, "nli": nli.id})
    manifest.add_input(args.sextuplets)
    with manifest.stage("validate"):
        dialogue_id, sextuplets = sextuplets_from_dict(read_input(args.sextuplets, loads_json))
    graph = graph_stage(manifest, dialogue_id, sextuplets, cfg, embedder, nli, args.out)
    manifest.write(f"{args.out}.manifest.json")
    return EXIT_OK, [f"graph for {dialogue_id}: {len(graph.vertices)} vertices, "
                     f"{len(graph.edges)} edges -> {args.out}"]


def _cmd_eval(args) -> tuple[int, list[str]]:
    cfg = _resolve_config(args)
    manifest = RunManifest(cfg, {})
    manifest.add_input(args.predicted)
    manifest.add_input(args.gold)
    with manifest.stage("validate"):
        graph, sextuplets, dialogue_id = read_input(args.predicted, graph_from_json)
        gold = read_input(args.gold, lambda data: match_gold(load_gold(data), dialogue_id))
    report = eval_stage(manifest, graph, sextuplets, gold, cfg, args.out)
    if args.out:
        manifest.write(f"{args.out}.manifest.json")
    return EXIT_OK, [render_report_text(report)]


def _cmd_gen(args) -> tuple[int, list[str]]:
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
    return EXIT_OK, [f"wrote {dialogue_path} ({dialogue.n} utterances) and "
                     f"{gold_path} ({len(gold.sextuplets)} sextuplets, {len(gold.causal_links)} links)"]


def _cmd_run(args) -> tuple[int, list[str]]:
    cfg = _resolve_config(args)
    result = run_pipeline(
        args.dialogue,
        args.out_dir,
        cfg,
        gold_path=args.gold,
        embedder=args.embedder,
        extractor=args.provider,
        nli=args.nli,
        strict=args.strict,
    )
    return EXIT_OK, [describe_run(result)]


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emocause",
        description="Emotional-causality extraction pipeline over long dialogues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check each dialogue of a dialogue file against every invariant")
    p.add_argument("dialogue", help="dialogue file: one JSON document, a JSON array or JSONL")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("index", help="build and persist the sliding-window knowledge base")
    p.add_argument("dialogues", nargs="+", help="dialogue files: one JSON document, a JSON array or JSONL")
    p.add_argument("--out", required=True, help="output .cmkb file")
    p.add_argument("--embedder", default="hash:64:0",
                   help="hash:<dim>:<seed> or remote:<model>:<dim>")
    p.add_argument("--strict", action="store_true", help="treat ingest warnings as errors")
    _add_config_flags(p, {"window_size", "stride", "rate_scale"})
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("retrieve", help="print the most similar windows for a query window")
    p.add_argument("--kb", required=True, help=".cmkb file")
    p.add_argument("--dialogue", required=True,
                   help=f"{_ONE_DIALOGUE}; its windows in the KB are checked against it")
    p.add_argument("--window", required=True, type=int, help="query window index")
    p.add_argument("--top-n", type=int, default=ScoringConfig.top_n, help="result depth (ScoringConfig.top_n)")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("extract", help="extract sextuplets with retrieval-augmented prompts")
    p.add_argument("--kb", required=True, help=".cmkb file containing the dialogue's windows")
    p.add_argument("--dialogue", required=True, help=_ONE_DIALOGUE)
    p.add_argument("--provider", default="mock", help="mock or remote:<model>")
    p.add_argument("--out", required=True, help="output sextuplets JSON file")
    p.add_argument("--strict", action="store_true", help="treat ingest warnings as errors")
    _add_config_flags(p, {"top_n"})
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("graph", help="score event pairs and build the causal graph")
    p.add_argument("--sextuplets", required=True, help="sextuplets JSON file")
    p.add_argument("--out", required=True, help="output graph file (.json or .dot)")
    p.add_argument("--embedder", default="hash:64:0")
    p.add_argument("--nli", default="overlap", help="overlap or remote")
    _add_config_flags(p, {"alpha", "beta", "gamma", "tau", "edge_threshold", "max_gap", "normalize_scores"})
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
    p.add_argument("--dialogue", required=True, help=_ONE_DIALOGUE)
    p.add_argument("--gold", default=None, help="optional gold file for evaluation")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--provider", default="mock", help="extractor: mock or remote:<model>")
    p.add_argument("--embedder", default="hash:64:0")
    p.add_argument("--nli", default="overlap")
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
        code, lines = args.func(args)  # each command's output is printed here, once it has its status
        try:
            sys.stdout.writelines(f"{line}\n" for line in lines)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped early: the status stands, the last flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    return code


if __name__ == "__main__":
    sys.exit(main())
