"""In-memory spans and counters recorded around calls into emocause.

The benchmark never edits the package. It records a span around each
call into a layer in one of two ways:

* provider objects it passes in (embedder, extractor, NLI) are wrapped;
* module-level call sites that the package resolves by global name at
  call time (``emocause.kb.window_embedding``, ``emocause.extraction.retrieve``
  and so on) are replaced for the duration of a traced pass and restored
  afterwards.

Spans are (name, trace id, start, end, parent) tuples kept in a list and
written out once, when the benchmark ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import emocause.embedding as embedding
import emocause.extraction as extraction
import emocause.graph as graph
import emocause.ingest as ingest
import emocause.kb as kb
import emocause.pipeline as pipeline

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters of one traced run; single-threaded (jobs=1)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.trace_id = ""
        self._stack: list[int] = []
        # Layer-local state read by hooks (distinct texts and NLI pairs).
        self.embedded_texts: set[str] = set()
        self.nli_pairs: set[tuple[str, str]] = set()
        self.graph_inputs: list[tuple[list, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span; `before(args)` runs before the clock
        starts and `after(args, result)` after it stops."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, self.trace_id, t0, t1, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def times(self, first: int = 0, last: int | None = None) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, call count) per span name over
        spans[first:last]."""
        chosen = self.spans[first:last]
        child = defaultdict(float)
        for name, _, t0, t1, parent in chosen:
            if parent >= first:
                child[parent] += t1 - t0
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, _, t0, t1, _) in enumerate(chosen, start=first):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path: Path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        traces = sorted({s[1] for s in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        trace_ix = {t: i for i, t in enumerate(traces)}
        doc = {
            **extra,
            "columns": ["name", "trace", "start_s", "end_s", "parent"],
            "names": names,
            "traces": traces,
            "spans": [
                [name_ix[n], trace_ix[t], round(t0, 9), round(t1, 9), p]
                for n, t, t0, t1, p in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Provider wrappers
# ---------------------------------------------------------------------------


def facade(inner, **methods) -> SimpleNamespace:
    """A provider object with `inner`'s id, mode and dim and the given methods."""
    attrs = {k: getattr(inner, k) for k in ("id", "mode", "dim") if hasattr(inner, k)}
    return SimpleNamespace(**attrs, **methods)


def traced_providers(embedder, extractor, nli, tracer: Tracer) -> tuple:
    """The three providers with a span around every call, plus the counters
    only a provider boundary can see: distinct texts, prompt bytes, NLI pairs."""
    c = tracer.counters

    def prompt_bytes(args):
        c["extraction.prompt_bytes"] += len(args[0].encode("utf-8"))

    return (
        facade(embedder, embed=tracer.wrap(
            "embedding.provider", embedder.embed, before=lambda a: tracer.embedded_texts.add(a[0]))),
        facade(extractor, complete=tracer.wrap(
            "extraction.provider", extractor.complete, before=prompt_bytes)),
        facade(nli, entailment_probability=tracer.wrap(
            "graph.nli", nli.entailment_probability, before=tracer.nli_pairs.add)),
    )


class CallCounter:
    """Calls into the provider objects and characters passed to them, for
    untraced passes: integer adds only, no clock reads."""

    def __init__(self) -> None:
        self.calls = 0
        self.chars = 0

    def _counted(self, fn):
        def counted(*texts):
            self.calls += 1
            self.chars += sum(map(len, texts))
            return fn(*texts)

        return counted

    def providers(self, embedder, extractor, nli) -> tuple:
        return (
            facade(embedder, embed=self._counted(embedder.embed)),
            facade(extractor, complete=self._counted(extractor.complete)),
            facade(nli, entailment_probability=self._counted(nli.entailment_probability)),
        )


# ---------------------------------------------------------------------------
# Call-site patches
# ---------------------------------------------------------------------------


def _call_sites(tracer: Tracer) -> list[tuple[object, str, str, object, object]]:
    """(owner, attribute, span name, before hook, after hook) for every call
    site the traced pass replaces."""
    c = tracer.counters

    def windows_built(args, result):
        c["kb.windows"] += len(result)

    def scanned(args, result):
        c["kb.entries_scanned"] += args[2].meta.entry_count

    def parsed(args, result):
        c["extraction.elements_rejected"] += len(result[1])

    def deduped(args, result):
        c["extraction.sextuplets_raw"] += len(args[0])
        c["extraction.sextuplets_kept"] += len(result)

    def graph_start(args):
        tracer.nli_pairs.clear()

    def graph_done(args, result):
        c["graph.nli_distinct_pairs"] += len(tracer.nli_pairs)
        c["graph.edges_kept"] += len(result.edges)
        tracer.graph_inputs.append((list(args[0]), args[1]))

    def kb_written(args, result):
        c["kb.file_bytes"] += Path(args[1]).stat().st_size

    return [
        (pipeline, "read_dialogue", "ingest.read_dialogue", None, None),
        (ingest, "validate_dialogue", "model.validate", None, None),
        (pipeline, "validate_dialogue", "model.validate", None, None),
        (pipeline, "index_dialogue", "kb.index", None, None),
        (kb, "build_windows", "kb.build_windows", None, windows_built),
        (kb, "window_embedding", "embedding.window_embedding", None, None),
        (embedding, "embed_text", "embedding.embed_text", None, None),
        (embedding, "fuse", "embedding.fuse", None, None),
        (pipeline, "write_kb", "kb.save", None, kb_written),
        (pipeline, "extract_dialogue", "extraction.extract_dialogue", None, None),
        (extraction, "retrieve", "kb.retrieve", None, scanned),
        (extraction, "assemble_prompt", "extraction.assemble", None, None),
        (extraction.ExtractionPrompt, "render", "extraction.render", None, None),
        (extraction, "extract_sextuplets", "extraction.extract_sextuplets", None, None),
        (extraction, "parse_provider_response", "extraction.parse", None, parsed),
        (extraction, "dedup_sextuplets", "extraction.dedup", None, deduped),
        (pipeline, "build_graph", "graph.build", graph_start, graph_done),
        (graph, "embed_text", "graph.embed_text", None, None),
        (pipeline, "export_graph", "graph.export", None, None),
        (pipeline, "evaluate", "metrics.evaluate", None, None),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Replace every traced call site for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, before, after in _call_sites(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def direct_calls(tracer: Tracer | None) -> dict:
    """Functions the corpus workload calls itself, traced under the same span
    names (and counter hooks) as the pipeline's call sites when a tracer is given."""
    from emocause.graph import build_graph, export_graph
    from emocause.metrics import evaluate_many, load_gold

    fns = {
        "read_corpus": ("ingest.read_corpus", ingest.read_corpus),
        "index_corpus": ("kb.index", kb.index_corpus),
        "write_kb": ("kb.save", kb.write_kb),
        "read_kb": ("kb.load", kb.read_kb),
        "extract_dialogue": ("extraction.extract_dialogue", extraction.extract_dialogue),
        "build_graph": ("graph.build", build_graph),
        "export_graph": ("graph.export", export_graph),
        "load_gold": ("metrics.load_gold", load_gold),
        "evaluate_many": ("metrics.evaluate", evaluate_many),
    }
    if tracer is None:
        return {key: fn for key, (_, fn) in fns.items()}
    hooks = {attr: (before, after) for owner, attr, _, before, after in _call_sites(tracer)
             if owner is pipeline}
    return {
        key: tracer.wrap(name, fn, *hooks.get(key, (None, None)))
        for key, (name, fn) in fns.items()
    }
