"""Evaluation of predicted causal graphs and sextuplets against gold annotations.

Link matching is content-based: a predicted edge matches a gold link when
both endpoints agree on case-folded (holder, target, aspect) and the
direction agrees. Span and pair metrics are exact-match micro-F1 in the
usual aspect-sentiment-evaluation style.

Empty graphs: with no predicted link, causal correctness is 1.0 when the
gold has no link either and 0.0 otherwise, and causal consistency is 1.0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache
from typing import Mapping, Sequence

from .errors import SchemaError
from .graph import CausalEdge, CausalGraph
from .model import (
    ScoringConfig,
    Sextuplet,
    _as_list,
    _as_obj,
    _as_str,
    _need,
    loads_json,
    sextuplets_from_dict,
    sextuplets_to_dict,
)

SPAN_ELEMENTS = ("holder", "target", "aspect", "opinion", "rationale", "sentiment")
PAIR_KEYS = ("T-A", "T-O", "A-O")
# The Sextuplet fields each span or pair metric compares, case-folded.
_COMPARED_FIELDS = {
    **{element: (element,) for element in SPAN_ELEMENTS[:-1]},
    "sentiment": ("sentiment_label",),
    "T-A": ("target", "aspect"), "T-O": ("target", "opinion"), "A-O": ("aspect", "opinion"),
}

DEFAULT_CONSISTENCY_FLOOR = ScoringConfig.consistency_floor


@dataclass(frozen=True)
class GoldAnnotation:
    """Reference sextuplets and directed causal links for one dialogue;
    `triplet_schema` marks a document of a triplet-schema file, whose doc_id
    comes from the external corpus."""

    dialogue_id: str
    sextuplets: tuple[Sextuplet, ...]
    causal_links: tuple[tuple[str, str], ...]
    triplet_schema: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sextuplets", tuple(self.sextuplets))
        object.__setattr__(self, "causal_links", tuple((c, e) for c, e in self.causal_links))
        known = {s.id for s in self.sextuplets}
        for cause, effect in self.causal_links:
            if cause not in known or effect not in known:
                raise SchemaError(
                    "causal_links", f"link ({cause!r}, {effect!r}) references an unknown sextuplet id"
                )


@dataclass
class EvalReport:
    """All causal and span/pair metrics for one dialogue or a merged corpus."""

    causal_correctness: float
    causal_consistency: float
    causal_chain_score: float
    span_f1: dict[str, float]
    pair_f1: dict[str, float]
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Link matching and causal metrics
# ---------------------------------------------------------------------------


def match_links(
    predicted: CausalGraph,
    predicted_sextuplets: Sequence[Sextuplet],
    gold: GoldAnnotation,
) -> list[tuple[CausalEdge, tuple[str, str] | None]]:
    """Pair each predicted edge with at most one gold link.

    Greedy by descending predicted weight, ties broken by canonical edge
    order; each edge takes the first unmatched gold link, in gold order,
    whose endpoints share its content key.
    """
    pred_by_id = {s.id: s for s in predicted_sextuplets}
    gold_by_id = {s.id: s for s in gold.sextuplets}
    unmatched: dict[tuple, list[tuple[str, str]]] = {}
    for cause_id, effect_id in gold.causal_links:
        key = (gold_by_id[cause_id].match_key(), gold_by_id[effect_id].match_key())
        unmatched.setdefault(key, []).append((cause_id, effect_id))

    ordered = sorted(
        enumerate(predicted.edges),
        key=lambda pair: (-pair[1].weight, pair[1].cause_id, pair[1].effect_id, pair[0]),
    )
    outcome: list[tuple[str, str] | None] = [None] * len(predicted.edges)
    for i, edge in ordered:
        cause, effect = pred_by_id.get(edge.cause_id), pred_by_id.get(edge.effect_id)
        if cause is not None and effect is not None:
            links = unmatched.get((cause.match_key(), effect.match_key()))
            if links:
                outcome[i] = links.pop(0)
    return list(zip(predicted.edges, outcome))


def _causal_ratios(correct: int, consistent: int, predicted: int, gold: int) -> tuple[float, float]:
    """(correctness, consistency) under the empty-graph rules of the module docstring."""
    if not predicted:
        return (0.0 if gold else 1.0), 1.0
    return correct / predicted, consistent / predicted


def causal_correctness(
    predicted: CausalGraph,
    predicted_sextuplets: Sequence[Sextuplet],
    gold: GoldAnnotation,
) -> float:
    """Matched predicted links over total predicted links."""
    matched = sum(1 for _, link in match_links(predicted, predicted_sextuplets, gold) if link)
    return _causal_ratios(matched, 0, len(predicted.edges), len(gold.causal_links))[0]


def consistent_edges(
    predicted: CausalGraph, *, floor: float = DEFAULT_CONSISTENCY_FLOOR
) -> list[bool]:
    """Per-edge coherence flags: precedence holds, the edge lies on no
    directed cycle, and its semantic component clears the floor.

    An edge u -> v lies on a cycle exactly when u is reachable from v, so
    every self-loop does."""
    successors: dict[str, list[str]] = {}
    for e in predicted.edges:
        successors.setdefault(e.cause_id, []).append(e.effect_id)

    @cache
    def reach(start: str) -> set[str]:
        seen, stack = {start}, [start]
        while stack:
            for nxt in successors.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    return [
        e.delta_t >= 0.0 and e.cause_id not in reach(e.effect_id) and e.semantic_score >= floor
        for e in predicted.edges
    ]


def causal_consistency(
    predicted: CausalGraph, *, floor: float = DEFAULT_CONSISTENCY_FLOOR
) -> float:
    """Share of predicted edges that are logically coherent."""
    consistent = sum(consistent_edges(predicted, floor=floor))
    return _causal_ratios(0, consistent, len(predicted.edges), 0)[1]


def causal_chain_score(correctness: float, consistency: float) -> float:
    """Equal-weight combination of correctness and consistency."""
    return 0.5 * correctness + 0.5 * consistency


# ---------------------------------------------------------------------------
# Span and pair micro-F1
# ---------------------------------------------------------------------------


@dataclass
class _MicroCounts:
    correct: int = 0
    predicted: int = 0
    gold: int = 0

    def f1(self) -> float:
        p = self.correct / self.predicted if self.predicted else 0.0
        r = self.correct / self.gold if self.gold else 0.0
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def __iadd__(self, other: _MicroCounts) -> _MicroCounts:
        self.correct += other.correct
        self.predicted += other.predicted
        self.gold += other.gold
        return self


def span_and_pair_counts(
    predicted: Sequence[Sextuplet], gold: Sequence[Sextuplet]
) -> dict[str, _MicroCounts]:
    """Counts of distinct case-folded values for every span and pair key."""
    counts = {}
    for key, fields in _COMPARED_FIELDS.items():
        p, g = (
            {tuple(getattr(s, f).casefold() for f in fields) for s in items}
            for items in (predicted, gold)
        )
        counts[key] = _MicroCounts(correct=len(p & g), predicted=len(p), gold=len(g))
    return counts


def span_and_pair_f1(
    predicted: Sequence[Sextuplet], gold: Sequence[Sextuplet]
) -> tuple[dict[str, float], dict[str, float]]:
    """Exact-match micro-F1 per element and per element pair (case-folded):
    the span and pair F1 that `evaluate` reports for sextuplets without links."""
    report = evaluate_many([(CausalGraph((), ()), predicted, GoldAnnotation("", tuple(gold), ()))])
    return report.span_f1, report.pair_f1


# ---------------------------------------------------------------------------
# Whole-report evaluation (single dialogue and micro-merged corpus)
# ---------------------------------------------------------------------------


def evaluate(
    predicted: CausalGraph,
    predicted_sextuplets: Sequence[Sextuplet],
    gold: GoldAnnotation,
    *,
    consistency_floor: float = DEFAULT_CONSISTENCY_FLOOR,
) -> EvalReport:
    return evaluate_many(
        [(predicted, predicted_sextuplets, gold)], consistency_floor=consistency_floor
    )


def evaluate_many(
    items: Sequence[tuple[CausalGraph, Sequence[Sextuplet], GoldAnnotation]],
    *,
    consistency_floor: float = DEFAULT_CONSISTENCY_FLOOR,
) -> EvalReport:
    """Evaluate one or more dialogues, merging by micro-averaged counts."""
    correct = predicted_total = consistent = gold_total = 0
    totals = {k: _MicroCounts() for k in _COMPARED_FIELDS}
    for graph, pred_sextuplets, gold in items:
        correct += sum(1 for _, link in match_links(graph, pred_sextuplets, gold) if link)
        predicted_total += len(graph.edges)
        consistent += sum(consistent_edges(graph, floor=consistency_floor))
        gold_total += len(gold.causal_links)
        for k, c in span_and_pair_counts(pred_sextuplets, gold.sextuplets).items():
            totals[k] += c

    correctness, consistency = _causal_ratios(correct, consistent, predicted_total, gold_total)
    return EvalReport(
        causal_correctness=correctness,
        causal_consistency=consistency,
        causal_chain_score=causal_chain_score(correctness, consistency),
        span_f1={k: totals[k].f1() for k in SPAN_ELEMENTS},
        pair_f1={k: totals[k].f1() for k in PAIR_KEYS},
        counts={
            "correct_links": correct,
            "predicted_links": predicted_total,
            "consistent_links": consistent,
            "total_links": predicted_total,
            "gold_links": gold_total,
        },
    )


def render_report_text(report: EvalReport) -> str:
    """Aligned plain-text table of every metric in the report."""
    rows: list[tuple[str, str]] = [
        ("causal_correctness", f"{report.causal_correctness:.4f}"),
        ("causal_consistency", f"{report.causal_consistency:.4f}"),
        ("causal_chain_score", f"{report.causal_chain_score:.4f}"),
    ]
    rows += [(f"span_f1[{k}]", f"{v:.4f}") for k, v in report.span_f1.items()]
    rows += [(f"pair_f1[{k}]", f"{v:.4f}") for k, v in report.pair_f1.items()]
    rows += [(f"counts[{k}]", str(v)) for k, v in report.counts.items()]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


# ---------------------------------------------------------------------------
# Gold-file ingestion: native schema and the public dialogue-ASQ triplet shape
# ---------------------------------------------------------------------------


def gold_to_dict(gold: GoldAnnotation) -> dict:
    return {
        **sextuplets_to_dict(gold.dialogue_id, gold.sextuplets),
        "causal_links": [{"cause": c, "effect": e} for c, e in gold.causal_links],
    }


def gold_from_dict(obj: Mapping) -> GoldAnnotation:
    """A native gold document: a sextuplets document plus causal_links."""
    dialogue_id, sextuplets = sextuplets_from_dict(obj)
    links = []
    for i, item in enumerate(_as_list(_need(obj, "causal_links", ""), "causal_links")):
        item = _as_obj(item, f"causal_links[{i}]")
        links.append(
            (
                _as_str(_need(item, "cause", f"causal_links[{i}]"), f"causal_links[{i}].cause"),
                _as_str(_need(item, "effect", f"causal_links[{i}]"), f"causal_links[{i}].effect"),
            )
        )
    return GoldAnnotation(dialogue_id, tuple(sextuplets), tuple(links))


_TRIPLET_POLARITIES = {"pos": "positive", "neg": "negative", "neu": "neutral", "other": "neutral"}


def _triplet_fields(entry, path: str) -> tuple[str, str, str, str]:
    """(target, aspect, opinion, sentiment) from either the 10-column list
    layout or a keyed object."""
    if isinstance(entry, Mapping):
        keys = ("sentiment" if "sentiment" in entry else "polarity", "target", "aspect", "opinion")
        fields = [_as_str(entry.get(key, ""), f"{path}.{key}") for key in keys]
    elif isinstance(entry, list) and len(entry) >= 10:
        fields = [_as_str(entry[col], f"{path}[{col}]") for col in (6, 7, 8, 9)]
    else:
        raise SchemaError(path, "unrecognized triplet layout")
    polarity, target, aspect, opinion = fields
    polarity = polarity.casefold()
    sentiment = _TRIPLET_POLARITIES.get(polarity, polarity)
    if sentiment not in ("positive", "negative", "neutral"):
        raise SchemaError(f"{path}", f"unrecognized polarity {polarity!r}")
    return target, aspect, opinion, sentiment


def gold_from_triplet_doc(obj: Mapping) -> GoldAnnotation:
    """Convert one triplet-annotated document into a gold annotation.

    Triplet corpora carry no holder, rationale, timing, or causal links;
    placeholders are substituted so span/pair metrics still apply.
    """
    obj = _as_obj(obj, "")
    id_key = "doc_id" if "doc_id" in obj else "dialogue_id"
    doc_id = _as_str(obj.get(id_key, "doc"), id_key)
    sextuplets = []
    for i, entry in enumerate(_as_list(obj.get("triplets", []), "triplets")):
        target, aspect, opinion, sentiment = _triplet_fields(entry, f"triplets[{i}]")
        if not target and not aspect and not opinion:
            continue
        sextuplets.append(
            Sextuplet(
                id=f"{doc_id}-t{i:03d}",
                holder="unknown",
                target=target or "unknown",
                aspect=aspect,
                opinion=opinion or "unknown",
                sentiment_label=sentiment,
                rationale="unannotated",
            )
        )
    return GoldAnnotation(doc_id, tuple(sextuplets), causal_links=(), triplet_schema=True)


def load_gold(data: bytes | str) -> list[GoldAnnotation]:
    """Parse a gold file in either the native schema or the triplet shape.

    A JSON array is treated as a list of triplet documents; an object with a
    "sextuplets" key is native; an object with a "triplets" key is a single
    triplet document.
    """
    obj = loads_json(data)
    if isinstance(obj, list):
        return [gold_from_triplet_doc(item) for item in obj]
    if isinstance(obj, Mapping) and "sextuplets" in obj:
        return [gold_from_dict(obj)]
    if isinstance(obj, Mapping) and "triplets" in obj:
        return [gold_from_triplet_doc(obj)]
    raise SchemaError("", "unrecognized gold annotation layout")


def match_gold(golds: Sequence[GoldAnnotation], dialogue_id: str | None) -> GoldAnnotation:
    """The gold annotation with dialogue_id, else the sole document of a
    triplet-schema file; anything else names the ids in a SchemaError."""
    for gold in golds:
        if dialogue_id and gold.dialogue_id == dialogue_id:
            return gold
    if len(golds) == 1 and golds[0].triplet_schema:
        return golds[0]
    among = repr(golds[0].dialogue_id) if len(golds) == 1 else f"{len(golds)} documents"
    raise SchemaError("gold", f"no gold annotation for dialogue {dialogue_id!r} among {among}")
