"""Evaluation of predicted causal graphs and sextuplets against gold annotations.

Link matching is content-based: a predicted edge matches a gold link when
both endpoints agree on case-folded (holder, target, aspect) and the
direction agrees. Span and pair metrics are exact-match micro-F1 in the
usual aspect-sentiment-evaluation style.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping, Sequence

from .errors import SchemaError
from .graph import CausalEdge, CausalGraph
from .model import (
    Sextuplet,
    _as_list,
    _as_obj,
    _as_str,
    _need,
    sextuplet_to_dict,
    sextuplets_from_list,
)

SPAN_ELEMENTS = ("holder", "target", "aspect", "opinion", "rationale", "sentiment")
PAIR_KEYS = ("T-A", "T-O", "A-O")
_PAIR_FIELDS = {"T-A": ("target", "aspect"), "T-O": ("target", "opinion"), "A-O": ("aspect", "opinion")}

DEFAULT_CONSISTENCY_FLOOR = 0.5


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
        return {
            "causal_correctness": self.causal_correctness,
            "causal_consistency": self.causal_consistency,
            "causal_chain_score": self.causal_chain_score,
            "span_f1": dict(self.span_f1),
            "pair_f1": dict(self.pair_f1),
            "counts": dict(self.counts),
        }


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
    order; a gold link can absorb only one predicted edge.
    """
    pred_by_id = {s.id: s for s in predicted_sextuplets}
    gold_by_id = {s.id: s for s in gold.sextuplets}

    gold_pool: list[tuple[tuple, tuple[str, str]] | None] = []
    for cause_id, effect_id in gold.causal_links:
        key = (gold_by_id[cause_id].match_key(), gold_by_id[effect_id].match_key())
        gold_pool.append((key, (cause_id, effect_id)))

    ordered = sorted(
        enumerate(predicted.edges),
        key=lambda pair: (-pair[1].weight, pair[1].cause_id, pair[1].effect_id, pair[0]),
    )
    outcome: dict[int, tuple[str, str] | None] = {}
    taken = [False] * len(gold_pool)
    for idx, edge in ordered:
        cause = pred_by_id.get(edge.cause_id)
        effect = pred_by_id.get(edge.effect_id)
        outcome[idx] = None
        if cause is None or effect is None:
            continue
        key = (cause.match_key(), effect.match_key())
        for g, entry in enumerate(gold_pool):
            if not taken[g] and entry[0] == key:
                taken[g] = True
                outcome[idx] = entry[1]
                break
    return [(edge, outcome[i]) for i, edge in enumerate(predicted.edges)]


def causal_correctness(
    predicted: CausalGraph,
    predicted_sextuplets: Sequence[Sextuplet],
    gold: GoldAnnotation,
) -> float:
    """Matched predicted links over total predicted links.

    With no predicted links the metric is vacuous: 1.0 when there was
    nothing to find, else 0.0.
    """
    if not predicted.edges:
        return 1.0 if not gold.causal_links else 0.0
    matched = sum(1 for _, link in match_links(predicted, predicted_sextuplets, gold) if link)
    return matched / len(predicted.edges)


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
    """Share of predicted edges that are logically coherent; 1.0 for an
    empty graph."""
    if not predicted.edges:
        return 1.0
    flags = consistent_edges(predicted, floor=floor)
    return sum(flags) / len(flags)


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


def _span_values(items: Sequence[Sextuplet], element: str) -> set[str]:
    if element == "sentiment":
        return {s.sentiment_label.casefold() for s in items}
    return {getattr(s, element).casefold() for s in items}


def _pair_values(items: Sequence[Sextuplet], key: str) -> set[tuple[str, str]]:
    a, b = _PAIR_FIELDS[key]
    return {(getattr(s, a).casefold(), getattr(s, b).casefold()) for s in items}


def span_and_pair_counts(
    predicted: Sequence[Sextuplet], gold: Sequence[Sextuplet]
) -> tuple[dict[str, _MicroCounts], dict[str, _MicroCounts]]:
    span = {}
    for element in SPAN_ELEMENTS:
        p, g = _span_values(predicted, element), _span_values(gold, element)
        span[element] = _MicroCounts(correct=len(p & g), predicted=len(p), gold=len(g))
    pair = {}
    for key in PAIR_KEYS:
        p, g = _pair_values(predicted, key), _pair_values(gold, key)
        pair[key] = _MicroCounts(correct=len(p & g), predicted=len(p), gold=len(g))
    return span, pair


def span_and_pair_f1(
    predicted: Sequence[Sextuplet], gold: Sequence[Sextuplet]
) -> tuple[dict[str, float], dict[str, float]]:
    """Exact-match micro-F1 per element and per element pair (case-folded)."""
    span, pair = span_and_pair_counts(predicted, gold)
    return (
        {k: c.f1() for k, c in span.items()},
        {k: c.f1() for k, c in pair.items()},
    )


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
    span_totals = {k: _MicroCounts() for k in SPAN_ELEMENTS}
    pair_totals = {k: _MicroCounts() for k in PAIR_KEYS}

    for graph, pred_sextuplets, gold in items:
        matches = match_links(graph, pred_sextuplets, gold)
        correct += sum(1 for _, link in matches if link)
        predicted_total += len(graph.edges)
        consistent += sum(consistent_edges(graph, floor=consistency_floor))
        gold_total += len(gold.causal_links)
        span, pair = span_and_pair_counts(pred_sextuplets, gold.sextuplets)
        for k, c in span.items():
            span_totals[k].correct += c.correct
            span_totals[k].predicted += c.predicted
            span_totals[k].gold += c.gold
        for k, c in pair.items():
            pair_totals[k].correct += c.correct
            pair_totals[k].predicted += c.predicted
            pair_totals[k].gold += c.gold

    if predicted_total:
        correctness = correct / predicted_total
        consistency = consistent / predicted_total
    else:
        correctness = 1.0 if gold_total == 0 else 0.0
        consistency = 1.0

    return EvalReport(
        causal_correctness=correctness,
        causal_consistency=consistency,
        causal_chain_score=causal_chain_score(correctness, consistency),
        span_f1={k: c.f1() for k, c in span_totals.items()},
        pair_f1={k: c.f1() for k, c in pair_totals.items()},
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
        "dialogue_id": gold.dialogue_id,
        "sextuplets": [sextuplet_to_dict(s) for s in gold.sextuplets],
        "causal_links": [{"cause": c, "effect": e} for c, e in gold.causal_links],
    }


def gold_from_dict(obj: Mapping) -> GoldAnnotation:
    obj = _as_obj(obj, "")
    sextuplets = tuple(sextuplets_from_list(_need(obj, "sextuplets", "")))
    links = []
    for i, item in enumerate(_as_list(obj.get("causal_links", []), "causal_links")):
        item = _as_obj(item, f"causal_links[{i}]")
        links.append(
            (
                _as_str(_need(item, "cause", f"causal_links[{i}]"), f"causal_links[{i}].cause"),
                _as_str(_need(item, "effect", f"causal_links[{i}]"), f"causal_links[{i}].effect"),
            )
        )
    return GoldAnnotation(
        dialogue_id=_as_str(_need(obj, "dialogue_id", ""), "dialogue_id"),
        sextuplets=sextuplets,
        causal_links=tuple(links),
    )


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
    doc_id = str(obj.get("doc_id", obj.get("dialogue_id", "doc")))
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
    obj = json.loads(data)
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
