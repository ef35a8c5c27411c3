"""Evaluation of predicted causal graphs and sextuplets against gold annotations.

Every metric is a ratio of the counts that evaluate (one dialogue) or
evaluate_many (a corpus, micro-merged) sums. Link matching is content-based:
a predicted edge matches a gold link when both endpoints agree on case-folded
(holder, target, aspect) and the direction agrees. Causal correctness is
matched links over predicted links (precision), causal recall matched links
over gold links, and causal F1 their harmonic mean. Span and pair metrics are
exact-match micro-F1 in the usual aspect-sentiment-evaluation style.

Empty graphs: with no predicted link, causal correctness is 1.0 when the
gold has no link either and 0.0 otherwise, and causal consistency is 1.0.
A gold with no link has causal recall 1.0, and causal F1 is 0.0 when
correctness and recall are both 0. Span and pair F1 follow the same rules: 1.0
when neither side holds a value, 0.0 when only one does.

A report scores only what its gold annotates: a triplet-schema gold (DiaASQ's
10-column rows) has no holder, rationale or causal links, whose metrics are
left out, and no span or pair holding its empty target or opinion is scored.
A gold file is read like a dialogue file (model.parse_documents), one native
or triplet document per dialogue id, each matched to its dialogue by that id.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from typing import Mapping, Sequence

from .errors import SchemaError
from .graph import CausalEdge, CausalGraph
from .model import (
    SENTIMENT_LABELS,
    ScoringConfig,
    Sextuplet,
    _as_list,
    _as_obj,
    _as_str,
    _need,
    parse_documents,
    read_input,
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
# What a gold document annotates: the Sextuplet fields its spans carry, and its causal links.
# A triplet corpus has no holder, rationale, timing or links; placeholders fill those fields.
TRIPLET_FIELDS = frozenset(("target", "aspect", "opinion", "sentiment_label"))
NATIVE_FIELDS = TRIPLET_FIELDS | {"holder", "rationale", "causal_links"}


@dataclass(frozen=True)
class GoldAnnotation:
    """Reference sextuplets and directed causal links for one dialogue, and
    the fields it annotates: the metrics that may be scored against it."""

    dialogue_id: str
    sextuplets: tuple[Sextuplet, ...]
    causal_links: tuple[tuple[str, str], ...]
    annotates: frozenset[str] = NATIVE_FIELDS

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
    """The causal and span/pair metrics of one dialogue or a merged corpus
    that its gold annotates. A span or pair F1 not annotated has no key; the
    causal metrics and counts are None, and left out of to_dict, when the
    causal links are not annotated."""

    span_f1: dict[str, float]
    pair_f1: dict[str, float]
    causal_correctness: float | None = None
    causal_consistency: float | None = None
    causal_chain_score: float | None = None
    causal_recall: float | None = None
    causal_f1: float | None = None
    counts: dict[str, int] | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


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


def _causal_ratios(correct: int, consistent: int, predicted: int, gold: int) -> tuple[float, ...]:
    """(correctness, consistency, recall, F1) under the empty rules of the module docstring."""
    correctness = correct / predicted if predicted else (0.0 if gold else 1.0)
    consistency = consistent / predicted if predicted else 1.0
    recall = correct / gold if gold else 1.0
    f1 = 2 * correctness * recall / (correctness + recall) if correctness + recall else 0.0
    return correctness, consistency, recall, f1


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

    def f1(self) -> float:  # the causal F1's empty rules: nothing against nothing reads 1.0
        return _causal_ratios(self.correct, 0, self.predicted, self.gold)[3]

    def __iadd__(self, other: _MicroCounts) -> _MicroCounts:
        self.correct += other.correct
        self.predicted += other.predicted
        self.gold += other.gold
        return self


def span_and_pair_counts(
    predicted: Sequence[Sextuplet], gold: Sequence[Sextuplet]
) -> dict[str, _MicroCounts]:
    """Counts of distinct case-folded values for every span and pair key; on
    both sides, a value with an empty (implicit) target or opinion is left out."""
    counts = {}
    for key, fields in _COMPARED_FIELDS.items():
        p, g = (
            {tuple(getattr(s, f).casefold() for f in fields)
             for s in items if all(getattr(s, f) for f in fields if f in ("target", "opinion"))}
            for items in (predicted, gold)
        )
        counts[key] = _MicroCounts(correct=len(p & g), predicted=len(p), gold=len(g))
    return counts


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
    """Evaluate one or more dialogues, merging by micro-averaged counts, on
    the fields every gold annotates."""
    annotated = NATIVE_FIELDS.intersection(*(gold.annotates for _, _, gold in items))
    scored = [k for k, fields in _COMPARED_FIELDS.items() if annotated.issuperset(fields)]
    correct = predicted_total = consistent = gold_total = 0
    totals = {k: _MicroCounts() for k in scored}
    for graph, pred_sextuplets, gold in items:
        correct += sum(1 for _, link in match_links(graph, pred_sextuplets, gold) if link)
        predicted_total += len(graph.edges)
        consistent += sum(consistent_edges(graph, floor=consistency_floor))
        gold_total += len(gold.causal_links)
        counts = span_and_pair_counts(pred_sextuplets, gold.sextuplets)
        for k in scored:
            totals[k] += counts[k]

    report = EvalReport(
        span_f1={k: totals[k].f1() for k in SPAN_ELEMENTS if k in totals},
        pair_f1={k: totals[k].f1() for k in PAIR_KEYS if k in totals},
    )
    if "causal_links" in annotated:
        correctness, consistency, report.causal_recall, report.causal_f1 = _causal_ratios(
            correct, consistent, predicted_total, gold_total)
        report.causal_correctness, report.causal_consistency = correctness, consistency
        report.causal_chain_score = causal_chain_score(correctness, consistency)
        report.counts = {"correct_links": correct, "predicted_links": predicted_total,
                         "consistent_links": consistent, "gold_links": gold_total}
    return report


def render_report_text(report: EvalReport) -> str:
    """Aligned plain-text table of every metric in the report."""
    rows: list[tuple[str, str]] = [  # the causal metrics, in field order
        (name, f"{value:.4f}") for name, value in report.to_dict().items() if isinstance(value, float)
    ]
    rows += [(f"span_f1[{k}]", f"{v:.4f}") for k, v in report.span_f1.items()]
    rows += [(f"pair_f1[{k}]", f"{v:.4f}") for k, v in report.pair_f1.items()]
    rows += [(f"counts[{k}]", str(v)) for k, v in (report.counts or {}).items()]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


# ---------------------------------------------------------------------------
# Gold files, read like dialogue files; a DiaASQ triplet row's empty target or opinion is not scored
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
        path = f"causal_links[{i}]"
        item = _as_obj(item, path)
        links.append(tuple(_as_str(_need(item, key, path), f"{path}.{key}") for key in ("cause", "effect")))
    return GoldAnnotation(dialogue_id, tuple(sextuplets), tuple(links))


_TRIPLET_POLARITIES = {"pos": "positive", "neg": "negative", "neu": "neutral", "other": "neutral"}


def _gold_document(obj) -> tuple[str, str, GoldAnnotation]:
    """(the key of its dialogue id, the id, the gold) of one gold document:
    native by its "sextuplets" key, or triplet-schema by its "triplets" key
    and identified by its doc_id, else its dialogue_id."""
    obj = _as_obj(obj, "")
    if "sextuplets" in obj:
        gold = gold_from_dict(obj)
        return "dialogue_id", gold.dialogue_id, gold
    if "triplets" not in obj:
        raise SchemaError("", "a gold document needs a sextuplets or a triplets key")
    key = "doc_id" if "doc_id" in obj else "dialogue_id"
    doc_id, sextuplets = _as_str(_need(obj, key, ""), key), []
    for i, row in enumerate(_as_list(obj["triplets"], "triplets")):
        path = f"triplets[{i}]"
        if not (isinstance(row, list) and len(row) == 10):
            raise SchemaError(path, "expected a DiaASQ triplet row of 10 columns")
        polarity, target, aspect, opinion = (_as_str(row[col], f"{path}[{col}]") for col in (6, 7, 8, 9))
        sentiment = _TRIPLET_POLARITIES.get(polarity.casefold(), polarity.casefold())
        if sentiment not in SENTIMENT_LABELS:
            raise SchemaError(path, f"unrecognized polarity {polarity!r}")
        if target or aspect or opinion:
            sextuplets.append(Sextuplet(f"{doc_id}-t{i:03d}", "unknown", target, aspect, opinion,
                                        sentiment, "unannotated"))
    return key, doc_id, GoldAnnotation(doc_id, tuple(sextuplets), (), TRIPLET_FIELDS)


def load_gold(data: bytes | str) -> list[GoldAnnotation]:
    """Every gold document of a gold file, one per dialogue id."""
    return parse_documents(data, _gold_document)


def match_gold(golds: Sequence[GoldAnnotation], dialogue_id: str) -> GoldAnnotation:
    """The gold annotation with dialogue_id; anything else names the ids in a SchemaError."""
    for gold in golds:
        if gold.dialogue_id == dialogue_id:
            return gold
    among = repr(golds[0].dialogue_id) if len(golds) == 1 else f"{len(golds)} documents"
    raise SchemaError("gold", f"no gold annotation for dialogue {dialogue_id!r} among {among}")


def read_gold(path: str | Path, dialogue_id: str) -> GoldAnnotation:
    """The gold annotation of dialogue_id in the gold file at path."""
    return read_input(path, lambda data: match_gold(load_gold(data), dialogue_id))
