"""Causal-edge scoring and directed graph construction.

An ordered pair of events becomes an edge candidate only when the effect
starts at or after the cause ends (temporal precedence). Three components
are combined into the edge weight: semantic alignment between the cause's
opinion and the effect's sentiment, an exponential decay over the time gap,
and the logical support the cause's rationale lends the effect.
"""

from __future__ import annotations

import functools
import json
import math
import string
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from .embedding import EmbeddingProvider, embed_text, embed_texts
from .errors import PrecedenceError, ResponseParseError, SchemaError, TransportError
from .kb import cosine_similarity
from .model import ScoringConfig, Sextuplet, _need, sextuplets_from_dict, sextuplets_to_dict
from .model import _as_list, _as_obj, _as_str, dumps_canonical, loads_json, record_from_dict, record_to_dict
from .transport import JsonEndpoint, map_calls

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CausalEdge:
    """A scored cause -> effect link; delta_t is effect start minus cause end."""

    cause_id: str
    effect_id: str
    semantic_score: float
    temporal_score: float
    rationale_score: float
    weight: float
    delta_t: float


# JSON keys of an exported edge that differ from its CausalEdge field names.
_EDGE_KEYS = {"cause_id": "cause", "effect_id": "effect", "semantic_score": "semantic",
              "temporal_score": "temporal", "rationale_score": "rationale"}


@dataclass(frozen=True)
class CausalGraph:
    vertices: tuple[str, ...]
    edges: tuple[CausalEdge, ...]


@runtime_checkable
class NliProvider(Protocol):
    """Returns the probability in [0, 1] that a premise entails a hypothesis."""

    id: str
    mode: str

    def entailment_probability(self, premise: str, hypothesis: str) -> float: ...


_PUNCT = str.maketrans("", "", string.punctuation)


def _tokens(text: str) -> frozenset[str]:
    return frozenset(t.translate(_PUNCT) for t in text.casefold().split()) - {""}


class JaccardNli:
    """Mock entailment: token-set overlap between premise and hypothesis.

    Deterministic and order-insensitive, which is all the offline pipeline
    needs from an entailment signal. Each text's token set is made once and
    kept in a thread-safe LRU memo of 1,024 texts, at most about 1.5 MB when
    each text has 100 characters and 12 tokens.
    """

    id = "overlap"
    mode = "mock_overlap"

    @functools.cached_property
    def _token_set(self):  # built on first use, so subclasses need not call __init__
        return functools.lru_cache(1024)(_tokens)

    def entailment_probability(self, premise: str, hypothesis: str) -> float:
        a, b = self._token_set(premise), self._token_set(hypothesis)
        union = a | b
        if not union:
            return 0.0
        return len(a & b) / len(union)


class RemoteNli:
    """HTTP entailment provider: POST {premise, hypothesis} ->
    {entailment_probability}, a number in [0, 1]."""

    mode = "remote"

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
        session: object = None,  # never read; benchmarks/workloads.py passes one until ROADMAP item 1
    ):
        self.id = "remote:nli"
        self._http = JsonEndpoint("NLI", "NLI", endpoint, api_key, timeout)

    def entailment_probability(self, premise: str, hypothesis: str) -> float:
        reply = self._http.call({"premise": premise, "hypothesis": hypothesis})
        p = reply.get("entailment_probability") if isinstance(reply, dict) else None
        # a JSON true or "0.7" is not a probability, though float() would take either
        if type(p) not in (int, float) or not 0.0 <= p <= 1.0:
            raise ResponseParseError(
                f"entailment probability {p!r} is not a number in [0, 1]", json.dumps(reply)
            )
        return float(p)


def nli_from_spec(spec: str) -> NliProvider:
    if spec == "overlap":
        return JaccardNli()
    if spec == "remote":
        return RemoteNli()
    raise ValueError(f"unknown NLI spec {spec!r} (use 'overlap' or 'remote')")


# ---------------------------------------------------------------------------
# Component scores
# ---------------------------------------------------------------------------


def semantic_score(
    opinion: str,
    sentiment_text: str,
    embedder: EmbeddingProvider,
    *,
    normalize: bool = True,
) -> float:
    """Cosine alignment between the cause's opinion and the effect's sentiment
    label, both passed through the text embedder; normalized into [0, 1] via
    (s + 1) / 2 when requested."""
    return _semantic(embed_text(embedder, opinion), embed_text(embedder, sentiment_text), normalize)


def _semantic(opinion_vector, sentiment_vector, normalize: bool) -> float:
    raw = cosine_similarity(opinion_vector, sentiment_vector)
    return min(1.0, max(0.0, (raw + 1.0) / 2.0)) if normalize else raw


def temporal_gap(cause: Sextuplet, effect: Sextuplet) -> float:
    """Seconds from the end of the cause event to the start of the effect
    event; negative when the effect does not follow the cause."""
    return effect.t_start - cause.t_end


def temporal_score(delta_t: float, tau: float) -> float:
    """exp(-delta_t / tau), in (0, 1]; negative gaps violate precedence."""
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau!r}")
    if delta_t < 0.0:
        raise PrecedenceError(
            f"temporal score requested for an effect {-delta_t:.3f}s before its cause"
        )
    return math.exp(-delta_t / tau)


def serialize_event(s: Sextuplet) -> str:
    """Flat text form of an event used as the entailment hypothesis."""
    return " ".join([s.holder, s.target, s.aspect, s.opinion, s.sentiment_label])


def rationale_score(
    rationale: str,
    effect: Sextuplet,
    nli: NliProvider,
    *,
    normalize: bool = True,
) -> float:
    """log(1 + P) where P is the entailment probability of the serialized
    effect given the cause's rationale; divided by log 2 when normalizing so
    the range becomes [0, 1]. A P that is not a number in [0, 1] raises ValueError."""
    _require_rationale(rationale)
    p = nli.entailment_probability(rationale, serialize_event(effect))
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise ValueError(f"entailment probability {p!r} is not a number")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entailment probability {p!r} is outside [0, 1]")
    return _rationale(p, normalize)


def _require_rationale(rationale: str) -> None:
    if not rationale.strip():
        raise ValueError("rationale must be non-empty")


def _rationale(p: float, normalize: bool) -> float:
    raw = math.log1p(p)
    return min(1.0, raw / LN2) if normalize else raw


def edge_weight(semantic: float, temporal: float, rationale: float, cfg: ScoringConfig) -> float:
    """Convex combination of the three components with the configured weights."""
    return cfg.alpha * semantic + cfg.beta * temporal + cfg.gamma * rationale


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def build_graph(
    sextuplets: Sequence[Sextuplet],
    cfg: ScoringConfig,
    embedder: EmbeddingProvider,
    nli: NliProvider,
    *,
    jobs: int = 1,  # never read; benchmarks/workloads.py passes one until ROADMAP item 1
) -> CausalGraph:
    """Score every temporally admissible ordered pair and keep edges whose
    weight reaches the threshold.

    Pairs with a negative gap are discarded before scoring (causality needs
    precedence) and gaps beyond max_gap are skipped: at the default cutoff of
    10 * tau the temporal component is below 5e-5, negligible against any
    practical threshold. The distinct cause opinions and effect sentiment
    labels of the admissible pairs are embedded with one embed_texts call
    before scoring, and each distinct (opinion, label) is scored once. A pair
    whose weight misses the threshold even at P = 1 is dropped unscored: the
    weights are positive and float + and * round monotonically, so the
    threshold would cut it whatever the NLI says. The NLI is asked once per
    distinct pair that can reach the threshold, (cause rationale, serialized
    effect), through map_calls, which assumes a deterministic provider: a
    remote provider's calls overlap on REMOTE_WORKERS threads, any other's run
    in order. A failure names the first scored pair in enumeration order that
    asks the failing question; a P that is not a number in [0, 1] from any
    provider fails as a ResponseParseError so named. Vertices include isolated
    events. Output is deterministic, whether the NLI calls overlap or not.
    """
    ids = [s.id for s in sextuplets]
    if len(set(ids)) != len(ids):
        raise ValueError("sextuplet ids must be unique")

    max_gap = cfg.effective_max_gap()
    candidates = [
        (cause, effect)
        for cause in sextuplets
        for effect in sextuplets
        if cause.id != effect.id and 0.0 <= temporal_gap(cause, effect) <= max_gap
    ]

    opinion_labels = dict.fromkeys((c.opinion, e.sentiment_label) for c, e in candidates)
    vectors = embed_texts(embedder, (text for pair in opinion_labels for text in pair))
    semantics = {
        (opinion, label): _semantic(vectors[opinion], vectors[label], cfg.normalize_scores)
        for opinion, label in opinion_labels
    }

    r_max = _rationale(1.0, cfg.normalize_scores)
    scored = []  # (cause, effect, delta_t, semantic, temporal, NLI question)
    for cause, effect in candidates:
        _require_rationale(cause.rationale)
        delta_t = temporal_gap(cause, effect)
        semantic = semantics[cause.opinion, effect.sentiment_label]
        temporal = temporal_score(delta_t, cfg.tau)
        if edge_weight(semantic, temporal, r_max, cfg) < cfg.edge_threshold:
            continue
        question = (cause.rationale, serialize_event(effect))
        scored.append((cause, effect, delta_t, semantic, temporal, question))

    first_asker: dict[tuple[str, str], tuple[Sextuplet, Sextuplet]] = {}
    for cause, effect, *_, question in scored:
        first_asker.setdefault(question, (cause, effect))

    def ask(pair: tuple[Sextuplet, Sextuplet]) -> float:
        cause, effect = pair
        try:
            return rationale_score(cause.rationale, effect, nli, normalize=cfg.normalize_scores)
        except (TransportError, ResponseParseError, ValueError) as exc:
            # rationale_score's ValueError is a P that is not a number in [0, 1]
            # (NaN and bool included), a bad reply like the ones RemoteNli rejects
            message = f"scoring failed for pair ({cause.id} -> {effect.id}): {exc}"
            if isinstance(exc, TransportError):
                raise TransportError(message) from exc
            raise ResponseParseError(message, getattr(exc, "raw", "")) from exc

    rationales = dict(zip(first_asker, map_calls(ask, list(first_asker.values()), nli)))
    edges = []
    for cause, effect, delta_t, semantic, temporal, question in scored:
        rationale = rationales[question]
        weight = edge_weight(semantic, temporal, rationale, cfg)
        if weight < cfg.edge_threshold:
            continue
        edges.append(CausalEdge(cause.id, effect.id, semantic, temporal, rationale, weight, delta_t))
    edges.sort(key=lambda e: (e.cause_id, e.effect_id))
    return CausalGraph(vertices=tuple(sorted(set(ids))), edges=tuple(edges))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_graph(
    graph: CausalGraph, fmt: str, sextuplets: Sequence[Sextuplet], dialogue_id: str
) -> bytes:
    """Serialize as DOT or JSON with stable ordering.

    The JSON document is the sextuplets document of dialogue_id (the
    sextuplets sorted by id) plus `vertices` and `edges`, so evaluation can
    match endpoints by content from the file alone.
    """
    if fmt == "dot":
        lines = ["digraph G {"]
        for v in sorted(graph.vertices):
            lines.append(f"  {_dot_id(v)};")
        for e in sorted(graph.edges, key=lambda e: (e.cause_id, e.effect_id)):
            lines.append(f'  {_dot_id(e.cause_id)} -> {_dot_id(e.effect_id)} [label="w={e.weight:.3f}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        doc = {
            **sextuplets_to_dict(dialogue_id, sorted(sextuplets, key=lambda s: s.id)),
            "vertices": sorted(graph.vertices),
            "edges": [
                record_to_dict(e, _EDGE_KEYS)
                for e in sorted(graph.edges, key=lambda e: (e.cause_id, e.effect_id))
            ],
        }
        return dumps_canonical(doc).encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (use 'dot' or 'json')")


def _dot_id(vertex: str) -> str:
    """A quoted DOT ID, whose only escape is \\" for a double quote."""
    return '"' + vertex.replace('"', '\\"') + '"'


def graph_from_json(data: bytes | str) -> tuple[CausalGraph, list[Sextuplet], str]:
    """Parse a JSON export back into (graph, sextuplets, dialogue id): the
    sextuplets document, read with model.sextuplets_from_dict, then its
    required edges and vertices. Raise SchemaError with a field path on the
    first structural violation: a vertex or a (cause, effect) edge must not
    repeat, an edge endpoint must be a vertex, and a vertex a sextuplet id."""
    obj = _as_obj(loads_json(data), "")
    dialogue_id, items = sextuplets_from_dict(obj)
    edges = tuple(
        record_from_dict(CausalEdge, e, f"edges[{i}]", _EDGE_KEYS)
        for i, e in enumerate(_as_list(_need(obj, "edges", ""), "edges"))
    )
    vertices: dict[str, None] = {}
    for i, v in enumerate(_as_list(_need(obj, "vertices", ""), "vertices")):
        if _as_str(v, f"vertices[{i}]") in vertices:
            raise SchemaError(f"vertices[{i}]", f"repeats vertex {v!r}")
        vertices[v] = None
    pairs = set()
    for i, e in enumerate(edges):
        for key, end in (("cause", e.cause_id), ("effect", e.effect_id)):
            if end not in vertices:
                raise SchemaError(f"edges[{i}].{key}", f"{end!r} is not among vertices")
        if (e.cause_id, e.effect_id) in pairs:
            raise SchemaError(f"edges[{i}]", f"repeats edge {e.cause_id!r} -> {e.effect_id!r}")
        pairs.add((e.cause_id, e.effect_id))
    ids = {s.id for s in items}
    for i, v in enumerate(vertices):
        if v not in ids:
            raise SchemaError(f"vertices[{i}]", f"{v!r} is not an embedded sextuplet id")
    return CausalGraph(vertices=tuple(vertices), edges=edges), items, dialogue_id
