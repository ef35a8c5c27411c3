"""Causal-edge scoring and directed graph construction.

An ordered pair of events becomes an edge candidate only when the effect
starts at or after the cause ends (temporal precedence). Three components
are combined into the edge weight: semantic alignment between the cause's
opinion and the effect's sentiment, an exponential decay over the time gap,
and the logical support the cause's rationale lends the effect.
"""

from __future__ import annotations

import json
import math
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

import requests

from .embedding import EmbeddingProvider, embed_text, embed_texts
from .errors import PrecedenceError, ResponseParseError, TransportError
from .kb import cosine_similarity
from .model import ScoringConfig, Sextuplet, sextuplet_from_dict, sextuplet_to_dict
from .model import _as_list, _as_number, _as_obj, _as_str, _need
from .transport import JsonEndpoint

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


# JSON keys of an exported edge, in CausalEdge field order.
_EDGE_KEYS = ("cause", "effect", "semantic", "temporal", "rationale", "weight", "delta_t")


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


def _tokens(text: str) -> set[str]:
    return {t.translate(_PUNCT) for t in text.casefold().split()} - {""}


class JaccardNli:
    """Mock entailment: token-set overlap between premise and hypothesis.

    Deterministic and order-insensitive, which is all the offline pipeline
    needs from an entailment signal.
    """

    id = "overlap"
    mode = "mock_overlap"

    def entailment_probability(self, premise: str, hypothesis: str) -> float:
        a, b = _tokens(premise), _tokens(hypothesis)
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
        session: requests.Session | None = None,
    ):
        self.id = "remote:nli"
        self._http = JsonEndpoint("NLI", "NLI", endpoint, api_key, timeout, session)

    def entailment_probability(self, premise: str, hypothesis: str) -> float:
        reply = self._http.call({"premise": premise, "hypothesis": hypothesis})
        try:
            p = float(reply["entailment_probability"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ResponseParseError(f"malformed NLI response: {exc}", json.dumps(reply)) from exc
        if not 0.0 <= p <= 1.0:
            raise ResponseParseError(
                f"entailment probability {p!r} outside [0, 1]", json.dumps(reply)
            )
        return p


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
    raw = cosine_similarity(embed_text(embedder, opinion), embed_text(embedder, sentiment_text))
    if not normalize:
        return raw
    return min(1.0, max(0.0, (raw + 1.0) / 2.0))


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
    the range becomes [0, 1]."""
    if not rationale.strip():
        raise ValueError("rationale must be non-empty")
    p = nli.entailment_probability(rationale, serialize_event(effect))
    raw = math.log1p(p)
    if not normalize:
        return raw
    return min(1.0, raw / LN2)


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
    jobs: int = 1,
) -> CausalGraph:
    """Score every temporally admissible ordered pair and keep edges whose
    weight reaches the threshold.

    Pairs with a negative gap are discarded before scoring (causality needs
    precedence) and gaps beyond max_gap are skipped: at the default cutoff of
    10 * tau the temporal component is below 5e-5, negligible against any
    practical threshold. The distinct cause opinions and effect sentiment
    labels of the admissible pairs are embedded with one embed_texts call
    before scoring starts, so `jobs` threads only share NLI calls. Vertices
    include isolated events. Output is deterministic and independent of
    evaluation order and thread count.
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

    texts = (t for c, e in candidates for t in (c.opinion, e.sentiment_label))
    vectors = embed_texts(embedder, texts)

    def score(pair: tuple[Sextuplet, Sextuplet]) -> CausalEdge | None:
        cause, effect = pair
        delta_t = temporal_gap(cause, effect)
        try:
            raw = cosine_similarity(vectors[cause.opinion], vectors[effect.sentiment_label])
            semantic = min(1.0, max(0.0, (raw + 1.0) / 2.0)) if cfg.normalize_scores else raw
            temporal = temporal_score(delta_t, cfg.tau)
            rationale = rationale_score(
                cause.rationale, effect, nli, normalize=cfg.normalize_scores
            )
        except (TransportError, ResponseParseError) as exc:
            message = f"scoring failed for pair ({cause.id} -> {effect.id}): {exc}"
            if isinstance(exc, ResponseParseError):
                raise ResponseParseError(message, exc.raw) from exc
            raise TransportError(message) from exc
        weight = edge_weight(semantic, temporal, rationale, cfg)
        if weight < cfg.edge_threshold:
            return None
        return CausalEdge(
            cause_id=cause.id,
            effect_id=effect.id,
            semantic_score=semantic,
            temporal_score=temporal,
            rationale_score=rationale,
            weight=weight,
            delta_t=delta_t,
        )

    if jobs > 1 and candidates:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scored = list(pool.map(score, candidates))
    else:
        scored = [score(pair) for pair in candidates]

    edges = sorted(
        (e for e in scored if e is not None), key=lambda e: (e.cause_id, e.effect_id)
    )
    return CausalGraph(vertices=tuple(sorted(set(ids))), edges=tuple(edges))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_graph(
    graph: CausalGraph,
    fmt: str,
    sextuplets: Sequence[Sextuplet] | None = None,
    dialogue_id: str | None = None,
) -> bytes:
    """Serialize as DOT or JSON with stable ordering.

    JSON output optionally embeds the underlying sextuplets (and the source
    dialogue id) so downstream evaluation can match endpoints by content
    from the file alone.
    """
    if fmt == "dot":
        lines = ["digraph G {"]
        for v in sorted(graph.vertices):
            lines.append(f'  "{v}";')
        for e in sorted(graph.edges, key=lambda e: (e.cause_id, e.effect_id)):
            lines.append(f'  "{e.cause_id}" -> "{e.effect_id}" [label="w={e.weight:.3f}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        doc: dict = {
            "vertices": sorted(graph.vertices),
            "edges": [
                dict(zip(_EDGE_KEYS, astuple(e)))
                for e in sorted(graph.edges, key=lambda e: (e.cause_id, e.effect_id))
            ],
        }
        if sextuplets is not None:
            doc["sextuplets"] = [
                sextuplet_to_dict(s) for s in sorted(sextuplets, key=lambda s: s.id)
            ]
        if dialogue_id is not None:
            doc["dialogue_id"] = dialogue_id
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (use 'dot' or 'json')")


def _edge_from_dict(obj: Mapping[str, Any], path: str) -> CausalEdge:
    obj = _as_obj(obj, path)
    cause, effect, *scores = ((_need(obj, key, path), f"{path}.{key}") for key in _EDGE_KEYS)
    return CausalEdge(_as_str(*cause), _as_str(*effect), *(_as_number(*s) for s in scores))


def graph_from_json(
    data: bytes | str,
) -> tuple[CausalGraph, list[Sextuplet] | None, str | None]:
    """Parse a JSON export back into (graph, embedded sextuplets, dialogue id),
    raising SchemaError with a field path on the first structural violation."""
    obj = _as_obj(json.loads(data), "")
    edges = tuple(
        _edge_from_dict(e, f"edges[{i}]")
        for i, e in enumerate(_as_list(obj.get("edges", []), "edges"))
    )
    vertices = tuple(
        _as_str(v, f"vertices[{i}]")
        for i, v in enumerate(_as_list(obj.get("vertices", []), "vertices"))
    )
    raw = obj.get("sextuplets")
    items = None
    if raw is not None:
        items = [
            sextuplet_from_dict(o, f"sextuplets[{i}]")
            for i, o in enumerate(_as_list(raw, "sextuplets"))
        ]
    did = obj.get("dialogue_id")
    return (
        CausalGraph(vertices=vertices, edges=edges),
        items,
        None if did is None else _as_str(did, "dialogue_id"),
    )
