"""Retrieval-augmented extraction of emotional-causality sextuplets from
long dialogues, causal-graph scoring, and evaluation against gold links.

Typical flow: parse or generate a dialogue, index it into a sliding-window
knowledge base, extract sextuplets with retrieval-augmented prompts, score
ordered event pairs into a weighted directed graph, then evaluate the graph
against gold causal links.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (
    AudioFeatureRecord,
    DEFAULT_EMOTION_CATEGORIES,
    Dialogue,
    SCENARIOS,
    SENTIMENT_LABELS,
    ScoringConfig,
    Sextuplet,
    Utterance,
    ValidationIssue,
    ValidationReport,
    compute_speech_rate,
    validate_dialogue,
)
from .ingest import parse_corpus, parse_dialogue_file
from .embedding import (
    EmbeddingProvider,
    HashTextEmbedder,
    RemoteTextEmbedder,
    describe_audio_as_text,
    embed_text,
    fuse,
    window_embedding,
)
from .kb import (
    KnowledgeBase,
    RetrievalHit,
    TimeWindow,
    build_windows,
    cosine_similarity,
    index_corpus,
    index_dialogue,
    load_kb,
    retrieve,
    save_kb,
)
from .extraction import (
    ExtractionPrompt,
    MockExtractor,
    RemoteExtractor,
    assemble_prompt,
    dedup_sextuplets,
    extract_dialogue,
    extract_sextuplets,
    parse_provider_response,
)
from .graph import (
    CausalEdge,
    CausalGraph,
    JaccardNli,
    RemoteNli,
    build_graph,
    edge_weight,
    export_graph,
    rationale_score,
    semantic_score,
    temporal_gap,
    temporal_score,
)
from .metrics import (
    EvalReport,
    GoldAnnotation,
    causal_chain_score,
    causal_consistency,
    causal_correctness,
    evaluate,
    evaluate_many,
    load_gold,
    match_links,
    span_and_pair_f1,
)
from .synth import ChainSpec, generate
from .pipeline import RunManifest, RunResult, run_pipeline

__all__ = [
    "AudioFeatureRecord",
    "CausalEdge",
    "CausalGraph",
    "ChainSpec",
    "DEFAULT_EMOTION_CATEGORIES",
    "Dialogue",
    "EmbeddingProvider",
    "EvalReport",
    "ExtractionPrompt",
    "GoldAnnotation",
    "HashTextEmbedder",
    "JaccardNli",
    "KnowledgeBase",
    "MockExtractor",
    "RemoteExtractor",
    "RemoteNli",
    "RemoteTextEmbedder",
    "RetrievalHit",
    "RunManifest",
    "RunResult",
    "SCENARIOS",
    "SENTIMENT_LABELS",
    "ScoringConfig",
    "Sextuplet",
    "TimeWindow",
    "Utterance",
    "ValidationIssue",
    "ValidationReport",
    "assemble_prompt",
    "build_graph",
    "build_windows",
    "causal_chain_score",
    "causal_consistency",
    "causal_correctness",
    "compute_speech_rate",
    "cosine_similarity",
    "dedup_sextuplets",
    "describe_audio_as_text",
    "edge_weight",
    "embed_text",
    "evaluate",
    "evaluate_many",
    "export_graph",
    "extract_dialogue",
    "extract_sextuplets",
    "fuse",
    "generate",
    "index_corpus",
    "index_dialogue",
    "load_gold",
    "load_kb",
    "match_links",
    "parse_corpus",
    "parse_dialogue_file",
    "parse_provider_response",
    "rationale_score",
    "retrieve",
    "run_pipeline",
    "save_kb",
    "semantic_score",
    "span_and_pair_f1",
    "temporal_gap",
    "temporal_score",
    "validate_dialogue",
    "window_embedding",
]
