"""Sliding-window knowledge base: construction, exact retrieval, persistence.

Windows advance by a fixed stride so consecutive windows overlap and every
utterance is covered. index_corpus is the one indexing path, for one
dialogue (index_dialogue) or many: it embeds the corpus's distinct texts
with one embed_texts call and stores each window as the mean of its
utterances' fused vectors, one float64 row of text_dim + 8 + 1 (the fixed
DEFAULT_EMOTION_CATEGORIES) per window. Retrieval is an exhaustive
cosine-similarity scan — desk-scale corpora do not justify an approximate
index, and exactness is what makes brute-force oracle testing possible.
save_kb and load_kb write and read records with the model's record codec.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import embedding
from .embedding import (  # window_embedding: benchmarks/tracing.py patches kb.window_embedding
    DEFAULT_RATE_SCALE,
    EMOTION_DIM,
    EmbeddingProvider,
    describe_audio_as_text,
    neutral_audio_record,
    window_embedding,
)
from .errors import DialogueParseError, EmbeddingError, ResponseParseError, SchemaError, StoreFormatError
from .model import (
    Dialogue,
    ScoringConfig,
    _as_list,
    loads_json,
    read_input,
    record_from_dict,
    record_to_dict,
    windowing_problem,
)

MAGIC = b"CMKB"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TimeWindow:
    """A contiguous span of utterances; text carries speaker prefixes and,
    for each utterance with audio, an inline audio description for prompt
    assembly (render_window_line)."""

    window_index: int
    dialogue_id: str
    start_index: int
    end_index: int  # inclusive
    text: str


@dataclass(frozen=True)
class KnowledgeBaseMeta:
    text_dim: int
    emotion_dim: int
    window_size: int
    stride: int
    provider_id: str
    entry_count: int

    @property
    def fused_dim(self) -> int:
        return self.text_dim + self.emotion_dim + 1


@dataclass
class KnowledgeBase:
    """Indexed (window, fused embedding) pairs, ordered by (dialogue_id,
    window_index). Immutable after indexing; safe for concurrent readers."""

    windows: list[TimeWindow]
    vectors: np.ndarray  # shape (entry_count, fused_dim)
    meta: KnowledgeBaseMeta


@dataclass(frozen=True)
class RetrievalHit:
    window: TimeWindow
    similarity: float


def render_window_line(utterance, audio) -> str:
    """One window-text line: "[#idx] speaker: text [voice: ...]", without
    the voice annotation when audio is None: a line states only the audio
    its dialogue has."""
    line = f"[#{utterance.index}] {utterance.speaker}: {utterance.text}"
    return line if audio is None else f"{line} {describe_audio_as_text(audio)}"


def build_windows(dialogue: Dialogue, window_size: int, stride: int) -> list[TimeWindow]:
    """Slice the dialogue into overlapping windows of up to window_size
    utterances, stride apart; the final window may be shorter. Each line is
    rendered once and a window's text joins its utterances' lines.

    stride must not exceed window_size or some utterances would fall in no
    window at all, losing context.
    """
    if problem := windowing_problem(window_size, stride):
        raise ValueError(problem)
    n = dialogue.n
    lines = [render_window_line(u, dialogue.audio.get(i)) for i, u in enumerate(dialogue.utterances)]
    windows = []
    for j, start in enumerate(range(0, n, stride)):
        end = min(start + window_size, n) - 1
        windows.append(TimeWindow(j, dialogue.id, start, end, "\n".join(lines[start : end + 1])))
        if end == n - 1:
            break
    return windows


def index_dialogue(
    dialogue: Dialogue,
    provider: EmbeddingProvider,
    *,
    window_size: int = ScoringConfig.window_size,
    stride: int = ScoringConfig.stride,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> KnowledgeBase:
    return index_corpus(
        [dialogue], provider, window_size=window_size, stride=stride, rate_scale=rate_scale
    )


def index_corpus(
    dialogues: Sequence[Dialogue],
    provider: EmbeddingProvider,
    *,
    window_size: int = ScoringConfig.window_size,
    stride: int = ScoringConfig.stride,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> KnowledgeBase:
    """Build one knowledge base over the dialogues, ordered by (dialogue_id,
    window_index); a repeated dialogue id or an empty corpus raises ValueError.

    The distinct utterance texts of the whole corpus are embedded with one
    embed_texts call. Then, one dialogue at a time, each utterance is fused
    once and a window's vector is the window_mean of its fused rows, the bits
    window_embedding gives.
    """
    if not dialogues:
        raise ValueError("cannot index an empty corpus")
    ordered = sorted(dialogues, key=lambda d: d.id)
    for prev, d in zip(ordered, ordered[1:]):
        if prev.id == d.id:
            raise ValueError(f"dialogue id {d.id!r} is indexed more than once")
    per_dialogue = [build_windows(d, window_size, stride) for d in ordered]
    windows = [w for ws in per_dialogue for w in ws]
    texts = dict.fromkeys(u.text for d in ordered for u in d.utterances)
    rows = np.zeros((len(windows), provider.dim + EMOTION_DIM + 1), dtype=np.float64)
    try:
        vectors = embedding.embed_texts(provider, texts)
        row = 0
        for d, ws in zip(ordered, per_dialogue):
            fused = [
                embedding.fuse(
                    vectors[u.text],
                    d.audio.get(k) or neutral_audio_record(u.index, rate_scale),
                    emotion_dim=EMOTION_DIM,
                    rate_scale=rate_scale,
                )
                for k, u in enumerate(d.utterances)
            ]
            for w in ws:
                rows[row] = embedding.window_mean(fused[w.start_index : w.end_index + 1])
                row += 1
    except Exception as exc:
        what = f"dialogue {ordered[0].id!r}" if len(ordered) == 1 else f"{len(ordered)} dialogues"
        where = f"indexing {what} ({len(texts)} distinct texts) failed"
        if isinstance(exc, ResponseParseError):
            raise ResponseParseError(f"{where}: {exc}", exc.raw) from exc
        raise EmbeddingError(f"{where}: {exc}") from exc
    meta = KnowledgeBaseMeta(
        text_dim=provider.dim,
        emotion_dim=EMOTION_DIM,
        window_size=window_size,
        stride=stride,
        provider_id=provider.id,
        entry_count=len(windows),
    )
    return KnowledgeBase(windows, rows, meta)


# Norms inside this range are computed from normal (not subnormal, not
# overflowing) squares, so the plain formula keeps full precision.
_NORM_SAFE_MIN = 1e-100
_NORM_SAFE_MAX = 1e100


def cosine_similarity(a, b) -> float:
    """(a . b) / (|a| |b|); raises on dimension mismatch or zero vectors."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    # np.vdot does not warn on overflow as np.linalg.norm does: an infinite
    # norm is rescaled below. On a contiguous vector the bits are norm's.
    na = math.sqrt(np.vdot(va, va))
    nb = math.sqrt(np.vdot(vb, vb))
    if not (_NORM_SAFE_MIN <= na <= _NORM_SAFE_MAX and _NORM_SAFE_MIN <= nb <= _NORM_SAFE_MAX):
        # Squares of very small (or large) components under- or overflow,
        # which breaks scale invariance; divide each vector by its largest
        # component first. Cosine is unchanged by positive scaling.
        ma = float(np.max(np.abs(va)))
        mb = float(np.max(np.abs(vb)))
        if ma == 0.0 or mb == 0.0:
            raise ValueError("cosine similarity is undefined for zero vectors")
        va, vb = va / ma, vb / mb
        na = float(np.linalg.norm(va))
        nb = float(np.linalg.norm(vb))
    return float(np.dot(va, vb)) / (na * nb)


def retrieve(
    query_window: TimeWindow,
    query_embedding,
    kb: KnowledgeBase,
    top_n: int,
) -> list[RetrievalHit]:
    """Exhaustive top-n scan by descending cosine similarity.

    The query window itself (same dialogue_id and window_index) is excluded;
    ties break by (dialogue_id, window_index) ascending. Fewer than top_n
    hits are returned when the base is small; a non-finite query raises ValueError.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    q = np.asarray(query_embedding, dtype=np.float64)
    if kb.meta.entry_count and q.shape[0] != kb.vectors.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[0]} does not match index dimension {kb.vectors.shape[1]}"
        )
    if not np.isfinite(q).all():
        raise ValueError(f"query embedding of window {query_window.window_index} is not finite")
    scored = []
    for i, window in enumerate(kb.windows):
        if (
            window.dialogue_id == query_window.dialogue_id
            and window.window_index == query_window.window_index
        ):
            continue
        sim = cosine_similarity(q, kb.vectors[i])
        scored.append((-sim, window.dialogue_id, window.window_index, i))
    scored.sort()
    return [
        RetrievalHit(kb.windows[i], -neg_sim)
        for neg_sim, _, _, i in scored[:top_n]
    ]


# ---------------------------------------------------------------------------
# Persistence (.cmkb): magic + version, then length-prefixed CRC-checked
# sections — meta JSON, window JSON, and the raw little-endian float64 matrix.
# ---------------------------------------------------------------------------


def _pack_section(payload: bytes) -> bytes:
    return struct.pack("<Q", len(payload)) + payload + struct.pack("<I", zlib.crc32(payload))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise StoreFormatError(f"truncated file while reading {what}")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def section(self, what: str) -> bytes:
        (length,) = struct.unpack("<Q", self.take(8, f"{what} length"))
        payload = self.take(length, what)
        (crc,) = struct.unpack("<I", self.take(4, f"{what} checksum"))
        if zlib.crc32(payload) != crc:
            raise StoreFormatError(f"checksum mismatch in {what} section")
        return payload


def save_kb(kb: KnowledgeBase) -> bytes:
    """Serialize to the versioned binary format; bit-identical for equal inputs."""
    def compact(value) -> bytes:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")

    matrix = np.ascontiguousarray(kb.vectors, dtype="<f8").tobytes()
    return (
        MAGIC
        + struct.pack("<H", FORMAT_VERSION)
        + _pack_section(compact(record_to_dict(kb.meta)))
        + _pack_section(compact([record_to_dict(w) for w in kb.windows]))
        + _pack_section(matrix)
    )


def load_kb(data: bytes) -> KnowledgeBase:
    """Parse bytes produced by save_kb; corruption, version drift, a field
    of the wrong type, a text_dim below 1 or emotion_dim not EMOTION_DIM, a
    window_size or stride build_windows refuses, a window whose start_index
    exceeds its end_index, windows not strictly increasing by (dialogue_id,
    window_index) and a non-finite vector component are rejected."""
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise StoreFormatError("not a knowledge-base file (bad magic)")
    (version,) = struct.unpack("<H", r.take(2, "version"))
    if version != FORMAT_VERSION:
        raise StoreFormatError(f"unsupported format version {version} (expected {FORMAT_VERSION})")

    try:
        meta = record_from_dict(KnowledgeBaseMeta, loads_json(r.section("meta")), "meta")
        windows = [
            record_from_dict(TimeWindow, o, f"windows[{i}]")
            for i, o in enumerate(_as_list(loads_json(r.section("windows")), "windows"))
        ]
    except (DialogueParseError, SchemaError) as exc:
        raise StoreFormatError(f"corrupt metadata: {exc}") from exc
    problem = windowing_problem(meta.window_size, meta.stride)
    if meta.text_dim < 1 or meta.emotion_dim != EMOTION_DIM:
        problem = (f"text_dim must be >= 1 and emotion_dim {EMOTION_DIM}, got "
                   f"{meta.text_dim} and {meta.emotion_dim}")
    if problem:
        raise StoreFormatError(f"corrupt metadata: meta: {problem}")
    matrix_bytes = r.section("vectors")
    if r.pos != len(data):
        raise StoreFormatError("trailing bytes after final section")
    for i, w in enumerate(windows):
        if w.start_index > w.end_index:
            raise StoreFormatError(
                f"corrupt metadata: windows[{i}]: start_index {w.start_index} "
                f"exceeds end_index {w.end_index}"
            )

    if len(windows) != meta.entry_count:
        raise StoreFormatError(
            f"window count {len(windows)} disagrees with entry_count {meta.entry_count}"
        )
    for prev, w in zip(windows, windows[1:]):
        key, before = (w.dialogue_id, w.window_index), (prev.dialogue_id, prev.window_index)
        if key == before:
            raise StoreFormatError(f"window {key} is stored more than once")
        if key < before:
            raise StoreFormatError(
                f"window {key} is stored after window {before}; windows must be "
                "ordered by (dialogue_id, window_index)"
            )
    expected = meta.entry_count * meta.fused_dim * 8
    if len(matrix_bytes) != expected:
        raise StoreFormatError(
            f"vector section is {len(matrix_bytes)} bytes, expected {expected}"
        )
    vectors = np.frombuffer(matrix_bytes, dtype="<f8").reshape(
        meta.entry_count, meta.fused_dim
    ).astype(np.float64)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise StoreFormatError(f"vectors[{int(finite.argmin())}] holds a NaN or infinite component")
    return KnowledgeBase(windows, vectors, meta)


def write_kb(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_bytes(save_kb(kb))


def read_kb(path: str | Path) -> KnowledgeBase:
    return read_input(path, load_kb)
