"""Sliding-window knowledge base: construction, exact retrieval, persistence.

Windows advance by a fixed stride so consecutive windows overlap and every
utterance is covered. Retrieval is an exhaustive cosine-similarity scan —
desk-scale corpora do not justify an approximate index, and exactness is
what makes brute-force oracle testing possible.
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
    EmbeddingProvider,
    EmbeddingVector,
    describe_audio_as_text,
    neutral_audio_record,
    window_embedding,
)
from .errors import EmbeddingError, ResponseParseError, StoreFormatError
from .model import DEFAULT_EMOTION_CATEGORIES, Dialogue

MAGIC = b"CMKB"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TimeWindow:
    """A contiguous span of utterances; text carries speaker prefixes and
    inline audio descriptions for prompt assembly."""

    window_index: int
    dialogue_id: str
    start_index: int
    end_index: int  # inclusive
    text: str

    @property
    def size(self) -> int:
        return self.end_index - self.start_index + 1


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

    def find(self, dialogue_id: str, window_index: int) -> int | None:
        for i, w in enumerate(self.windows):
            if w.dialogue_id == dialogue_id and w.window_index == window_index:
                return i
        return None


@dataclass(frozen=True)
class RetrievalHit:
    window: TimeWindow
    embedding: np.ndarray
    similarity: float


def render_window_line(
    utterance, audio, categories: Sequence[str] = DEFAULT_EMOTION_CATEGORIES
) -> str:
    """One window-text line: "[#idx] speaker: text [voice: ...]"."""
    return (
        f"[#{utterance.index}] {utterance.speaker}: {utterance.text} "
        f"{describe_audio_as_text(audio, categories)}"
    )


def build_windows(
    dialogue: Dialogue,
    window_size: int,
    stride: int,
    *,
    categories: Sequence[str] = DEFAULT_EMOTION_CATEGORIES,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> list[TimeWindow]:
    """Slice the dialogue into overlapping windows of up to window_size
    utterances, stride apart; the final window may be shorter.

    stride must not exceed window_size or some utterances would fall in no
    window at all, losing context.
    """
    if window_size < 2:
        raise ValueError(f"window_size must be >= 2, got {window_size}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if stride > window_size:
        raise ValueError(
            f"stride ({stride}) must not exceed window_size ({window_size}); "
            "larger strides would leave utterances uncovered"
        )
    n = dialogue.n
    if n == 0:
        return []

    emotion_dim = len(categories)
    windows = []
    j = 0
    while True:
        start = j * stride
        end = min(start + window_size - 1, n - 1)
        lines = []
        for i in range(start, end + 1):
            u = dialogue.utterances[i]
            audio = dialogue.audio.get(i) or neutral_audio_record(i, emotion_dim, rate_scale)
            lines.append(render_window_line(u, audio, categories))
        windows.append(
            TimeWindow(
                window_index=j,
                dialogue_id=dialogue.id,
                start_index=start,
                end_index=end,
                text="\n".join(lines),
            )
        )
        if end >= n - 1:
            break
        j += 1
    return windows


def index_windows(
    windows: Sequence[TimeWindow],
    dialogue: Dialogue,
    provider: EmbeddingProvider,
    *,
    window_size: int,
    stride: int,
    categories: Sequence[str] = DEFAULT_EMOTION_CATEGORIES,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> KnowledgeBase:
    """Embed each window and assemble the knowledge base entries: the
    distinct utterance texts the windows cover are embedded with one
    embed_texts call, each utterance is fused once, and a window's vector is
    the mean of its fused rows, as window_embedding computes it."""
    emotion_dim = len(categories)
    spans = [range(w.start_index, w.end_index + 1) for w in windows]
    covered = dict.fromkeys(k for span in spans for k in span)
    texts = dict.fromkeys(dialogue.utterances[k].text for k in covered)
    try:
        vectors = embedding.embed_texts(provider, texts)
        fused = {}
        for k in covered:
            u = dialogue.utterances[k]
            audio = dialogue.audio.get(k) or neutral_audio_record(u.index, emotion_dim, rate_scale)
            fused[k] = embedding.fuse(
                vectors[u.text], audio, emotion_dim=emotion_dim, rate_scale=rate_scale
            ).values
    except Exception as exc:
        where = f"indexing dialogue {dialogue.id!r} ({len(texts)} distinct texts) failed"
        if isinstance(exc, ResponseParseError):
            raise ResponseParseError(f"{where}: {exc}", exc.raw) from exc
        raise EmbeddingError(f"{where}: {exc}") from exc
    rows = np.zeros((len(windows), provider.dim + emotion_dim + 1), dtype=np.float64)
    for i, span in enumerate(spans):
        rows[i] = np.mean(np.stack([fused[k] for k in span], axis=0), axis=0)
    meta = KnowledgeBaseMeta(
        text_dim=provider.dim,
        emotion_dim=emotion_dim,
        window_size=window_size,
        stride=stride,
        provider_id=provider.id,
        entry_count=len(windows),
    )
    return KnowledgeBase(list(windows), rows, meta)


def index_dialogue(
    dialogue: Dialogue,
    provider: EmbeddingProvider,
    *,
    window_size: int = 10,
    stride: int = 5,
    categories: Sequence[str] = DEFAULT_EMOTION_CATEGORIES,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> KnowledgeBase:
    windows = build_windows(
        dialogue, window_size, stride, categories=categories, rate_scale=rate_scale
    )
    return index_windows(
        windows,
        dialogue,
        provider,
        window_size=window_size,
        stride=stride,
        categories=categories,
        rate_scale=rate_scale,
    )


def _repeated_key(windows) -> tuple[str, int] | None:
    """The first (dialogue_id, window_index) key seen twice, if any."""
    seen = set()
    for w in windows:
        key = (w.dialogue_id, w.window_index)
        if key in seen:
            return key
        seen.add(key)
    return None


def merge(kbs: Sequence[KnowledgeBase]) -> KnowledgeBase:
    """Combine per-dialogue bases; entries are re-sorted into the canonical
    (dialogue_id, window_index) order. A dialogue id may come from one base only."""
    if not kbs:
        raise ValueError("nothing to merge")
    first = kbs[0].meta
    for kb in kbs[1:]:
        m = kb.meta
        if (m.text_dim, m.emotion_dim, m.window_size, m.stride, m.provider_id) != (
            first.text_dim,
            first.emotion_dim,
            first.window_size,
            first.stride,
            first.provider_id,
        ):
            raise ValueError("knowledge bases were built with different parameters")
    pairs = [(w, v) for kb in kbs for w, v in zip(kb.windows, kb.vectors)]
    pairs.sort(key=lambda p: (p[0].dialogue_id, p[0].window_index))
    repeated = _repeated_key(w for w, _ in pairs)
    if repeated is not None:
        raise ValueError(f"dialogue id {repeated[0]!r} is indexed more than once")
    vectors = (
        np.stack([v for _, v in pairs], axis=0)
        if pairs
        else np.zeros((0, first.fused_dim), dtype=np.float64)
    )
    meta = KnowledgeBaseMeta(
        text_dim=first.text_dim,
        emotion_dim=first.emotion_dim,
        window_size=first.window_size,
        stride=first.stride,
        provider_id=first.provider_id,
        entry_count=len(pairs),
    )
    return KnowledgeBase([w for w, _ in pairs], vectors, meta)


def index_corpus(
    dialogues: Sequence[Dialogue],
    provider: EmbeddingProvider,
    *,
    window_size: int = 10,
    stride: int = 5,
    categories: Sequence[str] = DEFAULT_EMOTION_CATEGORIES,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> KnowledgeBase:
    return merge(
        [
            index_dialogue(
                d,
                provider,
                window_size=window_size,
                stride=stride,
                categories=categories,
                rate_scale=rate_scale,
            )
            for d in dialogues
        ]
    )


# Norms inside this range are computed from normal (not subnormal, not
# overflowing) squares, so the plain formula keeps full precision.
_NORM_SAFE_MIN = 1e-100
_NORM_SAFE_MAX = 1e100


def cosine_similarity(a, b) -> float:
    """(a . b) / (|a| |b|); raises on dimension mismatch or zero vectors."""
    va = a.values if isinstance(a, EmbeddingVector) else np.asarray(a, dtype=np.float64)
    vb = b.values if isinstance(b, EmbeddingVector) else np.asarray(b, dtype=np.float64)
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
    hits are returned when the base is small.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    q = (
        query_embedding.values
        if isinstance(query_embedding, EmbeddingVector)
        else np.asarray(query_embedding, dtype=np.float64)
    )
    if kb.meta.entry_count and q.shape[0] != kb.vectors.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[0]} does not match index dimension {kb.vectors.shape[1]}"
        )
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
        RetrievalHit(kb.windows[i], kb.vectors[i], -neg_sim)
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
    meta_payload = json.dumps(
        {
            "text_dim": kb.meta.text_dim,
            "emotion_dim": kb.meta.emotion_dim,
            "window_size": kb.meta.window_size,
            "stride": kb.meta.stride,
            "provider_id": kb.meta.provider_id,
            "entry_count": kb.meta.entry_count,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    windows_payload = json.dumps(
        [
            {
                "window_index": w.window_index,
                "dialogue_id": w.dialogue_id,
                "start_index": w.start_index,
                "end_index": w.end_index,
                "text": w.text,
            }
            for w in kb.windows
        ],
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    matrix = np.ascontiguousarray(kb.vectors, dtype="<f8").tobytes()
    return (
        MAGIC
        + struct.pack("<H", FORMAT_VERSION)
        + _pack_section(meta_payload)
        + _pack_section(windows_payload)
        + _pack_section(matrix)
    )


def load_kb(data: bytes) -> KnowledgeBase:
    """Parse bytes produced by save_kb; corruption, version drift and a
    repeated (dialogue_id, window_index) key are rejected."""
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise StoreFormatError("not a knowledge-base file (bad magic)")
    (version,) = struct.unpack("<H", r.take(2, "version"))
    if version != FORMAT_VERSION:
        raise StoreFormatError(f"unsupported format version {version} (expected {FORMAT_VERSION})")

    try:
        meta_obj = json.loads(r.section("meta"))
        window_objs = json.loads(r.section("windows"))
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"corrupt metadata: {exc}") from exc
    matrix_bytes = r.section("vectors")
    if r.pos != len(data):
        raise StoreFormatError("trailing bytes after final section")

    try:
        meta = KnowledgeBaseMeta(
            text_dim=int(meta_obj["text_dim"]),
            emotion_dim=int(meta_obj["emotion_dim"]),
            window_size=int(meta_obj["window_size"]),
            stride=int(meta_obj["stride"]),
            provider_id=str(meta_obj["provider_id"]),
            entry_count=int(meta_obj["entry_count"]),
        )
        windows = [
            TimeWindow(
                window_index=int(o["window_index"]),
                dialogue_id=str(o["dialogue_id"]),
                start_index=int(o["start_index"]),
                end_index=int(o["end_index"]),
                text=str(o["text"]),
            )
            for o in window_objs
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreFormatError(f"corrupt metadata: {exc}") from exc

    if len(windows) != meta.entry_count:
        raise StoreFormatError(
            f"window count {len(windows)} disagrees with entry_count {meta.entry_count}"
        )
    repeated = _repeated_key(windows)
    if repeated is not None:
        raise StoreFormatError(f"window {repeated} is stored more than once")
    expected = meta.entry_count * meta.fused_dim * 8
    if len(matrix_bytes) != expected:
        raise StoreFormatError(
            f"vector section is {len(matrix_bytes)} bytes, expected {expected}"
        )
    vectors = np.frombuffer(matrix_bytes, dtype="<f8").reshape(
        meta.entry_count, meta.fused_dim
    ).astype(np.float64)
    return KnowledgeBase(windows, vectors, meta)


def write_kb(kb: KnowledgeBase, path: str | Path) -> None:
    Path(path).write_bytes(save_kb(kb))


def read_kb(path: str | Path) -> KnowledgeBase:
    return load_kb(Path(path).read_bytes())
