"""Text embedding providers, multimodal fusion, and window-level aggregation.

Every vector is a plain float64 np.ndarray. A fused vector is the
concatenation of a unit-norm text embedding, the soft emotion distribution,
and the speech rate scaled into a comparable range: text_dim + emotion_dim +
1 wide. embed_texts embeds a stage's distinct texts, read-only, through a
provider's optional embed_many (one /embed request per EMBED_BATCH_SIZE
texts), else per text.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import EmbeddingError, FusionError, ResponseParseError, TransportError
from .model import AudioFeatureRecord, DEFAULT_EMOTION_CATEGORIES, ScoringConfig, Utterance
from .transport import JsonEndpoint

UNIT_NORM_TOLERANCE = 1e-6
DEFAULT_RATE_SCALE = ScoringConfig.rate_scale
EMBED_BATCH_SIZE = 64  # texts per /embed request; bounds one long dialogue's body
EMOTION_DIM = len(DEFAULT_EMOTION_CATEGORIES)

@runtime_checkable
class EmbeddingProvider(Protocol):
    """Maps text to a fixed-dimension vector, the same for the same input
    and provider id; an optional embed_many(texts) returns one per text."""

    id: str
    dim: int
    mode: str

    def embed(self, text: str) -> np.ndarray: ...


class HashTextEmbedder:
    """Deterministic test embedder: each case-folded token seeds a PCG64
    stream whose draws are summed over tokens and unit-normalized.

    Reproducible across runs and platforms with no model dependency. Each
    token's draw is made once, kept read-only in a thread-safe LRU memo of
    4,096 token hashes (at most 4,096 * (8 * dim + 500) bytes, 4 MB at dim 64)
    and added in token order, so a vector has the bits it has without the memo.
    """

    mode = "deterministic_test"

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.seed = seed
        self.id = f"hash:{dim}:{seed}"
        self._draw = functools.lru_cache(4096)(functools.partial(_token_draw, dim))

    def embed(self, text: str) -> np.ndarray:
        tokens = text.casefold().split()
        if not tokens:
            raise EmbeddingError("cannot embed blank text")
        total = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            digest = hashlib.blake2b(f"{self.seed}:{token}".encode("utf-8"), digest_size=8).digest()
            total += self._draw(digest)
        norm = float(np.linalg.norm(total))
        if norm == 0.0:
            raise EmbeddingError("token hash collision produced a zero vector")
        return total / norm


def _token_draw(dim: int, digest: bytes) -> np.ndarray:
    draw = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little"))).standard_normal(dim)
    draw.setflags(write=False)  # one array serves every text holding the token
    return draw


class RemoteTextEmbedder:
    """HTTP embedding provider.

    POST {model, input: [text, ...]} -> {embeddings: [[...], ...]}, one row
    per text in input order; embed_many posts each chunk of at most
    EMBED_BATCH_SIZE texts, and embed(text) is embed_many([text])[0]. A reply
    without one row of finite JSON numbers per text raises ResponseParseError;
    a zero row or one of the wrong dimension raises EmbeddingError. Rows are
    unit-normalized.
    """

    mode = "remote"

    def __init__(
        self,
        model: str,
        dim: int,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
        session: object = None,  # never read; benchmarks/workloads.py passes one until ROADMAP item 1b
    ):
        if dim < 1:  # refused before the endpoint is resolved: no request is sent
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.model = model
        self.dim = dim
        self.id = f"remote:{model}"
        try:
            self._http = JsonEndpoint("embedding", "EMBED", endpoint, api_key, timeout)
        except TransportError as exc:
            raise EmbeddingError(str(exc)) from exc

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        rows = []
        for start in range(0, len(texts), EMBED_BATCH_SIZE):
            chunk = list(texts[start : start + EMBED_BATCH_SIZE])
            reply = self._http.call({"model": self.model, "input": chunk})
            try:
                got = reply["embeddings"]
                if len(got) != len(chunk):
                    raise ValueError(f"{len(got)} embeddings for {len(chunk)} texts")
                # np.asarray would read null as NaN and true or "0.6" as numbers
                kinds = set(map(type, itertools.chain.from_iterable(got))) - {int, float}
                if kinds:
                    raise TypeError(f"non-number components: {sorted(k.__name__ for k in kinds)}")
                vecs = [np.asarray(row, dtype=np.float64) for row in got]
                if not all(np.isfinite(vec).all() for vec in vecs):
                    raise ValueError("non-finite components")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ResponseParseError(f"malformed embedding response: {exc}", json.dumps(reply)) from exc
            for vec in vecs:
                if vec.ndim != 1 or vec.shape[0] != self.dim:
                    raise EmbeddingError(
                        f"embedding has dimension {vec.shape}, provider configured for {self.dim}"
                    )
                norm = float(np.linalg.norm(vec))
                if norm == 0.0:
                    raise EmbeddingError("embedding endpoint returned a zero vector")
                rows.append(vec / norm)
        return rows


def provider_from_spec(spec: str) -> EmbeddingProvider:
    """Build a provider from a spec string: "hash:<dim>:<seed>" or "remote:<model>:<dim>",
    the dim after the last ':', so that a model name may hold one."""
    parts = spec.split(":")
    if parts[0] == "hash" and len(parts) <= 3:
        dim = int(parts[1]) if len(parts) > 1 else 64
        seed = int(parts[2]) if len(parts) > 2 else 0
        return HashTextEmbedder(dim=dim, seed=seed)
    model, _, dim = spec.removeprefix("remote:").rpartition(":")
    if parts[0] == "remote" and model:
        return RemoteTextEmbedder(model=model, dim=int(dim))
    raise ValueError(f"embedding provider spec {spec!r} is not hash:<dim>:<seed> or remote:<model>:<dim>")


def embed_texts(provider: EmbeddingProvider, texts: Iterable[str]) -> dict[str, np.ndarray]:
    """Embed each distinct non-blank text once, keyed in first-seen order:
    one provider.embed_many call when the provider has that method, else one
    provider.embed call per text. Each result is a read-only float64 array,
    unit-norm within 1e-6."""
    distinct = list(dict.fromkeys(texts))
    if not all(text.strip() for text in distinct):
        raise ValueError("text must be non-empty")
    embed_many = getattr(provider, "embed_many", None)
    rows = embed_many(distinct) if embed_many else [provider.embed(t) for t in distinct]
    rows = [np.asarray(v, dtype=np.float64) for v in rows]
    for values in rows:
        norm = float(np.linalg.norm(values))
        if not abs(norm - 1.0) <= UNIT_NORM_TOLERANCE:  # NaN fails too
            raise EmbeddingError(f"provider {provider.id} returned a non-unit vector (norm {norm!r})")
        values.setflags(write=False)
    return dict(zip(distinct, rows, strict=True))


def embed_text(provider: EmbeddingProvider, text: str) -> np.ndarray:
    """Embed non-blank text; the result is unit-norm within 1e-6."""
    return embed_texts(provider, [text])[text]


def fuse(
    text_emb: np.ndarray,
    audio: AudioFeatureRecord,
    *,
    emotion_dim: int,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> np.ndarray:
    """Concatenate a unit-norm text embedding (a fused vector never is one),
    the emotion distribution and the scaled speech rate. The output has
    dimension text_dim + emotion_dim + 1 and each component slice is
    recoverable by offset.
    """
    text_norm = float(np.linalg.norm(text_emb))
    if not abs(text_norm - 1.0) <= UNIT_NORM_TOLERANCE:  # NaN fails too
        raise FusionError(f"expected a unit-norm text embedding, got norm {text_norm!r}")
    problems = audio.problems()
    if problems:
        raise FusionError(
            f"audio record for utterance {audio.utterance_index} is invalid: "
            + "; ".join(problems)
        )
    if len(audio.emotion) != emotion_dim:
        raise FusionError(
            f"emotion vector has {len(audio.emotion)} components, expected {emotion_dim}"
        )
    if rate_scale <= 0.0:
        raise FusionError(f"rate_scale must be > 0, got {rate_scale!r}")
    return np.concatenate(
        [
            text_emb,
            np.asarray(audio.emotion, dtype=np.float64),
            np.asarray([audio.speech_rate / rate_scale], dtype=np.float64),
        ]
    )


def neutral_audio_record(
    utterance_index: int, rate_scale: float = DEFAULT_RATE_SCALE
) -> AudioFeatureRecord:
    """Stand-in record for utterances without audio: uniform emotion,
    mid-range intensity and speech rate, so text-only corpora still fuse."""
    return AudioFeatureRecord(
        utterance_index=utterance_index,
        emotion=tuple(1.0 / EMOTION_DIM for _ in range(EMOTION_DIM)),
        intensity=0.5,
        speech_rate=rate_scale * 0.5,
    )


def window_embedding(
    window_utterances: Sequence[tuple[Utterance, AudioFeatureRecord | None]],
    provider: EmbeddingProvider,
    *,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> np.ndarray:
    """Element-wise mean of the per-utterance fused embeddings of a window."""
    if not window_utterances:
        raise ValueError("window must contain at least one utterance")
    rows = []
    for utterance, audio in window_utterances:
        if audio is None:
            audio = neutral_audio_record(utterance.index, rate_scale)
        text_emb = embed_text(provider, utterance.text)
        rows.append(fuse(text_emb, audio, emotion_dim=EMOTION_DIM, rate_scale=rate_scale))
    return window_mean(rows)


def window_mean(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise mean of a window's fused rows; window_embedding and
    kb.index_corpus both take it here, so the two agree bit for bit."""
    return np.mean(np.stack(rows, axis=0), axis=0)


def describe_audio_as_text(audio: AudioFeatureRecord) -> str:
    """Render audio features as a deterministic inline annotation.

    Argmax ties break toward the lowest category index.
    """
    if len(audio.emotion) != EMOTION_DIM:
        raise ValueError(
            f"emotion vector has {len(audio.emotion)} components, "
            f"expected {EMOTION_DIM}: one per category of {DEFAULT_EMOTION_CATEGORIES}"
        )
    best = 0
    for i, value in enumerate(audio.emotion):
        if value > audio.emotion[best]:
            best = i
    return (
        f"[voice: {DEFAULT_EMOTION_CATEGORIES[best]}, intensity: {audio.intensity:.2f}, "
        f"rate: {audio.speech_rate:.2f} w/s]"
    )
