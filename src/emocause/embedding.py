"""Text embedding providers, multimodal fusion, and window-level aggregation.

A fused vector is the concatenation of a unit-norm text embedding, the
soft emotion distribution, and the speech rate scaled into a comparable
range, so the fused dimensionality is always text_dim + emotion_dim + 1.
embed_texts embeds a stage's distinct texts through a provider's optional
embed_many (one /embed request per EMBED_BATCH_SIZE texts), else per text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np
import requests

from .errors import EmbeddingError, FusionError, ResponseParseError, TransportError
from .model import AudioFeatureRecord, DEFAULT_EMOTION_CATEGORIES, Utterance
from .transport import JsonEndpoint

UNIT_NORM_TOLERANCE = 1e-6
DEFAULT_RATE_SCALE = 5.0
EMBED_BATCH_SIZE = 64  # texts per /embed request; bounds one long dialogue's body

KIND_TEXT = "text"
KIND_AUDIO_EMOTION = "audio_emotion"
KIND_FUSED = "fused"


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A vector tagged with what it represents (text, emotion, or fused)."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


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

    Reproducible across runs and platforms with no model dependency.
    """

    mode = "deterministic_test"

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.seed = seed
        self.id = f"hash:{dim}:{seed}"

    def embed(self, text: str) -> np.ndarray:
        tokens = text.casefold().split()
        if not tokens:
            raise EmbeddingError("cannot embed blank text")
        total = np.zeros(self.dim, dtype=np.float64)
        for token in tokens:
            digest = hashlib.blake2b(
                f"{self.seed}:{token}".encode("utf-8"), digest_size=8
            ).digest()
            rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
            total += rng.standard_normal(self.dim)
        norm = float(np.linalg.norm(total))
        if norm == 0.0:
            raise EmbeddingError("token hash collision produced a zero vector")
        return total / norm


class RemoteTextEmbedder:
    """HTTP embedding provider.

    POST {model, input: [text, ...]} -> {embeddings: [[...], ...]}, one row
    per text in input order; embed_many posts each chunk of at most
    EMBED_BATCH_SIZE texts, and embed(text) is embed_many([text])[0]. A reply
    without one numeric row per text raises ResponseParseError; a zero row or
    one of the wrong dimension raises EmbeddingError. Rows are unit-normalized.
    """

    mode = "remote"

    def __init__(
        self,
        model: str,
        dim: int,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        self.model = model
        self.dim = dim
        self.id = f"remote:{model}"
        try:
            self._http = JsonEndpoint("embedding", "EMBED", endpoint, api_key, timeout, session)
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
                vecs = [np.asarray(row, dtype=np.float64) for row in got]
            except (KeyError, TypeError, ValueError) as exc:
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
    """Build a provider from a spec string: "hash:<dim>:<seed>" or "remote:<model>:<dim>"."""
    parts = spec.split(":")
    if parts[0] == "hash":
        dim = int(parts[1]) if len(parts) > 1 else 64
        seed = int(parts[2]) if len(parts) > 2 else 0
        return HashTextEmbedder(dim=dim, seed=seed)
    if parts[0] == "remote":
        if len(parts) < 3:
            raise EmbeddingError("remote embedder spec must be remote:<model>:<dim>")
        return RemoteTextEmbedder(model=parts[1], dim=int(parts[2]))
    raise EmbeddingError(f"unknown embedding provider spec {spec!r}")


def embed_texts(provider: EmbeddingProvider, texts: Iterable[str]) -> dict[str, EmbeddingVector]:
    """Embed each distinct non-blank text once, keyed in first-seen order:
    one provider.embed_many call when the provider has that method, else one
    provider.embed call per text. Each result is unit-norm within 1e-6."""
    distinct = list(dict.fromkeys(texts))
    if not all(text.strip() for text in distinct):
        raise ValueError("text must be non-empty")
    embed_many = getattr(provider, "embed_many", None)
    rows = embed_many(distinct) if embed_many else [provider.embed(t) for t in distinct]
    for values in rows:
        norm = float(np.linalg.norm(values))
        if abs(norm - 1.0) > UNIT_NORM_TOLERANCE:
            raise EmbeddingError(f"provider {provider.id} returned a non-unit vector (norm {norm!r})")
    return dict(zip(distinct, [EmbeddingVector(v, KIND_TEXT) for v in rows], strict=True))


def embed_text(provider: EmbeddingProvider, text: str) -> EmbeddingVector:
    """Embed non-blank text; the result is unit-norm within 1e-6."""
    return embed_texts(provider, [text])[text]


def fuse(
    text_emb: EmbeddingVector,
    audio: AudioFeatureRecord,
    *,
    emotion_dim: int,
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> EmbeddingVector:
    """Concatenate text embedding, emotion distribution and scaled speech rate.

    The output has dimension text_dim + emotion_dim + 1 and each component
    slice is recoverable by offset.
    """
    if text_emb.kind != KIND_TEXT:
        raise FusionError(f"expected a text embedding, got kind {text_emb.kind!r}")
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
    fused = np.concatenate(
        [
            text_emb.values,
            np.asarray(audio.emotion, dtype=np.float64),
            np.asarray([audio.speech_rate / rate_scale], dtype=np.float64),
        ]
    )
    return EmbeddingVector(fused, KIND_FUSED)


def neutral_audio_record(
    utterance_index: int,
    emotion_dim: int = len(DEFAULT_EMOTION_CATEGORIES),
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> AudioFeatureRecord:
    """Stand-in record for utterances without audio: uniform emotion,
    mid-range intensity and speech rate, so text-only corpora still fuse."""
    return AudioFeatureRecord(
        utterance_index=utterance_index,
        emotion=tuple(1.0 / emotion_dim for _ in range(emotion_dim)),
        intensity=0.5,
        speech_rate=rate_scale * 0.5,
    )


def window_embedding(
    window_utterances: Sequence[tuple[Utterance, AudioFeatureRecord | None]],
    provider: EmbeddingProvider,
    *,
    emotion_dim: int = len(DEFAULT_EMOTION_CATEGORIES),
    rate_scale: float = DEFAULT_RATE_SCALE,
) -> EmbeddingVector:
    """Element-wise mean of the per-utterance fused embeddings of a window."""
    if not window_utterances:
        raise ValueError("window must contain at least one utterance")
    rows = []
    for utterance, audio in window_utterances:
        if audio is None:
            audio = neutral_audio_record(utterance.index, emotion_dim, rate_scale)
        text_emb = embed_text(provider, utterance.text)
        rows.append(fuse(text_emb, audio, emotion_dim=emotion_dim, rate_scale=rate_scale).values)
    mean = np.mean(np.stack(rows, axis=0), axis=0)
    return EmbeddingVector(mean, KIND_FUSED)


def describe_audio_as_text(
    audio: AudioFeatureRecord, categories: Sequence[str] = DEFAULT_EMOTION_CATEGORIES
) -> str:
    """Render audio features as a deterministic inline annotation.

    Argmax ties break toward the lowest category index.
    """
    if len(audio.emotion) != len(categories):
        raise ValueError(
            f"emotion vector has {len(audio.emotion)} components "
            f"but {len(categories)} categories were given"
        )
    best = 0
    for i, value in enumerate(audio.emotion):
        if value > audio.emotion[best]:
            best = i
    return (
        f"[voice: {categories[best]}, intensity: {audio.intensity:.2f}, "
        f"rate: {audio.speech_rate:.2f} w/s]"
    )
