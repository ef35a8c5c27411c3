"""Embedding providers, fusion layout, window pooling, audio descriptions."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.embedding import (
    EMBED_BATCH_SIZE,
    EmbeddingVector,
    HashTextEmbedder,
    RemoteTextEmbedder,
    describe_audio_as_text,
    embed_text,
    embed_texts,
    fuse,
    neutral_audio_record,
    provider_from_spec,
    window_embedding,
)
from emocause.errors import EmbeddingError, FusionError, ResponseParseError, TransportError
from emocause.model import AudioFeatureRecord

from conftest import ScriptedSession, make_audio, make_utterance


def test_embed_text_deterministic(embedder):
    a = embed_text(embedder, "hello")
    b = embed_text(embedder, "hello")
    assert np.array_equal(a.values, b.values)


def test_embed_text_unit_norm(embedder):
    for text in ("a", "some longer text with words", "Mixed CASE Tokens"):
        v = embed_text(embedder, text)
        assert abs(np.linalg.norm(v.values) - 1.0) <= 1e-6


def test_embed_distinct_texts_differ(embedder):
    a = embed_text(embedder, "a").values
    b = embed_text(embedder, "b").values
    assert float(np.dot(a, b)) < 1.0 - 1e-6


def test_embed_text_rejects_blank(embedder):
    with pytest.raises(ValueError):
        embed_text(embedder, "")
    with pytest.raises((ValueError, EmbeddingError)):
        embed_text(embedder, "   ")


def test_embedder_casefolds_tokens(embedder):
    assert np.array_equal(embed_text(embedder, "Hello").values, embed_text(embedder, "hello").values)


def test_provider_from_spec_round_trip():
    p = provider_from_spec("hash:32:5")
    assert (p.dim, p.seed, p.id) == (32, 5, "hash:32:5")
    with pytest.raises(EmbeddingError):
        provider_from_spec("unknown:thing")


def test_fuse_concatenation_example():
    # d_t=4 text, d_e=2 emotion, rate 2.0 scaled by 5 -> trailing 0.4
    text = EmbeddingVector(np.array([0.5, 0.5, 0.5, 0.5]), "text")
    audio = AudioFeatureRecord(0, (1.0, 0.0), intensity=0.8, speech_rate=2.0)
    fused = fuse(text, audio, emotion_dim=2, rate_scale=5.0)
    assert fused.dim == 7
    assert fused.values.tolist() == [0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 0.4]


def test_fuse_dim_adds_one():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(384)
    text = EmbeddingVector(raw / np.linalg.norm(raw), "text")
    audio = make_audio(0)
    fused = fuse(text, audio, emotion_dim=8)
    assert fused.dim == 384 + 8 + 1


def test_fuse_rejects_invalid_audio():
    text = EmbeddingVector(np.array([1.0, 0.0]), "text")
    zeroed = AudioFeatureRecord(0, (0.0, 0.0), intensity=0.5, speech_rate=1.0)
    with pytest.raises(FusionError):
        fuse(text, zeroed, emotion_dim=2)


def test_fuse_rejects_emotion_dim_mismatch():
    text = EmbeddingVector(np.array([1.0, 0.0]), "text")
    audio = AudioFeatureRecord(0, (0.5, 0.5), intensity=0.5, speech_rate=1.0)
    with pytest.raises(FusionError, match="components"):
        fuse(text, audio, emotion_dim=4)


def test_fuse_rejects_non_text_embedding():
    fused_kind = EmbeddingVector(np.array([1.0, 0.0]), "fused")
    with pytest.raises(FusionError):
        fuse(fused_kind, make_audio(0), emotion_dim=8)


@given(st.integers(2, 48), st.integers(2, 12), st.floats(0.2, 9.0))
@settings(max_examples=30)
def test_fuse_slice_recovery(d_t, d_e, rate):
    rng = np.random.default_rng(d_t * 100 + d_e)
    raw = rng.standard_normal(d_t)
    text = EmbeddingVector(raw / np.linalg.norm(raw), "text")
    emotion = rng.random(d_e) + 0.05
    emotion = tuple(float(x) for x in emotion / emotion.sum())
    audio = AudioFeatureRecord(0, emotion, intensity=0.5, speech_rate=rate)
    fused = fuse(text, audio, emotion_dim=d_e, rate_scale=5.0).values
    assert np.array_equal(fused[:d_t], text.values)
    assert np.array_equal(fused[d_t : d_t + d_e], np.asarray(emotion))
    assert fused[d_t + d_e] == rate / 5.0


def test_window_embedding_single_equals_fused(embedder):
    u = make_utterance(0)
    audio = make_audio(0)
    window = window_embedding([(u, audio)], embedder)
    direct = fuse(embed_text(embedder, u.text), audio, emotion_dim=8)
    assert np.array_equal(window.values, direct.values)


def test_window_embedding_two_mean(embedder):
    pairs = [(make_utterance(0, text="alpha beta"), make_audio(0)),
             (make_utterance(1, text="gamma delta"), make_audio(1, peak=2))]
    window = window_embedding(pairs, embedder)
    v = fuse(embed_text(embedder, "alpha beta"), pairs[0][1], emotion_dim=8).values
    w = fuse(embed_text(embedder, "gamma delta"), pairs[1][1], emotion_dim=8).values
    assert np.allclose(window.values, (v + w) / 2.0, rtol=0, atol=1e-15)


def test_window_embedding_matches_bruteforce_mean(embedder):
    # ten-utterance window vs an independently computed element-wise mean
    pairs = [
        (make_utterance(i, text=f"turn {i} content words"), make_audio(i, peak=i % 8))
        for i in range(10)
    ]
    window = window_embedding(pairs, embedder).values
    rows = [
        fuse(embed_text(embedder, u.text), a, emotion_dim=8).values for u, a in pairs
    ]
    expected = [sum(row[j] for row in rows) / len(rows) for j in range(len(rows[0]))]
    assert np.allclose(window, expected, rtol=0, atol=1e-12)


def test_window_embedding_uses_neutral_default(embedder):
    u = make_utterance(0)
    implicit = window_embedding([(u, None)], embedder)
    explicit = window_embedding([(u, neutral_audio_record(0, 8, 5.0))], embedder)
    assert np.array_equal(implicit.values, explicit.values)


def test_window_embedding_identical_vectors_fixed_point(embedder):
    pairs = [(make_utterance(i, text="same text"), make_audio(i)) for i in range(3)]
    window = window_embedding(pairs, embedder).values
    single = fuse(embed_text(embedder, "same text"), make_audio(0), emotion_dim=8).values
    assert np.allclose(window, single, rtol=0, atol=1e-12)


def test_window_embedding_rejects_empty(embedder):
    with pytest.raises(ValueError):
        window_embedding([], embedder)


def test_describe_audio_template():
    audio = AudioFeatureRecord(
        0, (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0), intensity=0.9, speech_rate=3.1
    )
    assert describe_audio_as_text(audio) == "[voice: angry, intensity: 0.90, rate: 3.10 w/s]"


def test_describe_audio_tie_breaks_to_first_category():
    audio = AudioFeatureRecord(0, tuple([0.125] * 8), intensity=0.5, speech_rate=1.0)
    assert describe_audio_as_text(audio).startswith("[voice: happy,")


def test_describe_audio_rounding():
    audio = AudioFeatureRecord(0, (1.0,) + (0.0,) * 7, intensity=0.456, speech_rate=1.0)
    assert "intensity: 0.46," in describe_audio_as_text(audio)


def test_describe_audio_category_count_mismatch():
    with pytest.raises(ValueError):
        describe_audio_as_text(make_audio(0, dim=4), categories=("a", "b"))


def test_remote_embedder_normalizes_and_posts_contract():
    session = ScriptedSession((200, {"embeddings": [[3.0, 4.0]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint="http://e", api_key="k", session=session)
    v = embed_text(provider, "hello")
    assert np.allclose(v.values, [0.6, 0.8])
    request = session.requests[0]
    assert request.url == "http://e/"
    assert json.loads(request.body) == {"model": "m1", "input": ["hello"]}
    assert request.headers["Authorization"] == "Bearer k"


def test_remote_embedder_http_error_is_transport():
    session = ScriptedSession((503, {}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint="http://e", session=session)
    with pytest.raises(TransportError, match="retry"):
        provider.embed("hello")


def test_remote_embedder_requires_endpoint(monkeypatch):
    monkeypatch.delenv("EMBED_ENDPOINT", raising=False)
    with pytest.raises(EmbeddingError, match="EMBED_ENDPOINT"):
        RemoteTextEmbedder("m1", dim=2)


def test_remote_embedder_dim_mismatch():
    session = ScriptedSession((200, {"embeddings": [[1.0, 2.0, 3.0]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint="http://e", session=session)
    with pytest.raises(EmbeddingError, match="dimension"):
        provider.embed("hello")


def test_remote_embedder_posts_distinct_texts_once_in_first_seen_order():
    session = ScriptedSession((200, {"embeddings": [[3.0, 4.0], [0.0, 2.0], [1.0, 1.0]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint="http://e", session=session)
    vectors = embed_texts(provider, ["b a", "c", "b a", "d", "c"])
    assert session.posts == 1
    assert json.loads(session.requests[0].body) == {"model": "m1", "input": ["b a", "c", "d"]}
    assert list(vectors) == ["b a", "c", "d"]
    assert np.allclose(vectors["b a"].values, [0.6, 0.8])
    assert np.allclose(vectors["c"].values, [0.0, 1.0])
    assert all(abs(np.linalg.norm(v.values) - 1.0) < 1e-12 for v in vectors.values())


def test_remote_embedder_sends_at_most_batch_size_texts_per_post():
    sizes = [EMBED_BATCH_SIZE, EMBED_BATCH_SIZE, 130 - 2 * EMBED_BATCH_SIZE]
    session = ScriptedSession(*((200, {"embeddings": [[1.0, 0.0]] * n}) for n in sizes))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint="http://e", session=session)
    texts = [f"text {i}" for i in range(130)]
    assert len(provider.embed_many(texts)) == 130
    bodies = [json.loads(r.body)["input"] for r in session.requests]
    assert [len(b) for b in bodies] == [64, 64, 2]
    assert sum(bodies, []) == texts


@pytest.mark.parametrize("rows", [0, 2, 4])
def test_remote_embedder_row_count_mismatch_is_parse_error(rows):
    reply = {"embeddings": [[1.0, 0.0]] * rows}
    session = ScriptedSession((200, reply))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint="http://e", session=session)
    with pytest.raises(ResponseParseError, match="embeddings for 3 texts") as info:
        provider.embed_many(["a", "b", "c"])
    assert info.value.raw == json.dumps(reply)
    with pytest.raises(ResponseParseError):
        provider.embed("a")  # one text, any other row count


def test_embed_texts_without_embed_many_calls_embed_once_per_distinct_text(embedder):
    seen = []

    class _EmbedOnly:
        id, dim, mode = embedder.id, embedder.dim, embedder.mode

        def embed(self, text):
            seen.append(text)
            return embedder.embed(text)

    vectors = embed_texts(_EmbedOnly(), ["x y", "z", "x y"])
    assert seen == ["x y", "z"]
    assert np.array_equal(vectors["z"].values, embed_text(embedder, "z").values)
    with pytest.raises(ValueError, match="non-empty"):
        embed_texts(_EmbedOnly(), ["fine", "  "])
