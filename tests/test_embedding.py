"""Embedding providers, fusion layout, window pooling, audio descriptions."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.embedding import (
    EMBED_BATCH_SIZE,
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

from conftest import make_audio, make_utterance


def test_embed_text_deterministic(embedder):
    a = embed_text(embedder, "hello")
    b = embed_text(embedder, "hello")
    assert np.array_equal(a, b)


def test_embed_text_unit_norm(embedder):
    for text in ("a", "some longer text with words", "Mixed CASE Tokens"):
        v = embed_text(embedder, text)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-6


def test_embed_distinct_texts_differ(embedder):
    a = embed_text(embedder, "a")
    b = embed_text(embedder, "b")
    assert float(np.dot(a, b)) < 1.0 - 1e-6


def test_embed_text_rejects_blank(embedder):
    with pytest.raises(ValueError):
        embed_text(embedder, "")
    with pytest.raises((ValueError, EmbeddingError)):
        embed_text(embedder, "   ")


def test_embedder_casefolds_tokens(embedder):
    assert np.array_equal(embed_text(embedder, "Hello"), embed_text(embedder, "hello"))


def test_provider_from_spec_round_trip():
    p = provider_from_spec("hash:32:5")
    assert (p.dim, p.seed, p.id) == (32, 5, "hash:32:5")
    for spec in ("unknown:thing", "remote:m"):
        with pytest.raises(ValueError, match="spec"):
            provider_from_spec(spec)


def test_fuse_concatenation_example():
    # d_t=4 text, d_e=2 emotion, rate 2.0 scaled by 5 -> trailing 0.4
    text = np.array([0.5, 0.5, 0.5, 0.5])
    audio = AudioFeatureRecord(0, (1.0, 0.0), intensity=0.8, speech_rate=2.0)
    fused = fuse(text, audio, emotion_dim=2, rate_scale=5.0)
    assert fused.shape == (7,)
    assert fused.tolist() == [0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 0.4]


def test_fuse_dim_adds_one():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(384)
    text = raw / np.linalg.norm(raw)
    audio = make_audio(0)
    fused = fuse(text, audio, emotion_dim=8)
    assert fused.shape == (384 + 8 + 1,)


def test_fuse_rejects_invalid_audio():
    text = np.array([1.0, 0.0])
    zeroed = AudioFeatureRecord(0, (0.0, 0.0), intensity=0.5, speech_rate=1.0)
    with pytest.raises(FusionError):
        fuse(text, zeroed, emotion_dim=2)


def test_fuse_rejects_emotion_dim_mismatch():
    text = np.array([1.0, 0.0])
    audio = AudioFeatureRecord(0, (0.5, 0.5), intensity=0.5, speech_rate=1.0)
    with pytest.raises(FusionError, match="components"):
        fuse(text, audio, emotion_dim=4)


def test_fuse_rejects_non_text_embedding():
    with pytest.raises(FusionError, match="unit-norm"):
        fuse(np.array([1.0, 1.0]), make_audio(0), emotion_dim=8)
    fused = fuse(np.array([1.0, 0.0]), make_audio(0), emotion_dim=8)
    with pytest.raises(FusionError, match="unit-norm"):
        fuse(fused, make_audio(0), emotion_dim=8)


@given(st.integers(2, 48), st.integers(2, 12), st.floats(0.2, 9.0))
@settings(max_examples=30)
def test_fuse_slice_recovery(d_t, d_e, rate):
    rng = np.random.default_rng(d_t * 100 + d_e)
    raw = rng.standard_normal(d_t)
    text = raw / np.linalg.norm(raw)
    emotion = rng.random(d_e) + 0.05
    emotion = tuple(float(x) for x in emotion / emotion.sum())
    audio = AudioFeatureRecord(0, emotion, intensity=0.5, speech_rate=rate)
    fused = fuse(text, audio, emotion_dim=d_e, rate_scale=5.0)
    assert np.array_equal(fused[:d_t], text)
    assert np.array_equal(fused[d_t : d_t + d_e], np.asarray(emotion))
    assert fused[d_t + d_e] == rate / 5.0


def test_window_embedding_single_equals_fused(embedder):
    u = make_utterance(0)
    audio = make_audio(0)
    window = window_embedding([(u, audio)], embedder)
    direct = fuse(embed_text(embedder, u.text), audio, emotion_dim=8)
    assert np.array_equal(window, direct)


def test_window_embedding_two_mean(embedder):
    pairs = [(make_utterance(0, text="alpha beta"), make_audio(0)),
             (make_utterance(1, text="gamma delta"), make_audio(1, peak=2))]
    window = window_embedding(pairs, embedder)
    v = fuse(embed_text(embedder, "alpha beta"), pairs[0][1], emotion_dim=8)
    w = fuse(embed_text(embedder, "gamma delta"), pairs[1][1], emotion_dim=8)
    assert np.allclose(window, (v + w) / 2.0, rtol=0, atol=1e-15)


def test_window_embedding_matches_bruteforce_mean(embedder):
    # ten-utterance window vs an independently computed element-wise mean
    pairs = [
        (make_utterance(i, text=f"turn {i} content words"), make_audio(i, peak=i % 8))
        for i in range(10)
    ]
    window = window_embedding(pairs, embedder)
    rows = [
        fuse(embed_text(embedder, u.text), a, emotion_dim=8) for u, a in pairs
    ]
    expected = [sum(row[j] for row in rows) / len(rows) for j in range(len(rows[0]))]
    assert np.allclose(window, expected, rtol=0, atol=1e-12)


def test_window_embedding_uses_neutral_default(embedder):
    u = make_utterance(0)
    implicit = window_embedding([(u, None)], embedder)
    explicit = window_embedding([(u, neutral_audio_record(0, 5.0))], embedder)
    assert np.array_equal(implicit, explicit)


def test_window_embedding_identical_vectors_fixed_point(embedder):
    pairs = [(make_utterance(i, text="same text"), make_audio(i)) for i in range(3)]
    window = window_embedding(pairs, embedder)
    single = fuse(embed_text(embedder, "same text"), make_audio(0), emotion_dim=8)
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
        describe_audio_as_text(make_audio(0, dim=4))


def test_remote_embedder_normalizes_and_posts_contract(http_stub):
    http_stub.script((200, {"embeddings": [[3.0, 4.0]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("").rstrip("/"), api_key="k")
    v = embed_text(provider, "hello")
    assert np.allclose(v, [0.6, 0.8])
    assert http_stub.requests == [("/", "Bearer k", {"model": "m1", "input": ["hello"]})]


def test_remote_embedder_http_error_is_transport(http_stub):
    http_stub.script((503, {}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    with pytest.raises(TransportError, match="retry"):
        provider.embed("hello")


def test_remote_embedder_requires_endpoint(monkeypatch):
    monkeypatch.delenv("EMBED_ENDPOINT", raising=False)
    with pytest.raises(EmbeddingError, match="EMBED_ENDPOINT"):
        RemoteTextEmbedder("m1", dim=2)


def test_remote_embedder_dim_mismatch(http_stub):
    http_stub.script((200, {"embeddings": [[1.0, 2.0, 3.0]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    with pytest.raises(EmbeddingError, match="dimension"):
        provider.embed("hello")


def test_remote_embedder_posts_distinct_texts_once_in_first_seen_order(http_stub):
    http_stub.script((200, {"embeddings": [[3.0, 4.0], [0.0, 2.0], [1.0, 1.0]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    vectors = embed_texts(provider, ["b a", "c", "b a", "d", "c"])
    assert [body for _, _, body in http_stub.requests] == [{"model": "m1", "input": ["b a", "c", "d"]}]
    assert list(vectors) == ["b a", "c", "d"]
    assert np.allclose(vectors["b a"], [0.6, 0.8])
    assert np.allclose(vectors["c"], [0.0, 1.0])
    assert all(abs(np.linalg.norm(v) - 1.0) < 1e-12 for v in vectors.values())


def test_remote_embedder_sends_at_most_batch_size_texts_per_post(http_stub):
    sizes = [EMBED_BATCH_SIZE, EMBED_BATCH_SIZE, 130 - 2 * EMBED_BATCH_SIZE]
    http_stub.script(*((200, {"embeddings": [[1.0, 0.0]] * n}) for n in sizes))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    texts = [f"text {i}" for i in range(130)]
    assert len(provider.embed_many(texts)) == 130
    bodies = [body["input"] for _, _, body in http_stub.requests]
    assert [len(b) for b in bodies] == [64, 64, 2]
    assert sum(bodies, []) == texts


@pytest.mark.parametrize("rows", [0, 2, 4])
def test_remote_embedder_row_count_mismatch_is_parse_error(http_stub, rows):
    reply = {"embeddings": [[1.0, 0.0]] * rows}
    http_stub.script((200, reply))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    with pytest.raises(ResponseParseError, match="embeddings for 3 texts") as info:
        provider.embed_many(["a", "b", "c"])
    assert info.value.raw == json.dumps(reply)
    with pytest.raises(ResponseParseError):
        provider.embed("a")  # one text, any other row count


@pytest.mark.parametrize("bad", [None, True, "0.6"], ids=["null", "true", "string"])
def test_remote_embedder_rejects_components_that_are_not_json_numbers(http_stub, bad):
    # np.asarray reads null as NaN and true or "0.6" as numbers
    reply = {"embeddings": [[0.6, 0.8], [bad, 0.8]]}
    http_stub.script((200, reply))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    with pytest.raises(ResponseParseError, match="non-number components") as info:
        provider.embed_many(["a", "b"])
    assert info.value.raw == json.dumps(reply)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400", "int-1e400"])
def test_remote_embedder_rejects_components_that_are_not_finite(http_stub, literal):
    body = '{"embeddings": [[0.6, 0.8], [%s, 0.5]]}' % literal
    http_stub.script((200, body))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    with pytest.raises(ResponseParseError, match="malformed embedding response") as info:
        provider.embed_many(["a", "b"])
    assert info.value.raw == json.dumps(json.loads(body))


def test_remote_embedder_takes_integer_components(http_stub):
    http_stub.script((200, {"embeddings": [[0, 2]]}))
    provider = RemoteTextEmbedder("m1", dim=2, endpoint=http_stub.url("embed"))
    assert provider.embed("a").tolist() == [0.0, 1.0]


def test_nan_embedding_fails_the_unit_norm_checks():
    class _NanEmbedder:
        id, dim, mode = "nan", 2, "deterministic_test"

        def embed(self, text):
            return np.array([math.nan, 1.0])

    with pytest.raises(EmbeddingError, match="non-unit vector"):
        embed_texts(_NanEmbedder(), ["a"])
    with pytest.raises(FusionError, match="unit-norm"):
        fuse(np.array([math.nan, 1.0]), make_audio(0), emotion_dim=8)


def test_embed_texts_without_embed_many_calls_embed_once_per_distinct_text(embedder):
    seen = []

    class _EmbedOnly:
        id, dim, mode = embedder.id, embedder.dim, embedder.mode

        def embed(self, text):
            seen.append(text)
            return embedder.embed(text).tolist()

    vectors = embed_texts(_EmbedOnly(), ["x y", "z", "x y"])
    assert seen == ["x y", "z"]
    assert all(type(v) is np.ndarray and v.dtype == np.float64 for v in vectors.values())
    assert np.array_equal(vectors["z"], embed_text(embedder, "z"))
    with pytest.raises(ValueError, match="read-only"):
        vectors["z"][0] = 0.0
    with pytest.raises(ValueError, match="non-empty"):
        embed_texts(_EmbedOnly(), ["fine", "  "])


def _embed_without_memo(text, dim, seed):
    """HashTextEmbedder.embed with a fresh PCG64 draw for every token."""
    total = np.zeros(dim, dtype=np.float64)
    for token in text.casefold().split():
        digest = hashlib.blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        total += rng.standard_normal(dim)
    return total / float(np.linalg.norm(total))


# texts that share tokens, in other cases and orders, some twice
_SHARING_TEXTS = ["the fees doubled", "The FEES are fine", "fees the doubled fees again", "again"]


def test_hash_embedder_memo_keeps_every_bit_also_after_it_evicts():
    embedder = HashTextEmbedder(dim=16, seed=3)
    for text in _SHARING_TEXTS * 2:
        assert embedder.embed(text).tobytes() == _embed_without_memo(text, 16, 3).tobytes()
    bound = embedder._draw.cache_info().maxsize
    embedder.embed(" ".join(f"filler{i}" for i in range(bound + 10)))
    misses = embedder._draw.cache_info().misses
    for text in _SHARING_TEXTS:
        assert embedder.embed(text).tobytes() == _embed_without_memo(text, 16, 3).tobytes()
    assert embedder._draw.cache_info().misses == misses + 6  # every shared token was evicted
    assert embedder._draw.cache_info().currsize == bound


def test_hash_embedder_cached_draws_are_read_only():
    embedder = HashTextEmbedder(dim=8)
    draw = embedder._draw(b"\x01" * 8)
    assert embedder._draw(b"\x01" * 8) is draw
    with pytest.raises(ValueError, match="read-only"):
        draw[0] = 0.0
    vector = embedder.embed("again")  # a returned vector is the caller's own
    vector[:] = 0.0
    assert embedder.embed("again").tobytes() == _embed_without_memo("again", 8, 0).tobytes()


def test_hash_embedder_memo_under_threads_that_evict_each_other():
    embedder = HashTextEmbedder(dim=16)
    embedder._draw = functools.lru_cache(16)(embedder._draw.__wrapped__)  # evict constantly
    texts = [" ".join(f"w{(7 * i + j) % 60}" for j in range(5)) for i in range(100)] * 4
    expected = [_embed_without_memo(text, 16, 0).tobytes() for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda text: embedder.embed(text).tobytes(), texts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
