"""Window construction, cosine retrieval with a brute-force oracle, persistence."""

from __future__ import annotations

import math
import re
import struct
import zlib
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.embedding import HashTextEmbedder, window_embedding
from emocause.errors import StoreFormatError
from emocause.kb import (
    KnowledgeBase,
    KnowledgeBaseMeta,
    TimeWindow,
    build_windows,
    cosine_similarity,
    index_corpus,
    index_dialogue,
    load_kb,
    render_window_line,
    retrieve,
    save_kb,
)
from emocause.model import Dialogue
from emocause.synth import ChainSpec, generate

from conftest import make_audio, make_dialogue, make_utterance


def _ranges(windows):
    return [(w.start_index, w.end_index) for w in windows]


def test_build_windows_strided_overlap():
    d = make_dialogue(n=10)
    windows = build_windows(d, window_size=4, stride=2)
    assert _ranges(windows) == [(0, 3), (2, 5), (4, 7), (6, 9)]
    assert [w.window_index for w in windows] == [0, 1, 2, 3]


def test_build_windows_ragged_single():
    d = make_dialogue(n=3)
    windows = build_windows(d, window_size=10, stride=5)
    assert _ranges(windows) == [(0, 2)]


def test_build_windows_100_turns_matches_enumeration():
    d = make_dialogue(n=100)
    windows = build_windows(d, window_size=10, stride=5)
    # independent enumeration of the same contract
    expected = []
    start = 0
    while True:
        end = min(start + 9, 99)
        expected.append((start, end))
        if end == 99:
            break
        start += 5
    assert len(windows) == 19
    assert _ranges(windows) == expected
    assert windows[-1].start_index == 90 and windows[-1].end_index == 99


def test_build_windows_start_is_index_times_stride():
    d = make_dialogue(n=23)
    for w in build_windows(d, window_size=6, stride=3):
        assert w.start_index == w.window_index * 3


def test_build_windows_covers_every_utterance():
    for n, k, stride in ((10, 4, 2), (23, 6, 3), (100, 10, 5), (7, 7, 7)):
        d = make_dialogue(n=n)
        covered = set()
        for w in build_windows(d, k, stride):
            covered.update(range(w.start_index, w.end_index + 1))
        assert covered == set(range(n))


def test_build_windows_argument_errors():
    d = make_dialogue(n=10)
    with pytest.raises(ValueError):
        build_windows(d, window_size=1, stride=1)
    with pytest.raises(ValueError):
        build_windows(d, window_size=4, stride=0)
    with pytest.raises(ValueError, match="uncovered"):
        build_windows(d, window_size=4, stride=5)


@pytest.mark.parametrize(("n", "k", "stride"), [(1, 2, 1), (10, 4, 2), (23, 6, 3), (12, 5, 5), (7, 7, 7)])
def test_build_windows_text_matches_rendering_each_window_on_its_own(n, k, stride):
    d = make_dialogue(n=n)
    d = replace(d, audio={i: a for i, a in d.audio.items() if i % 3})  # some lines have no audio
    for w in build_windows(d, k, stride):
        lines = [
            render_window_line(d.utterances[i], d.audio.get(i))
            for i in range(w.start_index, w.end_index + 1)
        ]
        assert w.text == "\n".join(lines)


def test_a_line_without_audio_states_no_voice():
    d = make_dialogue(n=3)
    d = replace(d, audio={i: a for i, a in d.audio.items() if i != 1})
    u = d.utterances[1]
    assert render_window_line(u, None) == f"[#1] {u.speaker}: {u.text}"
    lines = build_windows(d, window_size=3, stride=1)[0].text.splitlines()
    assert ["[voice: " in line for line in lines] == [True, False, True]


def test_window_text_carries_speaker_and_audio(embedder):
    d = make_dialogue(n=4)
    first = build_windows(d, window_size=4, stride=2)[0]
    lines = first.text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("[#0] ana: ")
    assert "[voice: happy" in lines[0]


def test_index_dialogue_counts_and_dims(embedder):
    d = make_dialogue(n=10)
    kb = index_dialogue(d, embedder, window_size=4, stride=2)
    assert kb.meta.entry_count == 4
    assert kb.vectors.shape == (4, 64 + 8 + 1)
    assert kb.meta.provider_id == "hash:64:0"


def test_index_empty_corpus_error(embedder):
    with pytest.raises(ValueError, match="empty corpus"):
        index_corpus([], embedder)


def test_index_corpus_rejects_duplicate_dialogue_ids(embedder):
    d = make_dialogue(n=10, dialogue_id="dup-7")
    with pytest.raises(ValueError, match="dup-7"):
        index_corpus([d, d], embedder, window_size=4, stride=2)


class _CountingEmbedder(HashTextEmbedder):
    def __init__(self):
        super().__init__(dim=16)
        self.calls = Counter()

    def embed(self, text):
        self.calls[text] += 1
        return super().embed(text)


@pytest.mark.parametrize("scale", [{}, {"rate_scale": 2.5}], ids=["default", "rate-scale-2.5"])
def test_index_embeds_each_distinct_text_once_and_matches_window_embedding(scale):
    fillers = ["noted thanks", "okay", "sure thing"]
    texts = [fillers[i % 3] if i % 4 else f"point number {i}" for i in range(23)]
    d = Dialogue(
        id="dlg-1",
        scenario="customer_service",
        utterances=tuple(make_utterance(i, text) for i, text in enumerate(texts)),
        audio={i: make_audio(i, peak=i % 8) for i in range(0, 23, 2)},  # odd turns fall back
    )
    provider = _CountingEmbedder()
    kb = index_dialogue(d, provider, window_size=6, stride=2, **scale)
    assert provider.calls == Counter(set(texts))
    assert len(kb.windows) == 10
    for window, vector in zip(kb.windows, kb.vectors):
        span = range(window.start_index, window.end_index + 1)
        pairs = [(d.utterances[k], d.audio.get(k)) for k in span]
        assert np.array_equal(vector, window_embedding(pairs, provider, **scale))


class _BatchingEmbedder(_CountingEmbedder):
    def __init__(self):
        super().__init__()
        self.batches = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return [HashTextEmbedder.embed(self, t) for t in texts]


def test_index_embeds_a_dialogue_in_one_batch_with_the_same_bytes():
    dialogue, _ = generate(ChainSpec(seed=4, turns=40, chain_length=3))
    batching, counting = _BatchingEmbedder(), _CountingEmbedder()
    kb = index_dialogue(dialogue, batching, window_size=6, stride=3)
    texts = list(dict.fromkeys(u.text for u in dialogue.utterances))
    assert batching.batches == [texts] and not batching.calls
    assert save_kb(kb) == save_kb(index_dialogue(dialogue, counting, window_size=6, stride=3))
    reference = [
        window_embedding(
            [(dialogue.utterances[k], dialogue.audio.get(k))
             for k in range(w.start_index, w.end_index + 1)],
            counting,
        )
        for w in kb.windows
    ]
    assert save_kb(kb) == save_kb(replace(kb, vectors=np.stack(reference)))


def test_index_corpus_embeds_shared_texts_in_one_call_in_canonical_order():
    fillers = ["okay", "noted thanks", "sure thing"]

    def dialogue(did, n):
        texts = [fillers[i % 3] if i % 2 else f"{did} point {i}" for i in range(n)]
        return Dialogue(
            id=did,
            scenario="customer_service",
            utterances=tuple(make_utterance(i, text) for i, text in enumerate(texts)),
            audio={i: make_audio(i, peak=i % 8) for i in range(0, n, 3)},
        )

    corpus = [dialogue("dlg-c", 9), dialogue("dlg-a", 14), dialogue("dlg-b", 5)]
    provider = _BatchingEmbedder()
    kb = index_corpus(corpus, provider, window_size=4, stride=2)
    texts = [u.text for d in corpus for u in d.utterances]
    assert len(provider.batches) == 1 and not provider.calls
    assert sorted(provider.batches[0]) == sorted(set(texts))
    keys = [(w.dialogue_id, w.window_index) for w in kb.windows]
    assert keys == sorted(keys) and [k[0] for k in keys].count("dlg-b") == 2
    by_id = {d.id: d for d in corpus}
    reference = _CountingEmbedder()
    for window, vector in zip(kb.windows, kb.vectors, strict=True):
        d = by_id[window.dialogue_id]
        pairs = [(d.utterances[k], d.audio.get(k))
                 for k in range(window.start_index, window.end_index + 1)]
        assert np.array_equal(vector, window_embedding(pairs, reference))


def test_index_twice_is_byte_identical(embedder):
    dialogue, _ = generate(ChainSpec(seed=3, turns=20, chain_length=1))
    kb1 = index_dialogue(dialogue, embedder, window_size=5, stride=3)
    kb2 = index_dialogue(dialogue, embedder, window_size=5, stride=3)
    assert save_kb(kb1) == save_kb(kb2)


def test_cosine_identity_orthogonal_and_hand_value():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    hand = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
    assert cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == pytest.approx(
        hand, abs=1e-12
    )


def test_cosine_errors():
    with pytest.raises(ValueError, match="mismatch"):
        cosine_similarity(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="zero"):
        cosine_similarity(np.zeros(3), np.ones(3))


@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.floats(0.1, 100.0),
)
def test_cosine_symmetry_and_scale_invariance(a, b, c):
    va, vb = np.array(a), np.array(b)
    if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
        return
    assert cosine_similarity(va, vb) == pytest.approx(cosine_similarity(vb, va), abs=1e-9)
    assert cosine_similarity(c * va, vb) == pytest.approx(cosine_similarity(va, vb), abs=1e-9)


def test_cosine_tiny_and_huge_components_keep_full_precision():
    # Squaring 5e-160 lands in the subnormal range; a plain norm loses digits.
    tiny = np.array([5.3788811324873487e-160, 0.0, 0.0])
    unit = np.array([1.0, 0.0, 0.0])
    assert cosine_similarity(tiny, unit) == 1.0
    assert cosine_similarity(0.109375 * tiny, unit) == 1.0
    assert cosine_similarity(np.array([1e200, 1e200]), np.array([1.0, 0.0])) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cosine_of_overflowing_norms_does_not_warn():
    huge = np.array([1e200, -3e180, 0.0])
    assert cosine_similarity(huge, huge) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(np.array([1e308, 1e308]), np.ones(2)) == pytest.approx(1.0, abs=1e-12)


def _random_kb(n_entries, dim, seed, n_dialogues=4):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n_entries, dim))
    windows = []
    for i in range(n_entries):
        did = f"d{i % n_dialogues}"
        windows.append(
            TimeWindow(
                window_index=i // n_dialogues,
                dialogue_id=did,
                start_index=0,
                end_index=1,
                text=f"window {i}",
            )
        )
    order = sorted(range(n_entries), key=lambda i: (windows[i].dialogue_id, windows[i].window_index))
    windows = [windows[i] for i in order]
    vectors = vectors[order]
    meta = KnowledgeBaseMeta(
        text_dim=dim - 9, emotion_dim=8, window_size=2, stride=2,
        provider_id="hash:0:0", entry_count=n_entries,
    )
    return KnowledgeBase(windows, vectors, meta)


def _oracle_retrieve(query_window, q, kb, top_n):
    """Independent exhaustive scan: pure-python cosine and explicit tie-break."""
    scored = []
    for i, w in enumerate(kb.windows):
        if w.dialogue_id == query_window.dialogue_id and w.window_index == query_window.window_index:
            continue
        row = kb.vectors[i]
        dot = sum(float(x) * float(y) for x, y in zip(q, row))
        sim = dot / (math.sqrt(sum(float(x) ** 2 for x in q)) * math.sqrt(sum(float(y) ** 2 for y in row)))
        scored.append((-sim, w.dialogue_id, w.window_index))
    scored.sort()
    return [(d, w) for _, d, w in scored[:top_n]]


def test_retrieve_excludes_self(embedder):
    kb = _random_kb(1, 16, seed=0, n_dialogues=1)
    hits = retrieve(kb.windows[0], kb.vectors[0], kb, top_n=3)
    assert hits == []


def test_retrieve_ordering_contract():
    kb = _random_kb(5, 16, seed=1)
    query = TimeWindow(99, "none", 0, 1, "q")
    q = np.random.default_rng(5).standard_normal(16)
    hits = retrieve(query, q, kb, top_n=3)
    assert len(hits) == 3
    sims = [h.similarity for h in hits]
    assert sims == sorted(sims, reverse=True)


def test_retrieve_matches_bruteforce_oracle():
    kb = _random_kb(120, 32, seed=7)
    rng = np.random.default_rng(11)
    for trial in range(30):
        if trial % 2 == 0:
            idx = int(rng.integers(0, 120))
            query_window, q = kb.windows[idx], kb.vectors[idx]
        else:
            query_window = TimeWindow(1000 + trial, "fresh", 0, 1, "q")
            q = rng.standard_normal(32)
        hits = retrieve(query_window, q, kb, top_n=5)
        got = [(h.window.dialogue_id, h.window.window_index) for h in hits]
        assert got == _oracle_retrieve(query_window, q, kb, 5)


def test_retrieve_ties_break_by_dialogue_then_window():
    # identical vectors force exact similarity ties
    vectors = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    windows = [
        TimeWindow(1, "b", 0, 1, ""),
        TimeWindow(0, "b", 0, 1, ""),
        TimeWindow(2, "a", 0, 1, ""),
        TimeWindow(0, "c", 0, 1, ""),
    ]
    order = sorted(range(4), key=lambda i: (windows[i].dialogue_id, windows[i].window_index))
    kb = KnowledgeBase(
        [windows[i] for i in order],
        vectors,
        KnowledgeBaseMeta(1, 1, 2, 1, "hash:0:0", 4),
    )
    query = TimeWindow(9, "q", 0, 1, "")
    hits = retrieve(query, np.array([1.0, 2.0, 3.0]), kb, top_n=4)
    assert [(h.window.dialogue_id, h.window.window_index) for h in hits] == [
        ("a", 2), ("b", 0), ("b", 1), ("c", 0),
    ]


def test_retrieve_dim_mismatch():
    kb = _random_kb(5, 16, seed=2)
    with pytest.raises(ValueError):
        retrieve(TimeWindow(9, "q", 0, 1, ""), np.ones(8), kb, top_n=2)
    with pytest.raises(ValueError):
        retrieve(kb.windows[0], kb.vectors[0], kb, top_n=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_retrieve_rejects_a_non_finite_query(value):
    kb = _random_kb(5, 16, seed=2)
    q = kb.vectors[0].copy()
    q[3] = value
    with pytest.raises(ValueError, match="query embedding of window 0 is not finite"):
        retrieve(kb.windows[0], q, kb, top_n=2)


def test_persist_round_trip_empty():
    kb = KnowledgeBase([], np.zeros((0, 10)), KnowledgeBaseMeta(1, 8, 4, 2, "hash:1:0", 0))
    again = load_kb(save_kb(kb))
    assert again.meta == kb.meta
    assert again.windows == []
    assert again.vectors.shape == (0, 10)


def test_persist_round_trip_preserves_everything(embedder):
    dialogue, _ = generate(ChainSpec(seed=5, turns=40, chain_length=2))
    kb = index_dialogue(dialogue, embedder, window_size=6, stride=3)
    again = load_kb(save_kb(kb))
    assert again.meta == kb.meta
    assert again.windows == kb.windows
    assert np.array_equal(again.vectors, kb.vectors)


def test_persist_rejects_corruption(embedder):
    dialogue, _ = generate(ChainSpec(seed=5, turns=30, chain_length=1))
    kb = index_dialogue(dialogue, embedder, window_size=5, stride=2)
    blob = bytearray(save_kb(kb))
    for position in (0, 4, 10, len(blob) // 2, len(blob) - 3):
        corrupted = bytearray(blob)
        corrupted[position] ^= 0x5A
        with pytest.raises(StoreFormatError):
            load_kb(bytes(corrupted))


def test_persist_rejects_truncation(embedder):
    dialogue, _ = generate(ChainSpec(seed=5, turns=30, chain_length=1))
    blob = save_kb(index_dialogue(dialogue, embedder, window_size=5, stride=2))
    with pytest.raises(StoreFormatError):
        load_kb(blob[: len(blob) // 2])
    with pytest.raises(StoreFormatError):
        load_kb(blob + b"x")


def test_persist_rejects_repeated_window_key(embedder):
    kb = index_dialogue(make_dialogue(n=10), embedder, window_size=4, stride=2)
    twice = KnowledgeBase(
        kb.windows + kb.windows[1:2],
        np.vstack([kb.vectors, kb.vectors[1:2]]),
        replace(kb.meta, entry_count=kb.meta.entry_count + 1),
    )
    with pytest.raises(StoreFormatError, match=r"\('dlg-1', 1\)"):
        load_kb(save_kb(twice))


@pytest.mark.parametrize("order, message", [
    ([0, 1, 1, 2, 3], r"window \('dlg-1', 1\) is stored more than once"),
    ([1, 0, 2, 3], r"window \('dlg-1', 0\) is stored after window \('dlg-1', 1\)"),
], ids=["repeated", "swapped"])
def test_persist_rejects_windows_out_of_key_order(embedder, order, message):
    kb = index_dialogue(make_dialogue(n=10), embedder, window_size=4, stride=2)
    shuffled = KnowledgeBase(
        [kb.windows[i] for i in order],
        kb.vectors[order],
        replace(kb.meta, entry_count=len(order)),
    )
    with pytest.raises(StoreFormatError, match=message):
        load_kb(save_kb(shuffled))


@pytest.mark.parametrize("change, field", [
    ({"text": None}, "windows[0].text: expected string"),
    ({"window_index": 1.7}, "windows[0].window_index: expected integer"),
    ({"start_index": True}, "windows[0].start_index: expected integer"),
    ({"start_index": 4}, "windows[0]: start_index 4 exceeds end_index 3"),
    ({"dialogue_id": 3}, "windows[0].dialogue_id: expected string"),
    ({"end_index": "3"}, "windows[0].end_index: expected integer"),
    ({"provider_id": 7}, "meta.provider_id: expected string"),
    ({"text_dim": 64.0}, "meta.text_dim: expected integer"),
    ({"emotion_dim": None}, "meta.emotion_dim: expected integer"),
    ({"window_size": "4"}, "meta.window_size: expected integer"),
    ({"stride": False}, "meta.stride: expected integer"),
    ({"entry_count": [5]}, "meta.entry_count: expected integer"),
], ids=["null-text", "float-index", "bool-start", "start-after-end", "int-dialogue",
        "str-end", "int-provider", "float-text-dim", "null-emotion-dim", "str-window-size",
        "bool-stride", "list-entry-count"])
def test_persist_rejects_a_field_of_the_wrong_type_behind_valid_checksums(embedder, change, field):
    kb = index_dialogue(make_dialogue(n=10), embedder, window_size=4, stride=2)
    if set(change) <= {f.name for f in fields(KnowledgeBaseMeta)}:
        kb.meta = replace(kb.meta, **change)
    else:
        kb.windows[0] = replace(kb.windows[0], **change)
    with pytest.raises(StoreFormatError, match=re.escape(field)):
        load_kb(save_kb(kb))


def test_persist_rejects_an_unreadable_number_behind_valid_checksums(embedder):
    blob = save_kb(index_dialogue(make_dialogue(n=10), embedder, window_size=4, stride=2))
    (length,) = struct.unpack_from("<Q", blob, 6)  # the meta section follows magic and version
    meta = re.sub(rb'"stride":\d+', b'"stride":' + b"1" * 5000, blob[14 : 14 + length])
    section = struct.pack("<Q", len(meta)) + meta + struct.pack("<I", zlib.crc32(meta))
    with pytest.raises(StoreFormatError, match="corrupt metadata: Exceeds the limit"):
        load_kb(blob[:6] + section + blob[14 + length + 4 :])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_persist_rejects_a_non_finite_vector_component_behind_valid_checksums(embedder, value):
    kb = index_dialogue(make_dialogue(n=10), embedder, window_size=4, stride=2)
    vectors = kb.vectors.copy()
    vectors[2, 5] = value
    with pytest.raises(StoreFormatError, match=re.escape("vectors[2] holds a NaN or infinite")):
        load_kb(save_kb(replace(kb, vectors=vectors)))


def test_persist_rejects_future_version(embedder):
    dialogue, _ = generate(ChainSpec(seed=5, turns=30, chain_length=1))
    blob = bytearray(save_kb(index_dialogue(dialogue, embedder, window_size=5, stride=2)))
    blob[4] = 99  # version word
    with pytest.raises(StoreFormatError, match="version"):
        load_kb(bytes(blob))
