"""Prompt assembly, the mock rule table, response parsing, dedup, the remote contract."""

from __future__ import annotations

import json
import logging
import time

import pytest

from emocause.errors import ResponseParseError, SchemaError, TransportError
from emocause.extraction import (
    NO_CONTEXT_MARKER,
    ExtractionPrompt,
    MockExtractor,
    RemoteExtractor,
    TupleCandidate,
    apply_rule_table,
    assemble_prompt,
    dedup_sextuplets,
    extract_dialogue,
    extract_sextuplets,
    extractor_from_spec,
    parse_provider_response,
)
from emocause.kb import RetrievalHit, TimeWindow, build_windows, index_corpus, index_dialogue, retrieve
from emocause.model import Dialogue, ScoringConfig, Utterance
from emocause.synth import ChainSpec, generate

from conftest import PairedExtractor, make_dialogue, make_sextuplet


def _window(text, index=0, dialogue_id="dlg-1", start=0, end=1):
    return TimeWindow(index, dialogue_id, start, end, text)


def _hit(text, similarity):
    return RetrievalHit(_window(text, index=90), similarity)


def test_prompt_sections_in_order():
    prompt = assemble_prompt(_window("[#0] ana: hi"), [_hit("ctx-a", 0.9), _hit("ctx-b", 0.4)])
    rendered = prompt.render()
    assert rendered.index("=== TASK ===") < rendered.index("=== RETRIEVED CONTEXT ===")
    assert rendered.index("ctx-a") < rendered.index("ctx-b")
    assert rendered.index("ctx-b") < rendered.index("=== CURRENT WINDOW ===")
    assert rendered.index("=== CURRENT WINDOW ===") < rendered.index("=== OUTPUT FORMAT ===")


def test_prompt_empty_context_marker():
    rendered = assemble_prompt(_window("[#0] ana: hi"), []).render()
    assert "(no prior context retrieved)" in rendered


def test_prompt_is_deterministic():
    hits = [_hit("ctx", 0.5)]
    a = assemble_prompt(_window("[#0] ana: hi"), hits).render()
    b = assemble_prompt(_window("[#0] ana: hi"), hits).render()
    assert a == b


def test_prompt_keeps_every_hit_in_the_order_retrieval_gives():
    # retrieval alone ranks and cuts; the prompt neither re-sorts nor re-cuts
    hits = [_hit(f"ctx-{i}", similarity) for i, similarity in enumerate((0.2, 0.9, 0.5, 0.7, 0.1))]
    prompt = assemble_prompt(_window("w"), hits)
    assert prompt.retrieved_context == tuple((h.window.text, h.similarity) for h in hits)


def _old_prompt(window, hits, cfg):
    """The prompt as assembled before context lines were deduplicated: every
    one of the top_n hits' windows in full."""
    top = sorted(hits, key=lambda h: -h.similarity)[: cfg.top_n]
    return ExtractionPrompt(window.text, tuple((h.window.text, h.similarity) for h in top))


def _context_blocks(prompt):
    return [text.splitlines() for text, _ in prompt.retrieved_context]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_prompt_holds_each_line_of_the_old_prompt_once_and_mock_replies_alike(seed, embedder):
    dialogue, _ = generate(ChainSpec(seed=seed, noise_rate=0.3))
    kb = index_dialogue(dialogue, embedder)
    cfg = ScoringConfig()
    mock = MockExtractor()
    for i, window in enumerate(kb.windows):
        hits = retrieve(window, kb.vectors[i], kb, cfg.top_n)
        prompt = assemble_prompt(window, hits)
        old = _old_prompt(window, hits, cfg)
        seen = set(window.text.splitlines())
        for block in _context_blocks(prompt):
            assert block and seen.isdisjoint(block) and len(set(block)) == len(block)
            seen.update(block)
        old_lines = set(window.text.splitlines()).union(*_context_blocks(old))
        assert seen == old_lines
        assert mock.complete(prompt.render()) == mock.complete(old.render())


def test_prompt_keeps_the_identical_lines_of_another_dialogue(embedder):
    # two dialogues with equal utterances render equal window lines
    twins = [make_dialogue(n=4, dialogue_id=d) for d in ("a", "b")]
    kb = index_corpus(twins, embedder, window_size=2, stride=2)
    window, twin = kb.windows[0], kb.windows[2]
    assert (window.dialogue_id, twin.dialogue_id) == ("a", "b") and window.text == twin.text
    hits = retrieve(window, kb.vectors[0], kb, 3)
    prompt = assemble_prompt(window, hits)
    assert prompt.retrieved_context == tuple((h.window.text, h.similarity) for h in hits)
    assert any(text == window.text for text, _ in prompt.retrieved_context)


def test_prompt_drops_a_hit_inside_the_current_window():
    window = _window("[#0] a\n[#1] b\n[#2] c", end=2)
    inside = RetrievalHit(_window("[#1] b\n[#2] c", index=1, start=1, end=2), 0.9)
    later = RetrievalHit(_window("[#2] c\n[#3] d", index=2, start=2, end=3), 0.5)
    prompt = assemble_prompt(window, [inside, later])
    assert prompt.retrieved_context == (("[#3] d", 0.5),)
    rendered = prompt.render()
    assert rendered.count("--- context") == 1 and "--- context 1 (similarity 0.5000) ---" in rendered


def test_prompt_with_only_duplicate_hits_renders_the_no_context_marker():
    window = _window("[#0] a\n[#1] b\n[#2] c", end=2)
    hits = [RetrievalHit(_window("[#1] b", index=1, start=1, end=1), 0.9),
            RetrievalHit(_window("[#0] a\n[#1] b", index=2, start=0, end=1), 0.7)]
    prompt = assemble_prompt(window, hits)
    assert prompt.retrieved_context == ()
    assert NO_CONTEXT_MARKER in prompt.render()


def test_rule_table_verb_pattern():
    found = apply_rule_table("X praises Y's Z because W")
    assert found == [
        {
            "holder": "X",
            "target": "Y",
            "aspect": "Z",
            "opinion": "praises",
            "sentiment": "positive",
            "rationale": "W",
        }
    ]


def test_rule_table_criticizes_and_feeling_patterns():
    assert apply_rule_table("Ana criticizes Volt's pricing because the fees doubled.")[0][
        "sentiment"
    ] == "negative"
    found = apply_rule_table("Ana sounded neutral about Volt's interface because nothing changed.")
    assert found[0]["opinion"] == "neutral"
    assert found[0]["sentiment"] == "neutral"
    assert found[0]["rationale"] == "nothing changed"


def test_rule_table_returns_every_pattern_in_position_order():
    text = (
        "Ana is negative about Volt's billing because the fees doubled. "
        "Ben praises Nova's support because the reply came fast."
    )
    assert [(m["holder"], m["opinion"], m["sentiment"], m["rationale"]) for m in apply_rule_table(text)] == [
        ("Ana", "negative", "negative", "the fees doubled"),
        ("Ben", "praises", "positive", "the reply came fast"),
    ]


def test_rule_table_ignores_plain_text():
    assert apply_rule_table("Ana praised Volt yesterday.") == []
    assert apply_rule_table("Let's circle back to the agenda.") == []


def test_mock_extractor_reads_only_current_window():
    window_text = "[#3] ana: Ana praises Volt's pricing because the fees dropped."
    context_text = "[#9] ben: Ben criticizes Volt's support because replies stalled."
    prompt = assemble_prompt(_window(window_text, index=0, start=3, end=3), [_hit(context_text, 0.8)])
    raw = MockExtractor().complete(prompt.render())
    candidates, rejections = parse_provider_response(raw)
    assert rejections == []
    assert len(candidates) == 1
    assert candidates[0].holder == "Ana"
    assert candidates[0].utterance_index == 3


def test_mock_extractor_empty_window():
    prompt = assemble_prompt(_window("[#0] ana: nothing interesting here"), [])
    candidates, _ = parse_provider_response(MockExtractor().complete(prompt.render()))
    assert candidates == []


def test_parse_response_prose_wrapped():
    raw = (
        'Here are the results: [{"holder":"A","target":"B","aspect":"price",'
        '"opinion":"too high","sentiment":"negative","rationale":"budget"}]'
    )
    candidates, rejections = parse_provider_response(raw)
    assert len(candidates) == 1 and rejections == []
    assert candidates[0].aspect == "price"


def test_parse_response_empty_array():
    assert parse_provider_response("[]") == ([], [])


def test_parse_response_partial_validity():
    raw = json.dumps(
        [
            {"holder": "A", "target": "B", "aspect": "", "opinion": "likes",
             "sentiment": "positive", "rationale": "works"},
            {"target": "B", "aspect": "", "opinion": "likes",
             "sentiment": "positive", "rationale": "works"},
        ]
    )
    candidates, rejections = parse_provider_response(raw)
    assert len(candidates) == 1
    assert len(rejections) == 1 and rejections[0].position == 1
    assert "holder" in rejections[0].reason


def test_parse_response_field_aliases():
    raw = json.dumps(
        [{"Holder": "A", "TARGET": "B", "Aspect": "x", "Opinion": "o",
          "sentiment_label": "Positive", "Rationale": "r"}]
    )
    candidates, _ = parse_provider_response(raw)
    assert candidates[0].holder == "A"
    assert candidates[0].sentiment == "positive"


def test_parse_response_rejects_a_bad_sentiment_and_ignores_a_score():
    raw = json.dumps(
        [
            {"holder": "A", "target": "B", "opinion": "o", "sentiment": "angry", "rationale": "r"},
            {"holder": "A", "target": "B", "opinion": "o", "sentiment": "positive",
             "rationale": "r", "sentiment_score": 2.0},
        ]
    )
    candidates, rejections = parse_provider_response(raw)
    assert candidates == [TupleCandidate("A", "B", "", "o", "positive", "r")]
    assert [r.position for r in rejections] == [0]


_EVENT = {"holder": "A", "target": "B", "aspect": "x", "opinion": "o",
          "sentiment": "positive", "rationale": "r"}


def test_parse_response_reads_odd_field_values():
    raw = json.dumps(
        [
            {**_EVENT, "aspect": None, "utterance_index": True},
            {**{k: v for k, v in _EVENT.items() if k != "sentiment"}, "polarity": "Negative"},
        ]
    )
    candidates, rejections = parse_provider_response(raw)
    assert rejections == []
    assert candidates[0].aspect == "" and candidates[0].utterance_index is None
    assert candidates[1].sentiment == "negative"


def test_parse_response_rejection_reasons():
    raw = json.dumps(
        [
            {**_EVENT, "holder": 7},
            {**_EVENT, "sentiment_score": True},
            {**_EVENT, "holder": " ", "rationale": None, "sentiment": "angry", "sentiment_score": 5},
            {**_EVENT, "sentiment": "angry", "sentiment_score": 5},
        ]
    )
    candidates, rejections = parse_provider_response(raw)
    assert candidates == [TupleCandidate(**_EVENT)]
    assert [(r.position, r.reason) for r in rejections] == [
        (0, "missing or empty: holder"),
        (2, "missing or empty: holder, rationale"),
        (3, "sentiment 'angry' not recognized"),
    ]


def test_parse_response_no_array_is_error():
    with pytest.raises(ResponseParseError):
        parse_provider_response("the model rambled with no structure")
    with pytest.raises(ResponseParseError):
        parse_provider_response("almost [1, 2 broken")
    with pytest.raises(ResponseParseError):  # json reads no integer of more than 4,300 digits
        parse_provider_response("[" + "1" * 5000 + "]")


@pytest.mark.parametrize("raw", ["[" * 100_000, "x" + "[" * 3000 + "]" * 3000],
                         ids=["unclosed", "after-prose"])
def test_parse_response_nested_too_deeply_ends_the_scan(raw):
    start = time.perf_counter()
    with pytest.raises(ResponseParseError, match="nested too deeply") as exc:
        parse_provider_response(raw)
    assert time.perf_counter() - start < 1.0  # not retried at every later "["
    assert exc.value.raw == raw


def test_parse_response_skips_malformed_then_finds_array():
    raw = "score was [not json... but here: " + json.dumps([{"holder": "A", "target": "B",
        "opinion": "o", "sentiment": "neutral", "rationale": "r"}])
    candidates, _ = parse_provider_response(raw)
    assert len(candidates) == 1


class _FixedProvider:
    id = "fixed"
    mode = "mock"

    def __init__(self, payload):
        self.payload = payload

    def complete(self, prompt_text):
        return self.payload


def _two_turn_dialogue():
    return Dialogue(
        id="dlg-1",
        scenario="tech_support",
        utterances=(
            Utterance(0, "ana", "Ana praises Volt's pricing because the fees dropped.", 0.0, 4.0),
            Utterance(1, "ben", "noted thanks", 4.0, 8.0),
        ),
    )


def test_extract_sextuplets_provenance():
    dialogue = _two_turn_dialogue()
    window = build_windows(dialogue, window_size=2, stride=1)[0]
    prompt_text = assemble_prompt(window, []).render()
    found = extract_sextuplets(prompt_text, MockExtractor(), window, dialogue)
    assert len(found) == 1
    s = found[0]
    assert s.window_index == 0
    assert (s.t_start, s.t_end) == (0.0, 4.0)  # anchored to utterance 0, not the window span
    assert s.id.startswith("dlg-1-w0000-")
    assert s.problems() == []


def test_extract_sextuplets_window_span_fallback():
    dialogue = _two_turn_dialogue()
    window = build_windows(dialogue, window_size=2, stride=1)[0]
    payload = json.dumps(
        [{"holder": "A", "target": "B", "opinion": "o", "sentiment": "neutral", "rationale": "r"}]
    )
    found = extract_sextuplets(
        assemble_prompt(window, []).render(), _FixedProvider(payload), window, dialogue
    )
    assert (found[0].t_start, found[0].t_end) == (0.0, 8.0)


def test_extract_sextuplets_logs_an_element_that_is_not_an_object_and_keeps_the_others(caplog):
    dialogue = _two_turn_dialogue()
    window = build_windows(dialogue, window_size=2, stride=1)[0]
    event = {"holder": "A", "target": "B", "opinion": "o", "sentiment": "neutral", "rationale": "r"}
    payload = json.dumps(["A likes B", event, 7, [event]])
    with caplog.at_level(logging.WARNING, logger="emocause.extraction"):
        found = extract_sextuplets(assemble_prompt(window, []).render(), _FixedProvider(payload), window,
                                   dialogue)
    assert [(s.holder, s.target, s.opinion) for s in found] == [("A", "B", "o")]
    assert [r.getMessage() for r in caplog.records] == [
        f"window 0: dropped element {position}: element is not an object" for position in (0, 2, 3)]


@pytest.mark.parametrize("score", [5, "high", True])
def test_extract_sextuplets_ignores_a_reply_sentiment_score(score):
    dialogue = _two_turn_dialogue()
    window = build_windows(dialogue, window_size=2, stride=1)[0]
    prompt_text = assemble_prompt(window, []).render()

    def extract(element):
        return extract_sextuplets(prompt_text, _FixedProvider(json.dumps([element])), window, dialogue)

    plain = extract({**_EVENT, "utterance_index": 0})
    assert len(plain) == 1
    assert extract({**_EVENT, "utterance_index": 0, "sentiment_score": score}) == plain


def test_dedup_keeps_earliest_window():
    a = make_sextuplet("a", window_index=4)
    b = make_sextuplet("b", window_index=2)  # same content, earlier window
    c = make_sextuplet("c", holder="Ben", window_index=9)
    kept = dedup_sextuplets([a, b, c])
    assert [s.id for s in kept] == ["b", "c"]


def test_dedup_replacement_keeps_the_first_position_of_its_key():
    a = make_sextuplet("a", window_index=4)
    c = make_sextuplet("c", holder="Ben", window_index=9)
    b = make_sextuplet("b", window_index=2)  # same content as a, earlier window
    assert [s.id for s in dedup_sextuplets([a, c, b])] == ["b", "c"]


def test_dedup_key_is_case_folded():
    a = make_sextuplet("a", holder="ANA", window_index=1)
    b = make_sextuplet("b", holder="ana", window_index=0)
    assert [s.id for s in dedup_sextuplets([a, b])] == ["b"]


def test_extract_dialogue_dedups_and_orders(embedder):
    from emocause.synth import ChainSpec, generate

    dialogue, gold = generate(ChainSpec(seed=4, turns=30, chain_length=2))
    kb = index_dialogue(dialogue, embedder, window_size=10, stride=5)
    cfg = ScoringConfig()
    found = extract_dialogue(dialogue, kb, MockExtractor(), cfg)
    assert len(found) == 3
    keys = {s.dedup_key() for s in found}
    assert keys == {s.dedup_key() for s in gold.sextuplets}
    # window overlap (stride < k) means raw extraction saw duplicates
    assert found == dedup_sextuplets(found)
    assert all(s.window_index <= t.window_index for s, t in zip(found, found[1:]))


def test_extract_dialogue_overlap_equivalence(embedder):
    from emocause.synth import ChainSpec, generate

    dialogue, _ = generate(ChainSpec(seed=4, turns=50, chain_length=2))  # 9 windows
    kb = index_dialogue(dialogue, embedder, window_size=10, stride=5)
    cfg = ScoringConfig()
    in_order = extract_dialogue(dialogue, kb, MockExtractor(), cfg)
    overlapping = extract_dialogue(dialogue, kb, PairedExtractor(), cfg)
    assert in_order == overlapping


def test_extract_dialogue_unknown_dialogue(embedder):
    d1 = make_dialogue(n=4, dialogue_id="indexed")
    kb = index_dialogue(d1, embedder, window_size=4, stride=2)
    other = make_dialogue(n=4, dialogue_id="other")
    with pytest.raises(SchemaError, match="dialogue 'other' has no windows"):
        extract_dialogue(other, kb, MockExtractor(), ScoringConfig())


def test_extractor_from_spec():
    assert extractor_from_spec("mock").id == "mock"
    for spec in ("wat", "remote:"):
        with pytest.raises(ValueError):
            extractor_from_spec(spec)


def test_remote_extractor_contract(http_stub):
    http_stub.script((200, {"content": "[]"}))
    provider = RemoteExtractor("glm", endpoint=http_stub.url("").rstrip("/"), api_key="k")
    prompt = assemble_prompt(_window("[#0] ana: hi"), [])
    assert provider.complete(prompt.render()) == "[]"
    [(path, auth, body)] = http_stub.requests
    assert (path, auth) == ("/", "Bearer k")
    assert body["model"] == "glm"
    assert body["temperature"] == 0
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert "=== RETRIEVED CONTEXT ===" in body["messages"][1]["content"]


@pytest.mark.parametrize("content", [[], None, 5, {"events": []}], ids=["list", "null", "number", "object"])
def test_remote_extractor_rejects_content_that_is_not_a_string(http_stub, content):
    reply = {"content": content}
    http_stub.script((200, reply))
    provider = RemoteExtractor("glm", endpoint=http_stub.url("chat"))
    with pytest.raises(ResponseParseError, match="is not a string") as exc:
        provider.complete("prompt")
    assert exc.value.raw == json.dumps(reply)


def test_remote_extractor_http_error(http_stub):
    http_stub.script((500, {}))
    provider = RemoteExtractor("glm", endpoint=http_stub.url("chat"))
    with pytest.raises(TransportError):
        provider.complete("prompt")
