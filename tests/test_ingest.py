"""Dialogue file parsing, speech-rate computation, and strictness handling."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emocause.errors import (
    DialogueParseError,
    InvalidDialogueError,
    SchemaError,
    StrictModeError,
)
from emocause.ingest import parse_corpus, read_corpus, read_dialogue
from emocause.model import Utterance, compute_speech_rate, dialogue_to_dict
from emocause.synth import ChainSpec, generate

from conftest import make_dialogue, make_utterance

MINIMAL = {
    "id": "mini",
    "scenario": "medical",
    "utterances": [
        {"index": 0, "speaker": "ana", "text": "hello there", "t_start": 0.0, "t_end": 2.0},
        {"index": 1, "speaker": "ben", "text": "hi back", "t_start": 2.0, "t_end": 4.0},
    ],
    "audio": [],
}


@pytest.fixture
def read_one(tmp_path):
    """read_dialogue of a file holding `data`: the parse and the validation gate."""
    def read(data: str | bytes, strict: bool = False):
        path = tmp_path / "dialogue.json"
        path.write_bytes(data.encode() if isinstance(data, str) else data)
        return read_dialogue(path, strict=strict)
    return read


def test_parse_minimal_two_utterances(read_one):
    d = read_one(json.dumps(MINIMAL))
    assert d.n == 2
    assert d.id == "mini"


def test_parse_reports_json_position(read_one):
    with pytest.raises(DialogueParseError) as exc:
        read_one(b'{"id": "x", }')
    assert exc.value.line == 1
    assert exc.value.column is not None


def test_parse_missing_field_path(read_one):
    doc = json.loads(json.dumps(MINIMAL))
    del doc["utterances"][1]["t_end"]
    with pytest.raises(SchemaError) as exc:
        read_one(json.dumps(doc))
    assert exc.value.path == "utterances[1].t_end"


def test_parse_fills_missing_speech_rate(read_one):
    doc = json.loads(json.dumps(MINIMAL))
    doc["audio"] = [
        {"utterance_index": 0, "emotion": [1.0] + [0.0] * 7, "intensity": 0.4},
        {"utterance_index": 1, "emotion": [0.0, 1.0] + [0.0] * 6, "intensity": 0.6, "speech_rate": 3.0},
    ]
    d = read_one(json.dumps(doc))
    assert d.audio[0].speech_rate == pytest.approx(2.0 / 2.0)  # 2 words in 2 seconds
    assert d.audio[1].speech_rate == 3.0


def test_missing_rate_with_malformed_timing_reports_the_timing_field(read_one):
    doc = json.loads(json.dumps(MINIMAL))
    doc["utterances"][0]["t_start"] = "zero"
    doc["audio"] = [{"utterance_index": 0, "emotion": [1.0], "intensity": 0.4}]
    with pytest.raises(SchemaError) as exc:
        read_one(json.dumps(doc))
    assert exc.value.path == "utterances[0].t_start"


def test_missing_rate_on_zero_duration_utterance_is_schema_error(read_one):
    doc = json.loads(json.dumps(MINIMAL))
    doc["utterances"][0]["t_end"] = doc["utterances"][0]["t_start"]
    doc["audio"] = [{"utterance_index": 0, "emotion": [1.0], "intensity": 0.4}]
    with pytest.raises(SchemaError, match="degenerate duration") as exc:
        read_one(json.dumps(doc))
    assert exc.value.path == "audio[0].speech_rate"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_number_in_a_dialogue_fails_at_its_field(literal, read_one):
    dialogue, _ = generate(ChainSpec(seed=1))
    doc = dialogue_to_dict(dialogue)
    doc["audio"][3]["emotion"][0] = "HERE"
    text = json.dumps(doc).replace('"HERE"', literal)
    with pytest.raises(SchemaError, match="finite") as exc:
        read_one(text)
    assert exc.value.path == "audio[3].emotion[0]"
    jsonl = json.dumps(dialogue_to_dict(dialogue)) + "\n" + text
    with pytest.raises(SchemaError) as exc:
        parse_corpus(jsonl)
    assert exc.value.path == "line 2: audio[3].emotion[0]"


def test_parse_invalid_dialogue_raises(read_one):
    doc = json.loads(json.dumps(MINIMAL))
    doc["utterances"][0]["t_end"] = 0.0  # degenerate duration
    with pytest.raises(InvalidDialogueError):
        read_one(json.dumps(doc))


def test_validation_message_quotes_five_issues_and_counts_the_rest(read_one):
    doc = dialogue_to_dict(generate(ChainSpec(seed=1))[0])
    for record in doc["audio"]:
        record["emotion"] = [0.25] * 4
    with pytest.raises(InvalidDialogueError) as exc:
        read_one(json.dumps(doc))
    assert len(exc.value.errors) == 80
    assert len(str(exc.value)) <= 1000
    assert str(exc.value).endswith("; and 75 more")
    strict = StrictModeError(exc.value.errors, "x")
    assert str(strict).endswith("; and 75 more") and len(strict.warnings) == 80


def test_strict_mode_rejects_warning_dialogues(read_one):
    # 2 turns is well below the expected range, which is only a warning.
    with pytest.raises(StrictModeError):
        read_one(json.dumps(MINIMAL), strict=True)
    assert read_one(json.dumps(MINIMAL), strict=False).n == 2


def test_parse_counts_preserved_on_generated_fixture(read_one):
    # 80-turn generated dialogue with 80 audio records; parsing drops nothing
    # and every speech rate is populated.
    dialogue, _ = generate(ChainSpec(seed=11, turns=80, chain_length=4))
    doc = dialogue_to_dict(dialogue)
    for entry in doc["audio"]:
        entry.pop("speech_rate")
    parsed = read_one(json.dumps(doc))
    assert parsed.n == len(doc["utterances"]) == 80
    assert sorted(parsed.audio) == list(range(80))
    assert all(parsed.audio[i].speech_rate > 0 for i in range(80))


def test_parse_is_deterministic(read_one):
    data = json.dumps(MINIMAL).encode()
    assert read_one(data) == read_one(data)


def test_parse_corpus_jsonl_and_array_and_single():
    single = json.dumps(MINIMAL)
    two_docs = [MINIMAL, {**MINIMAL, "id": "mini-2"}]
    jsonl = "\n".join(json.dumps(doc) for doc in two_docs)
    array = json.dumps(two_docs)
    assert [d.id for d in parse_corpus(single)] == ["mini"]
    assert [d.id for d in parse_corpus(jsonl)] == ["mini", "mini-2"]
    assert [d.id for d in parse_corpus(array)] == ["mini", "mini-2"]


def test_parse_corpus_reports_jsonl_line():
    jsonl = json.dumps(MINIMAL) + "\n{broken\n"
    with pytest.raises(DialogueParseError, match="line 2"):
        parse_corpus(jsonl)


def _second_lacks_t_start() -> list[dict]:
    broken = json.loads(json.dumps({**MINIMAL, "id": "mini-2"}))
    del broken["utterances"][1]["t_start"]
    return [MINIMAL, broken]


def test_parse_corpus_array_error_names_the_item():
    with pytest.raises(SchemaError) as exc:
        parse_corpus(json.dumps(_second_lacks_t_start()))
    assert exc.value.path == "[1].utterances[1].t_start"


def test_parse_corpus_jsonl_error_names_the_line():
    jsonl = "\n".join(json.dumps(doc) for doc in _second_lacks_t_start())
    with pytest.raises(SchemaError) as exc:
        parse_corpus(jsonl)
    assert exc.value.path == "line 2: utterances[1].t_start"
    assert str(exc.value) == "line 2: utterances[1].t_start: missing required field"


def test_read_corpus_validation_error_names_the_dialogue(tmp_path):
    """parse_corpus only parses; read_corpus passes each dialogue through the gate."""
    broken = json.loads(json.dumps({**MINIMAL, "id": "mini-2"}))
    broken["utterances"][1]["t_end"] = broken["utterances"][1]["t_start"]
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([MINIMAL, broken]))
    assert [d.id for d in parse_corpus(corpus.read_bytes())] == ["mini", "mini-2"]
    with pytest.raises(InvalidDialogueError, match="'mini-2'"):
        read_corpus(corpus)


def test_compute_speech_rate_examples():
    ten_words = " ".join(["w"] * 10)
    assert compute_speech_rate(Utterance(0, "a", ten_words, 0.0, 5.0)) == 2.0
    assert compute_speech_rate(Utterance(0, "a", "one", 3.0, 4.0)) == 1.0
    seven = " ".join(["w"] * 7)
    assert compute_speech_rate(Utterance(0, "a", seven, 1.25, 3.75)) == pytest.approx(2.8)


def test_compute_speech_rate_degenerate_duration():
    with pytest.raises(ValueError, match="degenerate"):
        compute_speech_rate(Utterance(0, "a", "hi", 2.0, 2.0))


@given(st.integers(1, 200), st.floats(0.25, 60.0, allow_nan=False))
def test_rate_times_duration_recovers_word_count(words, duration):
    u = Utterance(0, "a", " ".join(["w"] * words), 10.0, 10.0 + duration)
    assert compute_speech_rate(u) * (u.t_end - u.t_start) == pytest.approx(words, abs=1e-9)
