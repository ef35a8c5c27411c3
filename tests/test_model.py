"""Core type invariants, validation reports, and serialization round trips."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.errors import ConfigError, SchemaError
from emocause.graph import CausalEdge
from emocause.kb import KnowledgeBaseMeta, TimeWindow
from emocause.model import (
    AudioFeatureRecord,
    Dialogue,
    ScoringConfig,
    Sextuplet,
    Utterance,
    _FIELD_READERS,
    dialogue_from_dict,
    dialogue_to_dict,
    record_from_dict,
    record_to_dict,
    scoring_config_from_dict,
    sextuplet_from_dict,
    sextuplet_to_dict,
    validate_dialogue,
)

from conftest import make_audio, make_dialogue, make_sextuplet, make_utterance


def test_word_count_is_whitespace_tokenization():
    u = make_utterance(0, text="  two   words  ")
    assert u.word_count == 2


def test_validate_accepts_clean_dialogue():
    d = make_dialogue(n=4)
    report = validate_dialogue(d)
    assert report.ok
    # full audio, so the only soft check that fires is the turn count
    assert [w.location for w in report.warnings] == ["utterances"]


def test_validate_flags_degenerate_duration_at_location():
    utterances = [make_utterance(i) for i in range(4)]
    utterances[3] = Utterance(index=3, speaker="ana", text="hi there", t_start=12.0, t_end=12.0)
    d = Dialogue(id="d", scenario="medical", utterances=tuple(utterances))
    report = validate_dialogue(d)
    assert any(i.location == "utterances[3]" for i in report.errors)


def test_validate_warns_on_short_dialogue():
    report = validate_dialogue(make_dialogue(n=12))
    assert report.ok
    assert any("turn count 12" in w.message for w in report.warnings)


def test_validate_long_dialogue_in_range_no_turn_warning():
    report = validate_dialogue(make_dialogue(n=70))
    assert not any("turn count" in w.message for w in report.warnings)


def test_validate_rejects_single_utterance():
    d = Dialogue(id="d", scenario="medical", utterances=(make_utterance(0),))
    assert not validate_dialogue(d).ok


def test_validate_rejects_bad_scenario_and_audio_key():
    d = Dialogue(
        id="d",
        scenario="poetry",
        utterances=tuple(make_utterance(i) for i in range(2)),
        audio={9: make_audio(9)},
    )
    report = validate_dialogue(d)
    locations = {i.location for i in report.errors}
    assert "scenario" in locations
    assert "audio[9]" in locations


def test_validate_rejects_non_contiguous_indices():
    utterances = (make_utterance(0), make_utterance(2))
    d = Dialogue(id="d", scenario="medical", utterances=utterances)
    assert any("contiguous" in e.message for e in validate_dialogue(d).errors)


def test_validate_warns_on_partial_audio():
    d = make_dialogue(n=4)
    partial = Dialogue(id=d.id, scenario=d.scenario, utterances=d.utterances, audio={0: d.audio[0]})
    report = validate_dialogue(partial)
    assert report.ok
    assert any("audio" == w.location for w in report.warnings)


def test_validate_is_pure():
    d = make_dialogue(n=12)
    assert validate_dialogue(d) == validate_dialogue(d)


def test_audio_record_problems():
    bad_sum = AudioFeatureRecord(0, (0.5, 0.2), intensity=0.5, speech_rate=1.0)
    assert any("sum" in p for p in bad_sum.problems())
    bad_rate = AudioFeatureRecord(0, (1.0,), intensity=0.5, speech_rate=0.0)
    assert any("speech_rate" in p for p in bad_rate.problems())
    bad_intensity = AudioFeatureRecord(0, (1.0,), intensity=1.5, speech_rate=1.0)
    assert any("intensity" in p for p in bad_intensity.problems())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_audio_record_problems_reject_non_finite_numbers(bad):
    one_hot = (1.0,) + (0.0,) * 7
    for field_name, value in [
        ("emotion", (bad,) + one_hot[1:]),
        ("emotion", (bad, 0.5) + one_hot[2:]),
        ("intensity", bad),
        ("speech_rate", bad),
    ]:
        record = replace(make_audio(0), **{field_name: value})
        assert any(field_name in p for p in record.problems()), (field_name, value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_timing_at_its_field(bad):
    utterances = [make_utterance(i) for i in range(3)]
    utterances[1] = replace(utterances[1], t_start=bad)
    report = validate_dialogue(Dialogue(id="d", scenario="medical", utterances=tuple(utterances)))
    assert "utterances[1].t_start" in {i.location for i in report.errors}


def test_sextuplet_allows_empty_aspect_only():
    ok = make_sextuplet("s1", aspect="")
    assert ok.problems() == []
    assert make_sextuplet("s2", holder="  ").problems()
    assert make_sextuplet("s3", rationale="").problems()
    assert make_sextuplet("s4", sentiment="angry").problems()


def test_scoring_config_defaults_valid():
    cfg = ScoringConfig()
    cfg.validate()
    assert cfg.tau == 30.0
    assert cfg.edge_threshold == 0.5
    assert cfg.top_n == 3
    assert cfg.window_size == 10
    assert cfg.stride == 5
    assert cfg.normalize_scores
    assert cfg.effective_max_gap() == 300.0


def test_scoring_config_rejects_bad_weights():
    with pytest.raises(ConfigError, match="must equal 1"):
        ScoringConfig(alpha=0.5, beta=0.5, gamma=0.5).validate()
    with pytest.raises(ConfigError):
        ScoringConfig(alpha=0.0, beta=0.5, gamma=0.5).validate()
    with pytest.raises(ConfigError):
        ScoringConfig(tau=0.0).validate()


def test_scoring_config_is_validated_when_built():
    with pytest.raises(ConfigError, match="top_n"):
        ScoringConfig(top_n=0)
    with pytest.raises(ConfigError, match="tau"):
        replace(ScoringConfig(), tau=0.0)
    for name in ("tau", "rate_scale", "max_gap"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=name):
                ScoringConfig(**{name: value})


def test_scoring_config_rejects_a_stride_beyond_the_window():
    with pytest.raises(ConfigError, match=r"stride \(5\) must not exceed window_size \(4\)"):
        ScoringConfig(window_size=4, stride=5)
    with pytest.raises(ConfigError, match="stride"):
        scoring_config_from_dict({"window_size": 4})
    assert ScoringConfig(window_size=4, stride=4).stride == 4


def test_scoring_config_accepts_json_integers_for_float_fields():
    assert scoring_config_from_dict({"tau": 30, "edge_threshold": 1}).tau == 30


def test_scoring_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        scoring_config_from_dict({"alhpa": 0.2})


def test_scoring_config_round_trip():
    cfg = ScoringConfig(alpha=0.2, beta=0.5, gamma=0.3, tau=12.0, max_gap=90.0)
    again = scoring_config_from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_dialogue_schema_missing_field_path():
    doc = dialogue_to_dict(make_dialogue(n=3))
    del doc["utterances"][1]["t_end"]
    with pytest.raises(SchemaError) as exc:
        dialogue_from_dict(doc)
    assert exc.value.path == "utterances[1].t_end"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-1e400"])
@pytest.mark.parametrize(
    "where, path",
    [
        (("audio", 3, "emotion", 0), "audio[3].emotion[0]"),
        (("audio", 3, "intensity"), "audio[3].intensity"),
        (("audio", 3, "speech_rate"), "audio[3].speech_rate"),
        (("utterances", 2, "t_start"), "utterances[2].t_start"),
    ],
)
def test_dialogue_schema_rejects_non_finite_numbers_at_their_path(bad, where, path):
    doc = dialogue_to_dict(make_dialogue(n=4))
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    node[last] = bad
    with pytest.raises(SchemaError, match="finite") as exc:
        dialogue_from_dict(json.loads(json.dumps(doc)))
    assert exc.value.path == path


def test_dialogue_schema_fills_missing_speech_rate():
    doc = dialogue_to_dict(make_dialogue(n=3))
    del doc["audio"][1]["speech_rate"]
    d = dialogue_from_dict(doc)
    u = d.utterances[1]
    assert d.audio[1].speech_rate == u.word_count / (u.t_end - u.t_start)


def test_dialogue_schema_unknown_audio_index_is_hard_error():
    doc = dialogue_to_dict(make_dialogue(n=3))
    doc["audio"][0]["utterance_index"] = 42
    with pytest.raises(SchemaError, match="unknown utterance index 42"):
        dialogue_from_dict(doc)


def test_dialogue_schema_duplicate_audio_rejected():
    doc = dialogue_to_dict(make_dialogue(n=3))
    doc["audio"].append(dict(doc["audio"][0]))
    with pytest.raises(SchemaError, match="duplicate"):
        dialogue_from_dict(doc)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "mention", "update", "check")


@st.composite
def dialogues(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    utterances = []
    clock = 0.0
    for i in range(n):
        words = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6))
        duration = draw(st.floats(min_value=0.5, max_value=9.0, allow_nan=False))
        utterances.append(
            Utterance(
                index=i,
                speaker=draw(st.sampled_from(("ana", "ben", "cleo"))),
                text=" ".join(words),
                t_start=clock,
                t_end=clock + duration,
            )
        )
        clock += duration
    audio = {}
    for i in range(n):
        if draw(st.booleans()):
            raw = draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
            total = sum(raw)
            audio[i] = AudioFeatureRecord(
                utterance_index=i,
                emotion=tuple(v / total for v in raw),
                intensity=draw(st.floats(0.0, 1.0)),
                speech_rate=draw(st.floats(0.1, 9.0)),
            )
    return Dialogue(
        id=draw(st.sampled_from(("d1", "d2"))),
        scenario="social_media",
        utterances=tuple(utterances),
        audio=audio,
    )


@given(dialogues())
@settings(max_examples=50)
def test_dialogue_round_trip(d):
    again = dialogue_from_dict(json.loads(json.dumps(dialogue_to_dict(d))))
    assert again == d


@given(
    st.integers(0, 10_000),
    st.sampled_from(("positive", "negative", "neutral")),
    st.floats(0.0, 100.0),
)
def test_sextuplet_round_trip(window_index, sentiment, t_start):
    s = Sextuplet(
        id="s-1",
        holder="Ana",
        target="Volt",
        aspect="",
        opinion="criticizes",
        sentiment_label=sentiment,
        rationale="the rollout broke",
        window_index=window_index,
        t_start=t_start,
        t_end=t_start + 2.0,
    )
    again = sextuplet_from_dict(json.loads(json.dumps(sextuplet_to_dict(s))))
    assert again == s


def test_sextuplet_dict_uses_sentiment_key():
    doc = sextuplet_to_dict(make_sextuplet("s1"))
    assert doc["sentiment"] == "negative"
    assert "sentiment_label" not in doc


# ---------------------------------------------------------------------------
# The record codec: every stored record through record_from_dict/record_to_dict
# ---------------------------------------------------------------------------

_SEXTUPLET_KEYS = {"sentiment_label": "sentiment"}
_EDGE_KEYS = {"cause_id": "cause", "effect_id": "effect", "semantic_score": "semantic",
              "temporal_score": "temporal", "rationale_score": "rationale"}

_RECORDS = [
    (Utterance(3, "ana", "hello there", 1.5, 2.25), {}),
    (make_sextuplet("s1", window_index=3, t_start=1.5, t_end=4.0), _SEXTUPLET_KEYS),
    (make_sextuplet("s2", aspect=""), _SEXTUPLET_KEYS),
    (CausalEdge("a", "b", 0.75, 0.9, 0.5, 0.72, 3.0), _EDGE_KEYS),
    (KnowledgeBaseMeta(64, 8, 10, 5, "hash:64:0", 12), {}),
    (TimeWindow(2, "dlg-1", 10, 19, "[#10] ana: hello"), {}),
]
_RECORD_IDS = ["utterance", "sextuplet-placed", "sextuplet-implicit-aspect", "edge", "kb-meta",
               "kb-window"]


@pytest.mark.parametrize("record, keys", _RECORDS, ids=_RECORD_IDS)
def test_record_codec_json_round_trip(record, keys):
    doc = json.loads(json.dumps(record_to_dict(record, keys)))
    assert set(doc) >= set(keys.values())
    assert record_from_dict(type(record), doc, "rec", keys) == record


@pytest.mark.parametrize("record, keys", _RECORDS, ids=_RECORD_IDS)
def test_record_codec_names_each_field_of_the_wrong_type(record, keys):
    doc = record_to_dict(record, keys)
    for key, value in doc.items():
        wrong = 7 if isinstance(value, str) else "7"
        with pytest.raises(SchemaError) as exc:
            record_from_dict(type(record), {**doc, key: wrong}, "rec", keys)
        assert exc.value.path == f"rec.{key}"


@pytest.mark.parametrize(
    "cls", [Utterance, AudioFeatureRecord, Sextuplet, KnowledgeBaseMeta, TimeWindow, CausalEdge],
    ids=lambda cls: cls.__name__,
)
def test_record_codec_reads_every_field_of_each_stored_record(cls):
    # else a field the codec cannot read fails only when the first document is read
    assert {f.name: f.type for f in fields(cls) if f.type not in _FIELD_READERS} == {}


def test_sextuplet_codec_ignores_a_stored_score_and_fills_defaults():
    s = make_sextuplet("s1", aspect="")
    doc = sextuplet_to_dict(s)
    assert "sentiment_score" not in doc
    assert sextuplet_from_dict(json.loads(json.dumps(doc))) == s
    # a stored key that is not a field is ignored, whatever it holds
    for score in (-0.5, 7, "high", None):
        assert sextuplet_from_dict({**doc, "sentiment_score": score}) == s
    for key in ("aspect", "window_index", "t_start", "t_end"):
        del doc[key]
    assert sextuplet_from_dict(doc) == replace(s, aspect="", window_index=0, t_start=0.0, t_end=0.0)
    with pytest.raises(SchemaError, match="missing required field") as exc:
        sextuplet_from_dict({k: v for k, v in doc.items() if k != "sentiment"}, "sextuplets[2]")
    assert exc.value.path == "sextuplets[2].sentiment"
