"""Generator determinism, planted-chain structure, and the rule-table contract."""

from __future__ import annotations

import hashlib

import pytest

from emocause.extraction import apply_rule_table
from emocause.model import dialogue_to_dict, dumps_canonical, validate_dialogue
from emocause.synth import ChainSpec, generate

from emocause.metrics import gold_to_dict


def test_generate_counts_and_determinism():
    spec = ChainSpec(seed=7, turns=80, chain_length=4)
    d1, g1 = generate(spec)
    d2, g2 = generate(spec)
    assert d1.n == 80
    assert len(g1.sextuplets) == 5
    assert len(g1.causal_links) == 4
    assert d1 == d2
    assert g1 == g2
    assert dialogue_to_dict(d1) == dialogue_to_dict(d2)
    assert gold_to_dict(g1) == gold_to_dict(g2)


@pytest.mark.parametrize("spec, dialogue_sha, gold_sha", [
    (ChainSpec(seed=1, turns=80, chain_length=4),
     "d8a0722fa662f384902108da4897f7150476496d1b6d1a9781b651314ec556d1",
     "6628e3b4b8a25eefb745d32e82d611f1b2e3591e41fb8900d654eac63947bbbe"),
    (ChainSpec(seed=1, turns=200, chain_length=6, noise_rate=0.3),
     "c75ea5dc1ee86caf1840e897754164c5769fbe053c033742db99d6d6f6389a42",
     "e164a15c13741dd652e8dc0c7ff9a77fb53522e88505e279e57a1ce00416aa63"),
], ids=["seed1-80-4", "seed1-200-6-noise0.3"])
def test_generate_golden_digests(spec, dialogue_sha, gold_sha):
    # the bytes `gen` writes; the benchmark workloads are generated the same way
    dialogue, gold = generate(spec)
    assert _sha256(dumps_canonical(dialogue_to_dict(dialogue))) == dialogue_sha
    assert _sha256(dumps_canonical(gold_to_dict(gold))) == gold_sha


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_generate_different_seeds_differ():
    d1, _ = generate(ChainSpec(seed=1, turns=40, chain_length=2))
    d2, _ = generate(ChainSpec(seed=2, turns=40, chain_length=2))
    assert dialogue_to_dict(d1) != dialogue_to_dict(d2)


def test_generate_zero_chain_has_no_links():
    _, gold = generate(ChainSpec(seed=3, turns=20, chain_length=0))
    assert gold.causal_links == ()
    assert len(gold.sextuplets) == 1


def test_generate_validates_clean():
    dialogue, _ = generate(ChainSpec(seed=5, turns=80, chain_length=4, noise_rate=0.3))
    report = validate_dialogue(dialogue)
    assert report.errors == []


def test_generated_events_temporally_ordered():
    _, gold = generate(ChainSpec(seed=9, turns=80, chain_length=4))
    for cause_id, effect_id in gold.causal_links:
        cause = next(s for s in gold.sextuplets if s.id == cause_id)
        effect = next(s for s in gold.sextuplets if s.id == effect_id)
        assert cause.t_end < effect.t_start


def test_gold_sextuplets_extractable_by_rule_table():
    dialogue, gold = generate(ChainSpec(seed=11, turns=80, chain_length=4))
    extracted = []
    for u in dialogue.utterances:
        extracted.extend(apply_rule_table(u.text))
    planted = {
        (s.holder, s.target, s.aspect, s.opinion, s.sentiment_label, s.rationale)
        for s in gold.sextuplets
    }
    found = {
        (m["holder"], m["target"], m["aspect"], m["opinion"], m["sentiment"], m["rationale"])
        for m in extracted
    }
    assert planted <= found
    assert len(extracted) == len(gold.sextuplets)  # noise_rate=0: nothing else matches


def test_noise_adds_patterns_but_never_hides_gold():
    dialogue, gold = generate(ChainSpec(seed=11, turns=80, chain_length=4, noise_rate=0.25))
    extracted = []
    for u in dialogue.utterances:
        extracted.extend(apply_rule_table(u.text))
    found = {
        (m["holder"], m["target"], m["aspect"], m["opinion"], m["sentiment"], m["rationale"])
        for m in extracted
    }
    planted = {
        (s.holder, s.target, s.aspect, s.opinion, s.sentiment_label, s.rationale)
        for s in gold.sextuplets
    }
    assert planted <= found
    assert len(found) > len(planted)


def test_audio_argmax_tracks_event_sentiment():
    from emocause.model import DEFAULT_EMOTION_CATEGORIES

    dialogue, gold = generate(ChainSpec(seed=13, turns=80, chain_length=4))
    by_time = {s.t_start: s for s in gold.sextuplets}
    expected_peak = {"positive": "happy", "negative": "angry", "neutral": "neutral"}
    for u in dialogue.utterances:
        if u.t_start in by_time:
            record = dialogue.audio[u.index]
            peak = DEFAULT_EMOTION_CATEGORIES[record.emotion.index(max(record.emotion))]
            assert peak == expected_peak[by_time[u.t_start].sentiment_label]
            assert record.intensity >= 0.7


def test_speech_rates_consistent_with_timing():
    dialogue, _ = generate(ChainSpec(seed=15, turns=30, chain_length=1))
    for i, u in enumerate(dialogue.utterances):
        assert dialogue.audio[i].speech_rate == pytest.approx(
            u.word_count / (u.t_end - u.t_start), abs=1e-12
        )


def test_chain_spec_feasibility_errors():
    with pytest.raises(ValueError, match="turns"):
        ChainSpec(seed=1, turns=9, chain_length=0).validate()
    with pytest.raises(ValueError, match="fit"):
        ChainSpec(seed=1, turns=10, chain_length=5).validate()
    with pytest.raises(ValueError, match="noise_rate"):
        ChainSpec(seed=1, turns=20, chain_length=1, noise_rate=1.5).validate()
    with pytest.raises(ValueError, match="scenario"):
        ChainSpec(seed=1, scenario="poetry", turns=20, chain_length=1).validate()
    with pytest.raises(ValueError, match="speakers"):
        ChainSpec(seed=1, turns=20, chain_length=1, speakers=1).validate()
    with pytest.raises(ValueError):
        generate(ChainSpec(seed=1, turns=10, chain_length=5))


def test_large_chain_expands_pools():
    dialogue, gold = generate(ChainSpec(seed=17, turns=120, chain_length=14))
    assert len(gold.sextuplets) == 15
    keys = {s.match_key() for s in gold.sextuplets}
    assert len(keys) == 15
    report = validate_dialogue(dialogue)
    assert report.errors == []
