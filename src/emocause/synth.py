"""Deterministic generator of synthetic dialogues with planted causal chains.

The generator is the ground-truth oracle for end-to-end tests: every planted
event uses a surface pattern the mock extractor's rule table recognizes, and
the planted template set is verified against that rule table at generation
time, so the two can never drift apart. Linguistic realism is a non-goal;
airtightness is the goal.

Chain events state the sentiment word as the opinion ("... feels negative
about ...") and share one polarity per dialogue, so the semantic component
of every true link is exactly 1 under the deterministic test embedder. Each
cause's rationale names the next event's holder, target and aspect, giving
true links a strong rationale component while unrelated pairs stay low.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .extraction import VERB_SENTIMENTS, apply_rule_table
from .metrics import GoldAnnotation
from .model import (
    AudioFeatureRecord,
    DEFAULT_EMOTION_CATEGORIES,
    Dialogue,
    SCENARIOS,
    Utterance,
    sextuplet_from_dict,
)

SPEAKER_NAMES = (
    "Avery", "Brook", "Casey", "Devon", "Ellis", "Flynn", "Gale", "Harper",
    "Indie", "Jules", "Kai", "Lane", "Mori", "Noor", "Oakes", "Pax",
    "Quinn", "Reese", "Sage", "Tate",
)

TARGET_NAMES = (
    "Voltify", "BrightCart", "NimbusPay", "EchoDesk", "FableFit", "GrovePlan",
    "LumenBox", "PulseNet", "QuartzHub", "RoverKit", "SableCloud", "TidalApp",
)

ASPECT_TERMS = (
    "pricing", "latency", "interface", "support", "billing", "reliability",
    "onboarding", "documentation", "privacy", "updates",
)

FEELING_FRAMES = (
    "{holder} feels {label} about {target}'s {aspect} because {rationale}.",
    "{holder} is {label} about {target}'s {aspect} because {rationale}.",
    "{holder} sounded {label} about {target}'s {aspect} because {rationale}.",
)

CLOSING_RATIONALES = (
    "the whole thread wore everyone down",
    "nothing left to add after that exchange",
    "the earlier replies settled it",
)

# Distractor pools are disjoint from the chain pools so noise events never
# collide with planted chain events on any content field.
DISTRACTOR_NAMES = ("Zane", "Wren", "Vera", "Ursa", "Tobin", "Sible", "Rhea", "Piper")
DISTRACTOR_TARGETS = (
    "MossDrive", "HollowLab", "CedarPoint", "IvoryDesk",
    "OpalRoute", "FernStack", "DuneLight", "BirchWare",
)
DISTRACTOR_ASPECTS = (
    "packaging", "shipping", "warranty", "refunds",
    "catalog", "checkout", "search", "alerts",
)
DISTRACTOR_RATIONALES = (
    "the rollout skipped review twice",
    "the patch landed ahead of schedule",
    "the queue cleared faster than promised",
    "the invoice arrived garbled again",
)

NEAR_MISS_FRAMES = (
    "{name} praised {target} earlier today.",
    "{name} seems unhappy with {target} lately.",
    "{name} mentioned {target} again without details.",
)

FILLERS = (
    "Let's circle back to the agenda.",
    "Thanks, noted on my end.",
    "Could you share the latest numbers?",
    "We can revisit that after the break.",
    "I'll forward the summary shortly.",
    "The meeting notes are updated now.",
    "Anything else on this item?",
    "Give me a moment to check the log.",
)

_SENTIMENT_TO_CATEGORY = {"positive": "happy", "negative": "angry", "neutral": "neutral"}


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of one synthetic dialogue with a planted causal chain.

    chain_length is the number of planted links, so chain_length + 1 events
    are planted; noise_rate is the fraction of utterances carrying distractor
    patterns (both extractable decoys and near-misses).
    """

    seed: int
    scenario: str = "customer_service"
    turns: int = 80
    chain_length: int = 4
    noise_rate: float = 0.0
    speakers: int = 4

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario {self.scenario!r} not one of {SCENARIOS}")
        if not 10 <= self.turns <= 300:
            raise ValueError(f"turns={self.turns} outside [10, 300]")
        if self.chain_length < 0:
            raise ValueError(f"chain_length={self.chain_length} must be >= 0")
        events = self.chain_length + 1
        if self.turns < 2 * events:
            raise ValueError(
                f"{events} planted events do not fit in {self.turns} turns "
                f"(need at least {2 * events})"
            )
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError(f"noise_rate={self.noise_rate} outside [0, 1]")
        if not 2 <= self.speakers <= len(SPEAKER_NAMES):
            raise ValueError(f"speakers={self.speakers} outside [2, {len(SPEAKER_NAMES)}]")


def _expand(pool: tuple[str, ...], count: int) -> list[str]:
    """Extend a name pool with numbered variants when more values are needed."""
    out = list(pool)
    suffix = 2
    while len(out) < count:
        out.extend(f"{name}{suffix}" for name in pool)
        suffix += 1
    return out


def _emotion_vector(rng: random.Random, peak_index: int, peak_mass: float) -> tuple[float, ...]:
    base = [rng.uniform(0.01, 0.05) for _ in DEFAULT_EMOTION_CATEGORIES]
    base[peak_index] += peak_mass
    total = sum(base)
    return tuple(v / total for v in base)


def generate(spec: ChainSpec) -> tuple[Dialogue, GoldAnnotation]:
    """Generate one dialogue and its gold annotation, fully determined by the seed.

    Planted events sit at evenly spaced utterances with monotone synthetic
    timestamps (2-6 s per turn), audio emotion peaks track each event's
    sentiment, and every planted line is re-checked against the extraction
    rule table before the dialogue is returned.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    dialogue_id = f"synth-{spec.seed:08d}"
    n_events = spec.chain_length + 1

    speakers = rng.sample(SPEAKER_NAMES, spec.speakers)
    positions = [(k + 1) * spec.turns // (n_events + 1) for k in range(n_events)]
    if len(set(positions)) != n_events:  # guarded by the 2x-turns feasibility check
        raise ValueError(f"cannot place {n_events} events in {spec.turns} turns")
    position_of = {pos: k for k, pos in enumerate(positions)}

    chain_sentiment = rng.choice(["positive", "negative"])
    holders = [rng.choice(speakers) for _ in range(n_events)]
    targets = rng.sample(_expand(TARGET_NAMES, n_events), n_events)
    aspects = rng.sample(_expand(ASPECT_TERMS, n_events), n_events)
    frames = [rng.choice(FEELING_FRAMES) for _ in range(n_events)]
    rationales = [
        f"{holders[k + 1]} keeps pressing {targets[k + 1]} on {aspects[k + 1]}"
        if k + 1 < n_events
        else rng.choice(CLOSING_RATIONALES)
        for k in range(n_events)
    ]

    non_event_slots = [i for i in range(spec.turns) if i not in position_of]
    noise_count = min(round(spec.noise_rate * spec.turns), len(non_event_slots))
    noise_slots = sorted(rng.sample(non_event_slots, noise_count))
    decoy_combos = rng.sample(
        [
            (name, target, aspect)
            for name in DISTRACTOR_NAMES
            for target in DISTRACTOR_TARGETS
            for aspect in DISTRACTOR_ASPECTS
        ],
        noise_count,
    )
    decoy_for = dict(zip(noise_slots, decoy_combos))
    noise_kind = {slot: rng.random() < 0.5 for slot in noise_slots}

    utterances: list[Utterance] = []
    audio: dict[int, AudioFeatureRecord] = {}
    expected_matches: dict[int, dict] = {}
    clock = 0.0
    for i in range(spec.turns):
        if i in position_of:
            k = position_of[i]
            speaker = holders[k]
            event = {
                "holder": holders[k],
                "target": targets[k],
                "aspect": aspects[k],
                "opinion": chain_sentiment,
                "sentiment": chain_sentiment,
                "rationale": rationales[k],
            }
            text = frames[k].format(label=chain_sentiment, **event)
        elif noise_kind.get(i):
            name, target, aspect = decoy_for[i]
            verb = rng.choice(["praises", "criticizes"])
            rationale = rng.choice(DISTRACTOR_RATIONALES)
            speaker = rng.choice(speakers)
            text = f"{name} {verb} {target}'s {aspect} because {rationale}."
            event = {
                "holder": name,
                "target": target,
                "aspect": aspect,
                "opinion": verb,
                "sentiment": VERB_SENTIMENTS[verb],
                "rationale": rationale,
            }
        else:
            event = None
            if i in noise_kind:
                frame = rng.choice(NEAR_MISS_FRAMES)
                text = frame.format(
                    name=rng.choice(DISTRACTOR_NAMES), target=rng.choice(DISTRACTOR_TARGETS)
                )
            else:
                text = rng.choice(FILLERS)
            speaker = rng.choice(speakers)
        if event is None:
            category, peak_mass, low, high = "neutral", 0.3, 0.15, 0.5
        else:
            expected_matches[i] = event
            category, peak_mass, low, high = _SENTIMENT_TO_CATEGORY[event["sentiment"]], 1.0, 0.7, 0.95
        emotion = _emotion_vector(rng, DEFAULT_EMOTION_CATEGORIES.index(category), peak_mass)
        intensity = round(rng.uniform(low, high), 3)

        duration = round(rng.uniform(2.0, 6.0), 2)
        u = Utterance(index=i, speaker=speaker, text=text, t_start=clock, t_end=clock + duration)
        clock = u.t_end
        utterances.append(u)
        audio[i] = AudioFeatureRecord(
            utterance_index=i,
            emotion=emotion,
            intensity=intensity,
            speech_rate=u.word_count / duration,
        )

    _check_rule_table_contract(utterances, expected_matches)

    # an expected match is a sextuplet document without its id and timing
    gold_sextuplets = [
        sextuplet_from_dict({
            **expected_matches[pos],
            "id": f"{dialogue_id}-gold-{k:02d}",
            "t_start": utterances[pos].t_start,
            "t_end": utterances[pos].t_end,
        })
        for k, pos in enumerate(positions)
    ]
    links = tuple(
        (gold_sextuplets[k].id, gold_sextuplets[k + 1].id) for k in range(spec.chain_length)
    )

    dialogue = Dialogue(
        id=dialogue_id, scenario=spec.scenario, utterances=tuple(utterances), audio=audio
    )
    gold = GoldAnnotation(
        dialogue_id=dialogue_id, sextuplets=tuple(gold_sextuplets), causal_links=links
    )
    return dialogue, gold


def _check_rule_table_contract(utterances, expected_matches) -> None:
    """Planted lines must match the rule table exactly; everything else, not at all."""
    for u in utterances:
        found = apply_rule_table(u.text)
        expected = expected_matches.get(u.index)
        if expected is None:
            if found:
                raise RuntimeError(
                    f"filler utterance {u.index} unexpectedly matches the rule table: {u.text!r}"
                )
        elif len(found) != 1 or found[0] != expected:
            raise RuntimeError(
                f"planted utterance {u.index} does not round-trip through the rule "
                f"table: planted {expected!r}, extracted {found!r}"
            )
