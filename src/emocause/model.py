"""Core domain types, their invariants, the canonical JSON schema and the JSON input reader.

Every other module builds on the types defined here. Construction is
permissive (so test fixtures can hold deliberately broken values);
``validate_dialogue`` is the single gate that downstream stages rely on.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import ConfigError, DialogueParseError, SchemaError, StoreFormatError

SCENARIOS = (
    "customer_service",
    "social_media",
    "medical",
    "education",
    "tech_support",
    "emotional_support",
    "market_research",
    "multi_party",
)

SENTIMENT_LABELS = ("positive", "negative", "neutral")

# Fixed ordered emotion category list; vectors in AudioFeatureRecord are soft
# distributions over this list, and validate_dialogue rejects any other length.
DEFAULT_EMOTION_CATEGORIES = (
    "happy",
    "sad",
    "angry",
    "fearful",
    "disgusted",
    "surprised",
    "calm",
    "neutral",
)

EMOTION_SUM_TOLERANCE = 1e-6
WEIGHT_SUM_TOLERANCE = 1e-9
_FLOAT_MAX = sys.float_info.max


def _is_finite_number(value: Any) -> bool:
    """An int or float that a float holds finitely: not a bool, NaN or ±inf."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and (
        -_FLOAT_MAX <= value <= _FLOAT_MAX
    )


# Dialogues outside this turn range are flagged with a warning, not an error,
# so short unit-test fixtures remain usable.
SOFT_TURN_RANGE = (70, 300)


@dataclass(frozen=True)
class Utterance:
    """A single dialogue turn with timing in seconds from dialogue start."""

    index: int
    speaker: str
    text: str
    t_start: float
    t_end: float

    @property
    def word_count(self) -> int:
        """Number of whitespace-delimited tokens in the text."""
        return len(self.text.split())

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def compute_speech_rate(u: Utterance) -> float:
    """Words per second of an utterance: word_count / (t_end - t_start)."""
    duration = u.duration
    if duration <= 0.0:
        raise ValueError(
            f"utterance {u.index} has degenerate duration ({u.t_start!r} .. {u.t_end!r})"
        )
    return u.word_count / duration


@dataclass(frozen=True)
class AudioFeatureRecord:
    """Precomputed voice features for one utterance.

    ``emotion`` is a soft distribution over a fixed category list,
    ``intensity`` is in [0, 1] and ``speech_rate`` is words per second.
    """

    utterance_index: int
    emotion: tuple[float, ...]
    intensity: float
    speech_rate: float

    def __post_init__(self):
        object.__setattr__(self, "emotion", tuple(float(x) for x in self.emotion))

    def problems(self) -> list[str]:
        """Return invariant violations as human-readable strings."""
        out: list[str] = []
        if not self.emotion:
            out.append("emotion vector is empty")
        elif not all(0.0 <= c <= 1.0 for c in self.emotion):  # NaN and ±inf fail too
            out.append("emotion components must lie in [0, 1]")
        elif not abs(sum(self.emotion) - 1.0) <= EMOTION_SUM_TOLERANCE:
            out.append(f"emotion components sum to {sum(self.emotion)!r}, expected 1")
        if not 0.0 <= self.intensity <= 1.0:
            out.append(f"intensity {self.intensity!r} outside [0, 1]")
        if not 0.0 < self.speech_rate <= _FLOAT_MAX:
            out.append(f"speech_rate {self.speech_rate!r} must be finite and > 0")
        return out


@dataclass(frozen=True)
class Dialogue:
    """An ordered multi-turn conversation with optional audio sidecar records."""

    id: str
    scenario: str
    utterances: tuple[Utterance, ...]
    audio: Mapping[int, AudioFeatureRecord] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "utterances", tuple(self.utterances))
        object.__setattr__(self, "audio", dict(self.audio))

    @property
    def n(self) -> int:
        return len(self.utterances)


@dataclass(frozen=True)
class Sextuplet:
    """One emotional-opinion event: who feels what about whom, and why.

    ``t_start``/``t_end`` anchor the event to the earliest/latest timestamps
    of its supporting utterance span. ``aspect`` may be empty (implicit
    aspect); all other text fields must be non-empty.
    """

    id: str
    holder: str
    target: str
    aspect: str
    opinion: str
    sentiment_label: str
    rationale: str
    window_index: int = 0
    t_start: float = 0.0
    t_end: float = 0.0
    sentiment_score: float | None = None

    def problems(self) -> list[str]:
        out: list[str] = []
        for name in ("id", "holder", "target", "opinion", "rationale"):
            if not getattr(self, name).strip():
                out.append(f"{name} must be non-empty")
        if self.sentiment_label not in SENTIMENT_LABELS:
            out.append(f"sentiment_label {self.sentiment_label!r} not one of {SENTIMENT_LABELS}")
        if self.sentiment_score is not None and not -1.0 <= self.sentiment_score <= 1.0:
            out.append(f"sentiment_score {self.sentiment_score!r} outside [-1, 1]")
        if self.t_end < self.t_start:
            out.append("t_end must be >= t_start")
        return out

    def match_key(self) -> tuple[str, str, str]:
        """Case-folded (holder, target, aspect), used for gold-link matching."""
        return (self.holder.casefold(), self.target.casefold(), self.aspect.casefold())

    def dedup_key(self) -> tuple[str, str, str, str]:
        """Case-folded (holder, target, aspect, opinion), used to merge duplicates."""
        return self.match_key() + (self.opinion.casefold(),)


@dataclass(frozen=True)
class ScoringConfig:
    """Knobs for windowing, retrieval and causal-edge scoring.

    ``alpha``/``beta``/``gamma`` weight the semantic, temporal and rationale
    components of an edge and must sum to 1. ``max_gap`` of ``None`` means
    ``10 * tau``, beyond which the temporal component is negligible. Every
    instance is validated when it is built, ``dataclasses.replace`` included.
    """

    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 1.0 / 3.0
    tau: float = 30.0
    edge_threshold: float = 0.5
    normalize_scores: bool = True
    top_n: int = 3
    window_size: int = 10
    stride: int = 5
    rate_scale: float = 5.0
    max_gap: float | None = None
    consistency_floor: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.normalize_scores, bool):
            raise ConfigError(f"normalize_scores={self.normalize_scores!r} must be true or false")
        for name in ("top_n", "window_size", "stride"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{name}={v!r} must be an integer")
        for name in ("alpha", "beta", "gamma", "tau", "edge_threshold", "rate_scale",
                     "max_gap", "consistency_floor"):
            v = getattr(self, name)
            if v is None and name == "max_gap":
                continue
            if not _is_finite_number(v):
                raise ConfigError(f"{name}={v!r} must be a finite number")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name}={v!r} must lie in (0, 1)")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ConfigError(
                f"alpha + beta + gamma must equal 1 (got {total!r}); "
                "the three edge-weight components are a convex combination"
            )
        if not self.tau > 0.0:
            raise ConfigError(f"tau={self.tau!r} must be > 0 seconds")
        for name in ("edge_threshold", "consistency_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name}={getattr(self, name)!r} outside [0, 1]")
        if self.top_n < 1:
            raise ConfigError(f"top_n={self.top_n!r} must be >= 1")
        if self.window_size < 2:
            raise ConfigError(f"window_size={self.window_size!r} must be >= 2")
        if self.stride < 1:
            raise ConfigError(f"stride={self.stride!r} must be >= 1")
        if self.stride > self.window_size:
            raise ConfigError(f"stride={self.stride!r} must not exceed window_size={self.window_size!r}")
        if not self.rate_scale > 0.0:
            raise ConfigError(f"rate_scale={self.rate_scale!r} must be > 0")
        if self.max_gap is not None and not self.max_gap > 0.0:
            raise ConfigError(f"max_gap={self.max_gap!r} must be > 0 or None")

    def effective_max_gap(self) -> float:
        return self.max_gap if self.max_gap is not None else 10.0 * self.tau


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    message: str
    location: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_dialogue: a flat list of errors and warnings."""

    issues: tuple[ValidationIssue, ...]

    @property
    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_dialogue(d: Dialogue) -> ValidationReport:
    """Check every dialogue invariant, reporting errors and soft warnings.

    Pure: the same dialogue always yields the same report. A dialogue with
    zero errors is accepted by every downstream stage.
    """
    issues: list[ValidationIssue] = []

    def err(message: str, location: str) -> None:
        issues.append(ValidationIssue("error", message, location))

    def warn(message: str, location: str) -> None:
        issues.append(ValidationIssue("warning", message, location))

    if not d.id.strip():
        err("dialogue id must be non-empty", "id")
    if d.scenario not in SCENARIOS:
        err(f"scenario {d.scenario!r} not one of {SCENARIOS}", "scenario")

    n = d.n
    if n < 2:
        err(f"dialogue must contain at least 2 utterances (got {n})", "utterances")
    lo, hi = SOFT_TURN_RANGE
    if n and not lo <= n <= hi:
        warn(f"turn count {n} outside the expected range [{lo}, {hi}]", "utterances")

    prev_start = None
    for pos, u in enumerate(d.utterances):
        loc = f"utterances[{pos}]"
        if u.index != pos:
            err(f"utterance index {u.index} at position {pos}; indices must be contiguous from 0", loc)
        if u.word_count < 1:
            err("utterance text must contain at least one token", loc)
        for name in ("t_start", "t_end"):
            if not _is_finite_number(getattr(u, name)):
                err(f"{name} {getattr(u, name)!r} must be finite", f"{loc}.{name}")
        if not u.t_end > u.t_start:
            err(f"t_end ({u.t_end!r}) must be strictly greater than t_start ({u.t_start!r})", loc)
        if prev_start is not None and u.t_start < prev_start:
            err("t_start must be non-decreasing in utterance index", loc)
        prev_start = u.t_start

    for key in sorted(d.audio):
        rec = d.audio[key]
        loc = f"audio[{key}]"
        if not 0 <= key < n:
            err(f"audio record references unknown utterance index {key}", loc)
        if rec.utterance_index != key:
            err(f"audio record key {key} disagrees with utterance_index {rec.utterance_index}", loc)
        for problem in rec.problems():
            err(problem, loc)
        if rec.emotion and len(rec.emotion) != len(DEFAULT_EMOTION_CATEGORIES):
            err(
                f"emotion vector has {len(rec.emotion)} components, expected one per "
                f"category: {', '.join(DEFAULT_EMOTION_CATEGORIES)}",
                f"{loc}.emotion",
            )

    missing = [i for i in range(n) if i not in d.audio]
    if missing and len(missing) < n:
        warn(f"{len(missing)} of {n} utterances lack audio records", "audio")
    elif missing and n:
        warn("dialogue has no audio records; fusion will use neutral defaults", "audio")

    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# Canonical JSON schema
# ---------------------------------------------------------------------------
#
# A stored record (Utterance, AudioFeatureRecord, Sextuplet,
# kb.KnowledgeBaseMeta, kb.TimeWindow, graph.CausalEdge) is one JSON object
# whose keys are its dataclass fields, read by record_from_dict and written
# by record_to_dict. The renames:
#   Sextuplet.sentiment_label -> sentiment;
#   CausalEdge.cause_id, effect_id -> cause, effect, and its semantic_score,
#   temporal_score, rationale_score -> semantic, temporal, rationale.
# A field with a dataclass default may be absent and reads as that default:
# a Sextuplet's window_index, t_start, t_end and sentiment_score. A
# Sextuplet's aspect may be absent too, the implicit aspect "". A None field
# whose default is None is left out when written.
#
# Dialogue document: {id, scenario, utterances: [Utterance], audio:
# [AudioFeatureRecord]}, where an audio record's missing speech_rate is
# computed from its utterance's timing (compute_speech_rate). Sextuplets
# document: {dialogue_id, sextuplets: [Sextuplet]}, to which a gold file
# adds causal_links: [{cause, effect}] (metrics.gold_to_dict).


def _need(obj: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected string, got {type(value).__name__}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected number, got {type(value).__name__}")
    if not _is_finite_number(value):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected integer, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {type(value).__name__}")
    return value


def _as_obj(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SchemaError(path, f"expected object, got {type(value).__name__}")
    return value


# Keyed by field annotation, a string under `from __future__ import annotations`.
_FIELD_READERS = {
    "int": _as_int,
    "str": _as_str,
    "float": _as_number,
    "float | None": lambda value, path: None if value is None else _as_number(value, path),
    "tuple[float, ...]": lambda value, path: tuple(
        _as_number(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))
    ),
}


def record_from_dict(cls, obj: Any, path: str, keys: Mapping[str, str] | None = None):
    """One record of the dataclass `cls`: each field read from its JSON key
    (its name, unless `keys` renames it) by the typed reader of its
    annotation. A field with a default may be absent; a SchemaError names
    `<path>.<key>`."""
    obj, keys = _as_obj(obj, path), keys or {}
    values = {}
    for f in fields(cls):
        key = keys.get(f.name, f.name)
        if key in obj or f.default is MISSING:
            values[f.name] = _FIELD_READERS[f.type](_need(obj, key, path), f"{path}.{key}")
    return cls(**values)


def record_to_dict(record, keys: Mapping[str, str] | None = None) -> dict:
    """The JSON object of a dataclass record, the inverse of record_from_dict:
    a tuple is written as a list, and a None field whose default is None is
    left out."""
    keys = keys or {}
    return {
        keys.get(f.name, f.name): list(value) if isinstance(value, tuple) else value
        for f in fields(record)
        if (value := getattr(record, f.name)) is not None or f.default is not None
    }


def audio_record_from_dict(
    obj: Mapping[str, Any], path: str, utterances: Mapping[int, Utterance]
) -> AudioFeatureRecord:
    """Parse one audio record of a dialogue whose utterances are given by
    index: the record must point at one of them, and a missing speech_rate
    is computed from that utterance's timing."""
    obj = _as_obj(obj, path)
    index = _as_int(_need(obj, "utterance_index", path), f"{path}.utterance_index")
    if index not in utterances:
        raise SchemaError(f"{path}.utterance_index", f"references unknown utterance index {index}")
    if "speech_rate" not in obj:
        try:
            obj = {**obj, "speech_rate": compute_speech_rate(utterances[index])}
        except ValueError as exc:
            raise SchemaError(
                f"{path}.speech_rate", f"cannot compute speech rate from utterance {index}: {exc}"
            ) from exc
    return record_from_dict(AudioFeatureRecord, obj, path)


def dialogue_to_dict(d: Dialogue) -> dict:
    return {
        "id": d.id,
        "scenario": d.scenario,
        "utterances": [record_to_dict(u) for u in d.utterances],
        "audio": [record_to_dict(d.audio[k]) for k in sorted(d.audio)],
    }


def dialogue_from_dict(obj: Mapping[str, Any]) -> Dialogue:
    """Build a Dialogue from the canonical schema, raising SchemaError with
    a field path on the first structural violation."""
    obj = _as_obj(obj, "")
    utterances = tuple(
        record_from_dict(Utterance, item, f"utterances[{i}]")
        for i, item in enumerate(_as_list(_need(obj, "utterances", ""), "utterances"))
    )
    by_index = {u.index: u for u in utterances}
    audio: dict[int, AudioFeatureRecord] = {}
    for i, item in enumerate(_as_list(obj.get("audio", []), "audio")):
        rec = audio_record_from_dict(item, f"audio[{i}]", by_index)
        if rec.utterance_index in audio:
            raise SchemaError(
                f"audio[{i}].utterance_index",
                f"duplicate audio record for utterance {rec.utterance_index}",
            )
        audio[rec.utterance_index] = rec
    return Dialogue(
        id=_as_str(_need(obj, "id", ""), "id"),
        scenario=_as_str(_need(obj, "scenario", ""), "scenario"),
        utterances=utterances,
        audio=audio,
    )


_SEXTUPLET_KEYS = {"sentiment_label": "sentiment"}


def sextuplet_to_dict(s: Sextuplet) -> dict:
    return record_to_dict(s, _SEXTUPLET_KEYS)


def sextuplet_from_dict(obj: Mapping[str, Any], path: str = "") -> Sextuplet:
    return record_from_dict(Sextuplet, {"aspect": "", **_as_obj(obj, path)}, path, _SEXTUPLET_KEYS)


def sextuplets_from_list(value: Any) -> list[Sextuplet]:
    """Parse a document's `sextuplets` array; a SchemaError names the first item
    that breaks a Sextuplet invariant (`sextuplets[i]`) or repeats an id
    (`sextuplets[i].id`)."""
    items: dict[str, Sextuplet] = {}
    for i, obj in enumerate(_as_list(value, "sextuplets")):
        s = sextuplet_from_dict(obj, f"sextuplets[{i}]")
        if s.problems():
            raise SchemaError(f"sextuplets[{i}]", "; ".join(s.problems()))
        if s.id in items:
            raise SchemaError(f"sextuplets[{i}].id", f"repeats sextuplet id {s.id!r}")
        items[s.id] = s
    return list(items.values())


def sextuplets_to_dict(dialogue_id: str, items: Iterable[Sextuplet]) -> dict:
    return {"dialogue_id": dialogue_id, "sextuplets": [sextuplet_to_dict(s) for s in items]}


def sextuplets_from_dict(obj: Any) -> tuple[str, list[Sextuplet]]:
    obj = _as_obj(obj, "")
    items = sextuplets_from_list(_need(obj, "sextuplets", ""))
    return _as_str(_need(obj, "dialogue_id", ""), "dialogue_id"), items


def scoring_config_to_dict(cfg: ScoringConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(ScoringConfig)}


def scoring_config_from_dict(obj: Mapping[str, Any]) -> ScoringConfig:
    """Build a ScoringConfig from a flat key/value document.

    Unknown keys are rejected so config-file typos fail loudly.
    """
    obj = _as_obj(obj, "config")
    names = {f.name for f in fields(ScoringConfig)}
    unknown = sorted(set(obj) - names)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ScoringConfig(**obj)


def dumps_canonical(obj: Any) -> str:
    """Serialize with a fixed layout so identical values give identical bytes."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


@contextmanager
def _decoding() -> Iterator[None]:
    """Raise every failure to decode JSON input as DialogueParseError: bytes
    that are not UTF-8, malformed JSON (at json's line and column), nesting
    deeper than json's recursion limit and a number json will not read, such
    as an integer of more than 4,300 digits."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise DialogueParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise DialogueParseError(f"input is nested too deeply: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DialogueParseError(f"input is not valid UTF-8: {exc}") from exc
    except ValueError as exc:
        raise DialogueParseError(str(exc)) from exc


def read_input(path: str | Path, parse: Callable[[bytes], Any]) -> Any:
    """parse(the bytes of the file at `path`), with a decode or knowledge-base
    format error named by the path; every input file read by path goes
    through here, so the prefix appears once."""
    try:
        return parse(Path(path).read_bytes())
    except (DialogueParseError, StoreFormatError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def json_documents(data: bytes | str) -> Iterator[tuple[int, Any]]:
    """Decode the JSON documents of `data` one after another, each once,
    yielding (the line the document starts on, its value)."""
    with _decoding():
        text = data if isinstance(data, str) else data.decode("utf-8")
    pos = _JSON_SPACE.match(text).end()
    line, counted = 1, 0
    while pos < len(text):
        line += text.count("\n", counted, pos)
        counted = pos
        with _decoding():
            obj, end = _DECODER.raw_decode(text, pos)
        yield line, obj
        pos = _JSON_SPACE.match(text, end).end()


def loads_json(data: bytes | str) -> Any:
    """The single JSON document of `data`; the reader of every JSON input file."""
    with _decoding():
        return _DECODER.decode(data if isinstance(data, str) else data.decode("utf-8"))
