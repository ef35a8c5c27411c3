"""Retrieval-augmented prompt assembly and sextuplet extraction.

Providers are pluggable: the mock provider applies a fixed rule table to
the current window so the whole pipeline runs offline and deterministically;
the remote provider speaks a chat-completion HTTP contract. Both return raw
text that flows through the same response parser. The rule table is one
pattern table, `_RULES`, read by `apply_rule_table`; the mock provider, the
synthetic generator (`synth`) and the test oracle all share it.

Each utterance line appears once per prompt. Retrieved windows overlap the
current window and each other, so a retrieved window keeps only the lines
the prompt does not already hold.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from .errors import ResponseParseError, SchemaError
# dialogue_rows calls build_windows bound here: benchmarks/tracing.py patches
# kb.build_windows to count the windows indexing builds, and no others
from .kb import KnowledgeBase, RetrievalHit, TimeWindow, build_windows, retrieve
from .model import Dialogue, REQUIRED_TEXT_FIELDS, SENTIMENT_LABELS, ScoringConfig, Sextuplet
from .model import sextuplets_to_dict  # imported from here by benchmarks/workloads.py
from .transport import JsonEndpoint, map_calls

if TYPE_CHECKING:
    import hashlib

logger = logging.getLogger(__name__)

DEFAULT_SYSTEM_INSTRUCTIONS = (
    "You analyse long multi-party dialogues. Identify every emotional-opinion "
    "event in the current window: who expresses a sentiment (holder), about whom "
    "or what (target), which facet of the target (aspect), the opinion wording, "
    "the sentiment polarity, and the stated rationale. Use the retrieved earlier "
    "context only to resolve references; report events from the current window."
)

DEFAULT_SCHEMA_INSTRUCTIONS = (
    "Reply with exactly one JSON array. Each element must be an object with keys "
    '"holder", "target", "aspect", "opinion", "sentiment" (one of "positive", '
    '"negative", "neutral"), "rationale", and "utterance_index" (the [#N] number '
    "of the line the event appears in). Use an empty string for an implicit "
    "aspect. Output nothing but the array."
)

NO_CONTEXT_MARKER = "(no prior context retrieved)"

_SECTION_TASK = "=== TASK ==="
_SECTION_CONTEXT = "=== RETRIEVED CONTEXT ==="
_SECTION_WINDOW = "=== CURRENT WINDOW ==="
_SECTION_OUTPUT = "=== OUTPUT FORMAT ==="


@dataclass(frozen=True)
class ExtractionPrompt:
    """One request's current window and retrieved context; render sets them
    between the fixed DEFAULT_*_INSTRUCTIONS, deterministically. As built by
    assemble_prompt, the context keeps the order retrieval gives and no
    utterance line appears twice: each context block holds only lines absent
    from the current window and from earlier blocks."""

    current_window_text: str
    retrieved_context: tuple[tuple[str, float], ...]

    def render(self) -> str:
        parts = [_SECTION_TASK, DEFAULT_SYSTEM_INSTRUCTIONS, "", _SECTION_CONTEXT]
        if not self.retrieved_context:
            parts.append(NO_CONTEXT_MARKER)
        else:
            for rank, (text, similarity) in enumerate(self.retrieved_context, start=1):
                parts.append(f"--- context {rank} (similarity {similarity:.4f}) ---")
                parts.append(text)
        parts += ["", _SECTION_WINDOW, self.current_window_text, "", _SECTION_OUTPUT,
                  DEFAULT_SCHEMA_INSTRUCTIONS]
        return "\n".join(parts)


def assemble_prompt(window: TimeWindow, context: Sequence[RetrievalHit]) -> ExtractionPrompt:
    """Order: the fixed task instructions, retrieved context in the order
    retrieval gives it, current window, the fixed output schema.

    Each utterance line appears once per prompt. A hit keeps only the lines,
    keyed by (dialogue_id, line), that neither the current window nor an
    earlier hit holds; a hit left with no line is dropped, and with no hit
    left the prompt renders NO_CONTEXT_MARKER.
    """
    seen = {(window.dialogue_id, line) for line in window.text.splitlines()}
    blocks = []
    for h in context:
        fresh = []
        for line in h.window.text.splitlines():
            key = (h.window.dialogue_id, line)
            if key not in seen:
                seen.add(key)
                fresh.append(line)
        if fresh:
            blocks.append(("\n".join(fresh), h.similarity))
    return ExtractionPrompt(current_window_text=window.text, retrieved_context=tuple(blocks))


# ---------------------------------------------------------------------------
# The rule table. Its surface patterns are single sentences of the form
#   "<Holder> praises/criticizes <Target>'s <aspect> because <rationale>."
#   "<Holder> feels/is/sounded positive|negative|neutral about <Target>'s
#    <aspect> because <rationale>."
# ---------------------------------------------------------------------------

VERB_SENTIMENTS = {"praises": "positive", "criticizes": "negative"}

_RULES = (
    re.compile(
        r"(?P<holder>[A-Z][\w-]*) (?P<opinion>praises|criticizes) "
        r"(?P<target>[A-Z][\w-]*)'s (?P<aspect>[\w-]+) because (?P<rationale>[^.!?\n]+)"
    ),
    re.compile(
        r"(?P<holder>[A-Z][\w-]*) (?:feels|is|sounded) (?P<opinion>positive|negative|neutral) "
        r"about (?P<target>[A-Z][\w-]*)'s (?P<aspect>[\w-]+) because (?P<rationale>[^.!?\n]+)"
    ),
)

_WINDOW_LINE = re.compile(
    r"^\[#(?P<index>\d+)\] (?P<speaker>[^:]+): (?P<text>.*?)(?: \[voice: [^][]*\])?$"
)


def apply_rule_table(text: str) -> list[dict]:
    """All rule-table matches in one utterance text, in match order."""
    matches = sorted((m for rule in _RULES for m in rule.finditer(text)), key=lambda m: m.start())
    return [
        {
            "holder": m["holder"],
            "target": m["target"],
            "aspect": m["aspect"],
            "opinion": m["opinion"],
            "sentiment": VERB_SENTIMENTS.get(m["opinion"], m["opinion"]),
            "rationale": m["rationale"].strip(),
        }
        for m in matches
    ]


@runtime_checkable
class ExtractorProvider(Protocol):
    id: str
    mode: str

    def complete(self, prompt_text: str) -> str: ...


class MockExtractor:
    """Offline extractor: applies the rule table to each current-window line.

    A pure function of the prompt text, so pipeline runs are reproducible
    without any model dependency.
    """

    id = "mock"
    mode = "mock"

    def complete(self, prompt_text: str) -> str:
        window_text = _current_window_section(prompt_text)
        results = []
        for line in window_text.splitlines():
            parsed = _WINDOW_LINE.match(line)
            if parsed is None:
                index, text = None, line
            else:
                index, text = int(parsed["index"]), parsed["text"]
            for item in apply_rule_table(text):
                entry = dict(item)
                if index is not None:
                    entry["utterance_index"] = index
                results.append(entry)
        return "Extracted events follow.\n" + json.dumps(results)


def _current_window_section(prompt_text: str) -> str:
    try:
        after = prompt_text.split(_SECTION_WINDOW + "\n", 1)[1]
    except IndexError:
        raise ResponseParseError("prompt has no current-window section", prompt_text)
    return after.split("\n" + _SECTION_OUTPUT, 1)[0]


class RemoteExtractor:
    """Chat-completion HTTP provider.

    POST {model, messages, temperature: 0} -> {content: str}. The prompt's task
    section becomes the system message and the rest the user message.
    Temperature is pinned to 0 for determinism where the backend honors it.
    """

    mode = "remote"

    def __init__(
        self,
        model: str,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
        session: object = None,  # never read; benchmarks/workloads.py passes one until ROADMAP item 1b
    ):
        self.model = model
        self.id = f"remote:{model}"
        self._http = JsonEndpoint("extractor", "LLM", endpoint, api_key, timeout)

    def complete(self, prompt_text: str) -> str:
        head, _, body = prompt_text.partition("\n\n" + _SECTION_CONTEXT)
        messages = [
            {"role": "system", "content": head.removeprefix(_SECTION_TASK + "\n")},
            {"role": "user", "content": (_SECTION_CONTEXT + body) if body else prompt_text},
        ]
        reply = self._http.call({"model": self.model, "messages": messages, "temperature": 0})
        content = reply.get("content") if isinstance(reply, dict) else None
        if not isinstance(content, str):
            raise ResponseParseError(f"chat content {content!r} is not a string", json.dumps(reply))
        return content


def extractor_from_spec(spec: str) -> ExtractorProvider:
    if spec == "mock":
        return MockExtractor()
    if spec.startswith("remote:") and spec != "remote:":  # an empty model is refused
        return RemoteExtractor(model=spec.split(":", 1)[1])
    raise ValueError(f"unknown extractor spec {spec!r} (use 'mock' or 'remote:<model>')")


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleCandidate:
    """One parsed element of a provider response, before provenance is attached."""

    holder: str
    target: str
    aspect: str
    opinion: str
    sentiment: str
    rationale: str
    utterance_index: int | None = None


@dataclass(frozen=True)
class RejectedElement:
    position: int
    reason: str


_FIELD_ALIASES = {"sentiment_label": "sentiment", "polarity": "sentiment"}
# A reply element's text fields in TupleCandidate order; a non-string reads
# as "". The aspect may be implicit and the sentiment is checked on its own.
_TEXT_FIELDS = ("holder", "target", "aspect", "opinion", "sentiment", "rationale")


def parse_provider_response(raw: str) -> tuple[list[TupleCandidate], list[RejectedElement]]:
    """Extract the first well-formed JSON array from possibly prose-wrapped
    output; invalid elements are rejected individually with their positions."""
    decoder = json.JSONDecoder()
    array = None
    for i, ch in enumerate(raw):
        if ch != "[":
            continue
        try:
            value, _ = decoder.raw_decode(raw, i)
        except ValueError:  # JSONDecodeError, or a number int() will not read
            continue
        except RecursionError as exc:  # ends the scan: no retry at each inner "["
            raise ResponseParseError(f"provider response is nested too deeply: {exc}", raw) from exc
        if isinstance(value, list):
            array = value
            break
    if array is None:
        raise ResponseParseError("no JSON array found in provider response", raw)

    candidates: list[TupleCandidate] = []
    rejections: list[RejectedElement] = []
    for pos, element in enumerate(array):
        if not isinstance(element, dict):
            rejections.append(RejectedElement(pos, "element is not an object"))
            continue
        fields = {_FIELD_ALIASES.get(k := str(key).casefold(), k): v for key, v in element.items()}
        text = {
            name: v.strip() if isinstance(v := fields.get(name, ""), str) else ""
            for name in _TEXT_FIELDS
        }
        missing = [name for name in REQUIRED_TEXT_FIELDS if not text[name]]
        if missing:
            rejections.append(RejectedElement(pos, f"missing or empty: {', '.join(missing)}"))
            continue
        text["sentiment"] = text["sentiment"].casefold()
        if text["sentiment"] not in SENTIMENT_LABELS:
            rejections.append(RejectedElement(pos, f"sentiment {text['sentiment']!r} not recognized"))
            continue
        index = fields.get("utterance_index")
        if isinstance(index, bool) or not isinstance(index, int):
            index = None

        candidates.append(TupleCandidate(**text, utterance_index=index))
    return candidates, rejections


# ---------------------------------------------------------------------------
# Extraction with provenance
# ---------------------------------------------------------------------------


def extract_sextuplets(
    prompt_text: str,
    provider: ExtractorProvider,
    window: TimeWindow,
    dialogue: Dialogue,
) -> list[Sextuplet]:
    """Run the provider on one rendered prompt and attach id, window and timing provenance."""
    raw = provider.complete(prompt_text)
    candidates, rejections = parse_provider_response(raw)
    for rejection in rejections:
        logger.warning(
            "window %d: dropped element %d: %s",
            window.window_index, rejection.position, rejection.reason,
        )

    in_window = dialogue.utterances[window.start_index : window.end_index + 1]
    span_start = min(u.t_start for u in in_window)
    span_end = max(u.t_end for u in in_window)
    results = []
    for seq, c in enumerate(candidates):
        if c.utterance_index is not None and window.start_index <= c.utterance_index <= window.end_index:
            anchor = dialogue.utterances[c.utterance_index]
            t_start, t_end = anchor.t_start, anchor.t_end
        else:
            t_start, t_end = span_start, span_end
        results.append(
            Sextuplet(
                id=f"{dialogue.id}-w{window.window_index:04d}-t{seq:02d}",
                holder=c.holder,
                target=c.target,
                aspect=c.aspect,
                opinion=c.opinion,
                sentiment_label=c.sentiment,
                rationale=c.rationale,
                window_index=window.window_index,
                t_start=t_start,
                t_end=t_end,
            )
        )
    return results


def dedup_sextuplets(items: Sequence[Sextuplet]) -> list[Sextuplet]:
    """Merge duplicates from overlapping windows: case-folded (holder, target,
    aspect, opinion) keys keep the instance with the earliest window_index."""
    best: dict[tuple, Sextuplet] = {}
    for s in items:
        key = s.dedup_key()
        if key not in best or s.window_index < best[key].window_index:
            best[key] = s  # a re-assigned key keeps its first position
    return list(best.values())


def dialogue_rows(kb: KnowledgeBase, dialogue: Dialogue) -> list[int]:
    """The KB rows of the dialogue's windows, in window order, once they are
    checked to equal, text included, those build_windows gives the dialogue
    at the KB's window_size and stride: a KB indexed from other utterances
    under the same id is refused. A KB without the dialogue's windows, or
    with one that differs, raises SchemaError naming the first that differs
    (`window <k>`)."""
    rows = [i for i, w in enumerate(kb.windows) if w.dialogue_id == dialogue.id]
    if not rows:
        raise SchemaError("windows", f"dialogue {dialogue.id!r} has no windows in the knowledge base")
    expected = build_windows(dialogue, kb.meta.window_size, kb.meta.stride)
    for k, (stored, built) in enumerate(itertools.zip_longest([kb.windows[i] for i in rows], expected)):
        if stored != built:
            raise SchemaError(
                f"window {k}",
                f"does not match dialogue {dialogue.id!r} ({dialogue.n} utterances) at window_size "
                f"{kb.meta.window_size} and stride {kb.meta.stride}; the knowledge base was "
                "indexed from other utterances: re-index the dialogue",
            )
    return rows


def extract_dialogue(
    dialogue: Dialogue,
    kb: KnowledgeBase,
    provider: ExtractorProvider,
    cfg: ScoringConfig | None = None,
    *,
    jobs: int = 1,  # never read; benchmarks/workloads.py passes one until ROADMAP item 1b
    prompt_hash: hashlib._Hash | None = None,
) -> list[Sextuplet]:
    """Extract over every indexed window of the dialogue, with retrieval-
    augmented prompts, then deduplicate across overlapping windows. The
    KB's windows of the dialogue are checked first (dialogue_rows).

    Windows run through map_calls: a remote provider's calls overlap, any
    other's run in order. Each rendered prompt is fed into prompt_hash (a
    hashlib object), if given, in window order: its digest changes with what
    retrieval puts in front of the provider even where the sextuplets do not.
    """
    cfg = cfg or ScoringConfig()
    indexed = [(i, kb.windows[i]) for i in dialogue_rows(kb, dialogue)]

    def run_one(item: tuple[int, TimeWindow]) -> tuple[str, list[Sextuplet]]:
        i, window = item
        context = retrieve(window, kb.vectors[i], kb, cfg.top_n)
        prompt_text = assemble_prompt(window, context).render()
        return prompt_text, extract_sextuplets(prompt_text, provider, window, dialogue)

    # in window order: dialogue_rows returns the rows so, and map_calls keeps input order
    outcomes = map_calls(run_one, indexed, provider)
    if prompt_hash is not None:
        for prompt_text, _ in outcomes:
            prompt_hash.update(prompt_text.encode("utf-8"))
    flat = [s for _, found in outcomes for s in found]
    return dedup_sextuplets(flat)
