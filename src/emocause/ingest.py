"""Parsing of dialogue files and audio sidecar records.

A dialogue file is a single JSON document, a JSON array of dialogues, or
JSONL (one JSON object per line). ``parse_corpus`` is the one parser of all
three, and every command reads its dialogue files through it: each document
is decoded once and parsed by ``model.dialogue_from_dict``. ``read_corpus``
and ``read_dialogue`` then pass each dialogue through one validation gate;
with the keyword-only ``strict=True`` its warnings reject the dialogue too.
``read_dialogue`` refuses a file that holds more than one dialogue. Audio
records pointing at nonexistent utterances are a hard error because silent
misalignment would corrupt fusion downstream.
"""

from __future__ import annotations

import itertools
import logging
from pathlib import Path
from typing import Any

from .errors import InvalidDialogueError, SchemaError, StrictModeError
from .model import Dialogue, dialogue_from_dict, json_documents, read_input, validate_dialogue

logger = logging.getLogger(__name__)


def _admit(dialogue: Dialogue, strict: bool) -> Dialogue:
    """The validation gate: errors reject the dialogue; warnings reject it in
    strict mode and are logged otherwise."""
    report = validate_dialogue(dialogue)
    if report.errors:
        raise InvalidDialogueError(
            [f"{i.location}: {i.message}" for i in report.errors], dialogue.id
        )
    if report.warnings:
        messages = [f"{i.location}: {i.message}" for i in report.warnings]
        if strict:
            raise StrictModeError(messages, dialogue.id)
        for m in messages:
            logger.warning("dialogue %s: %s", dialogue.id, m)
    return dialogue


def parse_corpus(data: bytes | str) -> list[Dialogue]:
    """Schema-parse a dialogue file, without the validation gate: a single
    JSON document, a JSON array of dialogues, or one JSON object per line. A
    schema error names the failing document by its array position
    (``[1].utterances[0].t_start``) or by its line (``line 2:
    utterances[0].t_start``). A file with no dialogue, or with one dialogue
    id twice (``line 2: id``), is a schema error."""
    docs, seen = json_documents(data), set()
    first = next(docs, None)
    if first is None or first[1] == []:
        raise SchemaError("", "no dialogue: the file is empty or starts with an empty array")
    following = next(docs, None)
    if following is not None:
        return [
            _corpus_item(obj, f"line {line}", ": ", seen)
            for line, obj in itertools.chain((first, following), docs)
        ]
    if isinstance(first[1], list):
        return [_corpus_item(item, f"[{i}]", ".", seen) for i, item in enumerate(first[1])]
    return [_corpus_item(first[1], "", "", seen)]


def _corpus_item(obj: Any, where: str, sep: str, seen: set[str]) -> Dialogue:
    """Parse one document of a dialogue file whose id is not in `seen`,
    prefixing `where` to the path of a schema error."""
    try:
        dialogue = dialogue_from_dict(obj)
    except SchemaError as exc:
        raise SchemaError(sep.join(filter(None, (where, exc.path))), exc.message) from exc
    if dialogue.id in seen:
        raise SchemaError(f"{where}{sep}id", f"repeats dialogue id {dialogue.id!r}")
    seen.add(dialogue.id)
    return dialogue


def read_dialogue(path: str | Path, *, strict: bool = False) -> Dialogue:
    """The one dialogue of a dialogue file, through the validation gate; a
    file of two or more dialogues is a schema error named by its path."""
    dialogue, *rest = read_input(path, parse_corpus)
    if rest:
        raise SchemaError(str(path), f"holds {len(rest) + 1} dialogues, expected one")
    return _admit(dialogue, strict)


def read_corpus(path: str | Path, *, strict: bool = False) -> list[Dialogue]:
    """Every dialogue of a dialogue file, each through the validation gate."""
    return [_admit(dialogue, strict) for dialogue in read_input(path, parse_corpus)]
