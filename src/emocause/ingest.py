"""Parsing of dialogue files and audio sidecar records.

Accepts a single JSON document per dialogue, a JSON array of dialogues, or
a line-delimited corpus (one JSON object per line). Each document is
decoded once, parsed by ``model.dialogue_from_dict`` and passed through one
validation gate; with the keyword-only ``strict=True`` its warnings reject
the dialogue too. Audio records pointing at nonexistent utterances are a
hard error because silent misalignment would corrupt fusion downstream.
"""

from __future__ import annotations

import itertools
import logging
from pathlib import Path
from typing import Any

from .errors import InvalidDialogueError, SchemaError, StrictModeError
from .model import (
    Dialogue,
    dialogue_from_dict,
    json_documents,
    loads_json,
    read_input,
    validate_dialogue,
)

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


def load_raw_dialogue(data: bytes | str) -> Dialogue:
    """Schema-parse a dialogue document without the validation gate.

    Useful when the caller wants the full validation report rather than a
    raised error (the `validate` subcommand does).
    """
    return dialogue_from_dict(loads_json(data))


def parse_dialogue_file(data: bytes | str, *, strict: bool = False) -> Dialogue:
    """Parse one dialogue document; the result passes validation with zero errors."""
    return _admit(load_raw_dialogue(data), strict)


def parse_corpus(data: bytes | str, *, strict: bool = False) -> list[Dialogue]:
    """Parse a corpus: a single JSON document, a JSON array of dialogues, or
    one JSON object per line. A schema error names the failing document by
    its array position (``[1].utterances[0].t_start``) or by its line
    (``line 2: utterances[0].t_start``). A file with no dialogue, or with
    one dialogue id twice (``line 2: id``), is a schema error."""
    docs, seen = json_documents(data), set()
    first = next(docs, None)
    if first is None or first[1] == []:
        raise SchemaError("", "no dialogue: the file is empty or starts with an empty array")
    following = next(docs, None)
    if following is None:
        obj = first[1]
        if isinstance(obj, list):
            return [_corpus_item(item, strict, f"[{i}]", ".", seen) for i, item in enumerate(obj)]
        return [_admit(dialogue_from_dict(obj), strict)]
    return [
        _corpus_item(obj, strict, f"line {line}", ": ", seen)
        for line, obj in itertools.chain((first, following), docs)
    ]


def _corpus_item(obj: Any, strict: bool, where: str, sep: str, seen: set[str]) -> Dialogue:
    """Parse and admit one document of a corpus whose id is not in `seen`,
    prefixing `where` to the path of a schema error."""
    try:
        dialogue = dialogue_from_dict(obj)
    except SchemaError as exc:
        raise SchemaError(sep.join(filter(None, (where, exc.path))), exc.message) from exc
    if dialogue.id in seen:
        raise SchemaError(f"{where}{sep}id", f"repeats dialogue id {dialogue.id!r}")
    seen.add(dialogue.id)
    return _admit(dialogue, strict)


def read_dialogue(path: str | Path, *, strict: bool = False) -> Dialogue:
    return read_input(path, lambda data: parse_dialogue_file(data, strict=strict))


def read_corpus(path: str | Path, *, strict: bool = False) -> list[Dialogue]:
    """Read `.json` (single document or array) or `.jsonl` (one dialogue per line) files."""
    return read_input(path, lambda data: parse_corpus(data, strict=strict))
