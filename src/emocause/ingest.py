"""Parsing of dialogue files and audio sidecar records.

A dialogue file is a single JSON document, a JSON array of dialogues, or
JSONL (one JSON object per line), walked by ``model.parse_documents`` as a
gold file is. Every command reads its dialogue files through
``parse_corpus``: each document is decoded once and parsed by
``model.dialogue_from_dict``. ``read_corpus`` and ``read_dialogue`` then
pass each dialogue through one validation gate; with the keyword-only
``strict=True`` its warnings reject the dialogue too. ``read_dialogue``
refuses a file that holds more than one dialogue. Audio records pointing at
nonexistent utterances are a hard error because silent misalignment would
corrupt fusion downstream.
"""

from __future__ import annotations

import logging
from pathlib import Path

from .errors import InvalidDialogueError, SchemaError, StrictModeError
from .model import Dialogue, dialogue_from_dict, parse_documents, read_input, validate_dialogue

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
    """Schema-parse every dialogue of a dialogue file, without the
    validation gate (model.parse_documents)."""
    return parse_documents(data, lambda obj: ("id", (d := dialogue_from_dict(obj)).id, d))


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
