"""Exception types shared across the package."""

from __future__ import annotations


class EmocauseError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EmocauseError):
    """Invalid scoring or pipeline configuration."""


class SchemaError(EmocauseError):
    """A document violates the expected schema at a specific field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


class DialogueParseError(EmocauseError):
    """A JSON input file (dialogue, corpus, gold, graph, sextuplets or config)
    is not UTF-8, is malformed, or holds a number JSON cannot read."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line
        self.column = column


def _quote(issues: list[str]) -> str:
    """The first 5 issues and a count of the rest: one short line, however many."""
    rest = len(issues) - 5
    return "; ".join(issues[:5]) + (f"; and {rest} more" if rest > 0 else "")


class InvalidDialogueError(EmocauseError):
    """A parsed dialogue failed invariant validation (all issues in .errors)."""

    def __init__(self, errors: list[str], dialogue_id: str):
        super().__init__(f"dialogue {dialogue_id!r} failed validation: " + _quote(errors))
        self.errors = errors


class StrictModeError(EmocauseError):
    """Strict ingestion rejected a dialogue that only carried warnings (all in .warnings)."""

    def __init__(self, warnings: list[str], dialogue_id: str):
        super().__init__(
            f"strict mode rejected dialogue {dialogue_id!r} with warnings: " + _quote(warnings)
        )
        self.warnings = warnings


class EmbeddingError(EmocauseError):
    """An embedding provider failed or returned an unusable vector."""


class FusionError(EmocauseError):
    """Multimodal fusion inputs are inconsistent."""


class TransportError(EmocauseError):
    """A remote provider call failed at the transport level."""


class ResponseParseError(EmocauseError):
    """A provider response could not be parsed; carries the raw text."""

    def __init__(self, message: str, raw: str = ""):
        super().__init__(message)
        self.raw = raw


class StoreFormatError(EmocauseError):
    """A persisted knowledge-base file is corrupt or version-incompatible."""


class PrecedenceError(EmocauseError):
    """A temporal score was requested for an effect that precedes its cause."""
