"""Canonical JSON, the artifact envelope, and the checked JSON reader.

:func:`canonical_dumps` makes serialize -> parse -> serialize byte-identical:
sorted keys, fixed separators, shortest round-trip floats, no NaN/inf.  The
envelope, :class:`Artifact`, turns a class's ``to_dict`` field mapping (its
file format) into ``to_json``; :class:`LoadableArtifact` adds ``from_json``
over ``from_dict``; :func:`versioned` checks a format's ``"version"``.  Files
from outside the program are read inside :func:`checked_input`, which turns a
malformed file into ConfigError naming it, or with :func:`load_artifact`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterable


class ConfigError(ValueError):
    """Invalid configuration or input file; the message names its source."""


def canonical_dumps(obj: Any) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    )


def dumps_jsonl(records: Iterable[Any]) -> str:
    """One canonical JSON object per line, trailing newline included."""
    return "".join(canonical_dumps(r) + "\n" for r in records)


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class Artifact:
    """Envelope of a saved artifact: canonical JSON of its ``to_dict``."""

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())


class LoadableArtifact(Artifact):
    """An artifact that is read back too: ``from_json`` parses into ``from_dict``."""

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


def versioned(doc: Any, kind: str) -> dict:
    """``doc`` if it is a JSON object of format version 1; ValueError otherwise."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} is not a JSON object")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported {kind} version: {doc.get('version')}")
    return doc


def json_object(text: str, what: str = "the file") -> dict:
    """``text`` parsed as one JSON object; ValueError saying ``what`` is not one otherwise."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not a JSON object")
    return doc


@contextmanager
def checked_input(source):
    """A decode, shape or field error in the block becomes ConfigError naming ``source``.

    A ConfigError raised in the block names its source already and passes through.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{source}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_artifact(cls, path):
    """``cls.from_dict`` of the JSON object in the file at ``path``, under :func:`checked_input`."""
    with checked_input(path):
        return cls.from_dict(json_object(read_text(path)))
