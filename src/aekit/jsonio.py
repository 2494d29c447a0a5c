"""Canonical JSON, the artifact codec, and the checked JSON reader.

:func:`canonical_dumps` makes serialize -> parse -> serialize byte-identical:
sorted keys, fixed separators, shortest round-trip floats, no NaN/inf.

An :class:`Artifact` is a dataclass whose file format is its fields: its
``to_dict`` maps each field name to the field's value, a tuple written as a
JSON array, a nested artifact through its own ``to_dict`` and any other
nested dataclass as an object of its fields.  ``from_dict`` reverses that:
every field is required, ``int``, ``float`` and ``bool`` values are coerced
with their type, ``str`` values pass through and ``X | None`` accepts null.
A class with a ``KIND`` also writes ``"version": 1`` and reads its document
through :func:`versioned`, whose errors name the kind.  ``to_json`` and
``from_json`` wrap the two in canonical JSON.

Files from outside the program are read inside :func:`checked_input`, which
turns a malformed file into ConfigError naming it, or with
:func:`load_artifact`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
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
    """A dataclass saved as its fields; see the module docstring for the rules."""

    # The kind a versioned format names in its errors; None writes no version.
    KIND: str | None = None

    def to_dict(self) -> dict:
        doc = _fields_dict(self)
        if self.KIND is not None:
            doc["version"] = 1
        return doc

    @classmethod
    def from_dict(cls, doc: Any):
        if cls.KIND is not None:
            doc = versioned(doc, cls.KIND)
        return _from_fields(cls, doc)

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@functools.cache
def _fields(cls) -> tuple[tuple[str, Any], ...]:
    """``(name, type)`` of each of the dataclass ``cls``'s fields, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _fields_dict(obj) -> dict:
    return {name: _encode(getattr(obj, name)) for name, _ in _fields(type(obj))}


def _encode(value: Any) -> Any:
    if isinstance(value, (str, float, int, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, Artifact):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return _fields_dict(value)
    return value


def _from_fields(cls, doc: Any):
    return cls(**{name: _decode(hint, doc[name]) for name, hint in _fields(cls)})


def _decode(hint: Any, value: Any) -> Any:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _decode(hint, value)
    if origin is tuple:
        return tuple(_decode(typing.get_args(hint)[0], v) for v in value)
    if isinstance(hint, type) and issubclass(hint, Artifact):
        return hint.from_dict(value)
    if dataclasses.is_dataclass(hint):
        return _from_fields(hint, value)
    if hint in (int, float, bool):
        return hint(value)
    return value


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
