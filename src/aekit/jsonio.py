"""Canonical JSON, the artifact codec, and the checked JSON reader.

:func:`canonical_dumps` makes serialize -> parse -> serialize byte-identical:
sorted keys, fixed separators, shortest round-trip floats, no NaN/inf.

An :class:`Artifact` is a dataclass whose file format is its fields: its
``to_dict`` writes each field, a tuple or ndarray as a JSON array and a
nested artifact as an object.  ``from_dict`` reverses that, ignores other
keys, and checks each value's JSON type: ``bool`` takes only a boolean,
``int`` only an integer, ``float`` a finite number (an integer is widened),
``str`` a string, a tuple or ndarray an array, a nested artifact an object,
and only an ``X | None`` field takes null.  A mismatch or a missing nested
field raises :class:`FieldError` with the path from the document's root,
such as ``steps[3].exit_code: expected int, got bool``; a missing top-level
field raises KeyError naming it.  One version rule, :func:`check_version`,
holds for every class: one with a ``KIND`` writes ``"version": VERSION``
and reads 1 to ``VERSION``, naming the kind in its errors; any other
checks a ``version`` only where the document has one.

Files from outside the program are read inside :func:`checked_input`, which
turns a malformed file into ConfigError naming it, or with
:func:`load_artifact`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from contextlib import contextmanager
from typing import Any, Iterable

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration or input file; the message names its source."""


class FieldError(ValueError):
    """A value that does not fit its field; the message starts with the field's path."""


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
    """The UTF-8 file's text, less a leading byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


class Artifact:
    """A dataclass saved as its fields; see the module docstring for the rules."""

    # The kind a versioned format names in its errors; None writes no version.
    KIND: str | None = None
    VERSION = 1  # the version a class with a KIND writes; reading takes 1 to it

    def __eq__(self, other: object) -> bool:
        """Same type and same ``to_dict()``; a class declared ``eq=False`` compares so."""
        if type(other) is not type(self):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        doc = {name: _encode(getattr(self, name)) for name, _ in _fields(type(self))}
        if self.KIND is not None:
            doc["version"] = self.VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: Any):
        if not isinstance(doc, dict):
            raise ValueError(f"{cls.KIND or cls.__name__} is not a JSON object")
        check_version(doc.get("version", None if cls.KIND else 1), cls.KIND or cls.__name__, cls.VERSION)
        return cls(**{name: _decode_at(name, hint, doc[name]) for name, hint in _fields(cls)})

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


def check_version(version: Any, what: str, newest: int = 1) -> None:
    """ValueError unless ``version`` is an int from 1 to ``newest``."""
    if type(version) is not int or not 1 <= version <= newest:
        raise ValueError(f"unsupported {what} version: {version}")


@functools.cache
def _fields(cls) -> tuple[tuple[str, Any], ...]:
    """``(name, type)`` of each of the dataclass ``cls``'s fields, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _encode(value: Any) -> Any:
    if isinstance(value, (str, float, int, type(None))):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, Artifact):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


# Per field type, its name in errors and the exact types of the JSON values
# (as json.loads makes them) it takes; a nested artifact takes an object.
_JSON_TYPES = {bool: ("bool", bool), int: ("int", int), float: ("float", int, float),
               str: ("str", str), tuple: ("array", list), np.ndarray: ("array", list)}


def _decode_at(segment: str, hint: Any, value: Any) -> Any:
    """``_decode(hint, value)``; an error it raises names its path from ``segment`` on."""
    try:
        return _decode(hint, value)
    except FieldError as exc:
        raise FieldError(segment + ("" if str(exc).startswith("[") else ".") + str(exc)) from None
    except KeyError as exc:  # a nested artifact lacks the field
        raise FieldError(f"{segment}: missing field {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise FieldError(f"{segment}: {exc}") from None


def _decode(hint: Any, value: Any) -> Any:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return _decode(hint, value)
    name, *accepted = _JSON_TYPES.get(origin or hint, ("object", dict))
    if type(value) not in accepted:
        got = {dict: "object", list: "array", type(None): "null"}.get(type(value), type(value).__name__)
        raise ValueError(f"expected {name}, got {got}")
    if hint is float and not math.isfinite(value := float(value)):
        raise ValueError(f"expected a finite float, got {value}")
    if origin is tuple:
        return tuple(_decode_at(f"[{i}]", typing.get_args(hint)[0], v) for i, v in enumerate(value))
    if hint is np.ndarray:
        if set(map(type, value)) <= {int, float}:
            array = np.array(value, dtype=np.float64)
            if np.isfinite(array).all():
                return array
        return np.array(_decode(tuple[float, ...], value))  # raises naming the entry at fault
    if issubclass(hint, Artifact):
        return hint.from_dict(value)
    return value


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
    """A decode, shape, field or check error in the block becomes ConfigError naming ``source``.

    Those are ValueError, TypeError and KeyError; an OSError passes through, since
    its message names its path.  A ConfigError raised in the block names its source
    already and passes through.
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
