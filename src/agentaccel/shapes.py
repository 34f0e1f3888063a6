"""Declarative shapes of the JSON documents the loaders read, and their one checker.

A loader declares its document once as a shape.  `check(doc, shape, where,
error)` raises the loader's own `error` class with one line naming `where`
(the file), the first field that does not fit (`'entries'`, or a path such as
`entries[0].key`), what it must be and what it is; `load_json` and
`parse_json` also name the file (or line) whose JSON does not parse.  Shapes
check types and the ranges a `Check` states; what relates one field to
another, or a document to other files, stays with its loader.  JSON true and
false decode as bool, an int subclass: no shape here takes a bool for a number.
"""

from __future__ import annotations

import json
from pathlib import Path

_MISSING = object()


class Shape:
    """A JSON scalar: a value whose Python type is one of `types`.

    `misfit(value)` is None when the value fits, else its first part that does
    not, as `(path, expected, part, wrong)`: the keys and indices down to it,
    what it must be, the part (_MISSING for an absent field), and "type",
    "value" or "type of item <i>".
    """

    types: frozenset | None = None

    def __init__(self, expected: str, *types: type):
        self.expected = expected
        self.types = frozenset(types)

    def misfit(self, value):
        return None if type(value) in self.types else ((), self.expected, value, "type")


INT = Shape("an integer", int)
NUMBER = Shape("a number", int, float)
STR = Shape("a string", str)
BOOL = Shape("true or false", bool)
OBJECT = Shape("an object", dict)
ANY = Shape("a JSON value", dict, list, str, int, float, bool, type(None))


class ListOf(Shape):
    """A JSON list whose every item fits `item`.

    Scalar items are checked in one C-level pass over their types, and a
    misfit names the list and its first wrong item; other items are checked
    one by one, and a misfit names the item.
    """

    def __init__(self, item: Shape, expected: str = "a list"):
        self.item = item
        self.expected = expected

    def misfit(self, value):
        if type(value) is not list:
            return (), self.expected, value, "type"
        types = self.item.types
        if types is not None:
            if set(map(type, value)) <= types:
                return None
            i = next(i for i, part in enumerate(value) if type(part) not in types)
            return (), self.expected, value[i], f"type of item {i}"
        misfit = self.item.misfit
        for i, part in enumerate(value):
            found = misfit(part)
            if found is not None:
                return ((i, *found[0]), *found[1:])
        return None


TOKEN_IDS = ListOf(INT, "a list of token ids")
STRINGS = ListOf(STR, "a list of strings")


class Object(Shape):
    """A JSON object holding each `required` field and, if present, each `optional` one; others go unchecked."""

    def __init__(self, required: dict | None = None, optional: dict | None = None):
        self.required = dict(required or {})
        self.optional = dict(optional or {})
        names = ", ".join(f"'{name}'" for name in self.required)
        self.expected = f"an object holding {names}" if names else "an object"
        fields = {**self.required, **self.optional}
        self._fields = tuple((name, shape.misfit, name in self.required) for name, shape in fields.items())

    def misfit(self, value):
        if type(value) is not dict:
            return (), self.expected, value, "type"
        for name, misfit, required in self._fields:
            part = value.get(name, _MISSING)
            if part is _MISSING:
                if required:
                    return (name,), self.required[name].expected, _MISSING, "type"
                continue
            found = misfit(part)
            if found is not None:
                return ((name, *found[0]), *found[1:])
        return None


class Check(Shape):
    """A value of shape `base` that passes `test`; `expected` says which values pass."""

    def __init__(self, base: Shape, test, expected: str):
        self.base, self.test, self.expected = base, test, expected

    def misfit(self, value):
        found = self.base.misfit(value)
        if found is not None:
            return found if found[0] else ((), self.expected, *found[2:])
        return None if self.test(value) else ((), self.expected, value, "value")


COUNT = Check(INT, lambda v: v >= 0, "a non-negative integer")


def check(doc, shape: Shape, where: str, error) -> None:
    """Raise `error` (called with one message) naming `where` and the first part of `doc` that misfits `shape`."""
    found = shape.misfit(doc)
    if found is None:
        return
    path, expected, part, wrong = found
    subject = path[:-1] if part is _MISSING else path
    if len(subject) == 1 and isinstance(subject[0], str):
        where += f" field '{subject[0]}'"
    elif subject:
        where += ": " + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in subject).lstrip(".")
    if part is _MISSING:
        raise error(f"{where} is missing field '{path[-1]}'")
    if not path and expected.startswith("an object"):
        expected = "a JSON" + expected[2:]  # the whole document
    text = json.dumps(part)
    raise error(f"{where} is not {expected} (wrong {wrong}: {text if len(text) <= 40 else text[:37] + '...'})")


def parse_json(text: str, shape: Shape, where: str, error):
    """The JSON document `text`, checked to fit `shape`; text that does not parse raises `error` naming `where`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where} is not valid JSON: {exc}") from None
    check(doc, shape, where, error)
    return doc


def load_json(path, shape: Shape, where: str, error):
    """`parse_json` of the file at `path`; an unreadable file raises `error` naming `where`."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{where} is unreadable: {exc}") from None
    return parse_json(text, shape, where, error)
