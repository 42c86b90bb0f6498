"""Exception types shared across the package, the int check of a caller's
count or id, the kind and UTF-8 checks that turn malformed decoded JSON
into a ValidationError, and the checker of a table of node facts, with the
first-occurrence rule two facts use."""
from __future__ import annotations

from itertools import compress, count, islice
from operator import eq, not_
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence


class IbagSearchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IbagSearchError):
    """A line-oriented input file failed to parse."""

    def __init__(self, source: object, line_no: int, message: str) -> None:
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = str(source)
        self.line_no = line_no


class ValidationError(IbagSearchError):
    """Input data violated a structural constraint."""


class TermError(ValidationError):
    """An ontology term's name, weight or synonyms are at fault: ``index``
    is the term's position, and ``synonyms`` whether its synonyms are."""

    def __init__(self, message: str, index: int, synonyms: bool = False) -> None:
        super().__init__(message)
        self.index = index
        self.synonyms = synonyms


def check_int(value: Any, name: str) -> None:
    """Raise ValueError unless ``value``'s type is exactly int: a float
    would slice or count wrongly, and a bool is not a count."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_count(value: Any, name: str) -> None:
    """Raise ValueError unless ``value`` is an int (:func:`check_int`) of at least 1."""
    check_int(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", list: "a list", dict: "an object",
    tuple: "a tuple",
}


def check_kind(value: Any, kind: type, where: str) -> Any:
    """Return ``value`` if it is a JSON value of ``kind``, or a tuple where
    ``kind`` is ``tuple``, else raise.

    ``float`` accepts any JSON number except NaN; a bool is never a number.
    """
    ok = isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
    if not ok or (kind is float and value != value):
        raise ValidationError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r:.40}")
    return value


def json_fields(obj: Any, where: str, **kinds: type) -> list[Any]:
    """The values of ``obj``'s keys in the order ``kinds`` lists them, each
    checked with :func:`check_kind` unless its kind is ``object`` (any
    value, which the caller checks): ``obj`` must be an object holding
    every key of ``kinds`` and no other."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object")
    values = []
    for key, kind in kinds.items():
        if key not in obj:
            raise ValidationError(f"{where} lacks {key!r}")
        value = obj[key]
        values.append(value if kind is object else check_kind(value, kind, f"{where}.{key}"))
    if len(obj) > len(kinds):
        unknown = next(key for key in obj if key not in kinds)
        raise ValidationError(f"{where} has unknown key {unknown!r}")
    return values


def valid_utf8_flags(texts: Sequence[str]) -> Iterable[bool]:
    """Whether each of ``texts`` encodes as UTF-8 (a lone surrogate does
    not), lazily; none, all holding, when one encode of them all joined
    succeeds. A text that is no str fails it too: read only below that."""
    try:
        "".join(texts).encode()
    except (TypeError, UnicodeEncodeError):
        return (text.encode(errors="replace").decode() == text for text in texts)
    return ()


class Fact(NamedTuple):
    """A fact of each node (or row) of some columns: ``flags(columns)``
    yields lazily, in node order, whether each node holds it, and may rely
    on the facts before it in its table; ``message(columns, i)`` words the
    error."""

    flags: Callable[[Any], Iterable[object]]
    message: Callable[[Any, int], str]


def first_occurrences(items: Iterable[Hashable]) -> Iterator[bool]:
    """Whether each item is unlike every earlier one: its own first index."""
    return map(eq, map({}.setdefault, items, count()), count())


def check_facts(facts: Sequence[Fact], columns: Any) -> None:
    """Raise ValidationError naming the lowest node a fact fails at, ties
    going to the earlier fact. Until one fails, each fact is one pass over
    its flags, one per node; then each is read only below the lowest
    failure so far."""
    lowest = failed = None
    for fact in facts:
        if failed is None and all(fact.flags(columns)):
            continue
        bad = next(compress(count(), map(not_, islice(fact.flags(columns), lowest))), None)
        if bad is not None:
            lowest, failed = bad, fact
    if failed is not None:
        raise ValidationError(failed.message(columns, lowest))
