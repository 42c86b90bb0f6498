"""Ontology loading, validation, and phrase-occurrence counting.

An ontology is an ordered list of weighted domain terms. Each term may
carry synonyms and a per-term relevance cutoff; its index in the list is
its bit position in page and query bit patterns, and an index file keeps
that position only as a check.

:func:`normalize_text` lowercases a text and strips its tags, then splits
its UTF-8 bytes through a 256-byte table that turns every byte outside
``[0-9a-z]`` into a space.

Each ontology builds one phrase table (:class:`PhraseTable`) when it is
created. It maps the first word of every term name and synonym to the
phrase's words and to the bit positions of the terms the phrase stands for.
:meth:`PhraseTable.merge` derives one table for several ontologies from
their tables, each ontology's positions after those of the ones before it;
:meth:`PhraseTable.split` cuts the counts of a merged table into one list
per ontology, so no caller needs to know that layout.
:meth:`PhraseTable.count` is the one counting scan: through an ontology's
own table it serves ``relevance.page_relevance``, and through a merged
table it counts the terms of every ontology in one scan of a crawled page.
A query mask needs only which terms occur, not how often, so
:meth:`PhraseTable.mask` scans an ontology's own table for presence and
sets each phrase's pattern bits, which that table alone holds, with no
counts and no non-overlap bookkeeping.
``tests/oracles.py`` (``oracle_count``) writes the per-phrase counting
rule out independently: the reference the tests compare
:meth:`PhraseTable.count` with.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError, check_kind, json_fields

_TAG_RE = re.compile(r"<[^>]*>")
# maps every byte outside [0-9a-z] to a space. Every byte of a non-ASCII
# character's UTF-8 form is 0x80 or above, so splitting the mapped bytes on
# spaces gives exactly the runs of [a-z0-9] in the text
_TOKEN_BYTES = bytes(b if 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256))


def normalize_text(raw: str) -> list[str]:
    """Tokenize free text: strip markup tags, lowercase, split on punctuation.

    The tokens are the runs of ``[a-z0-9]`` in the lowercased, tag-stripped
    text, split out through a byte table, in C. ``surrogatepass`` lets a
    lone surrogate through as bytes that the table turns into spaces.
    """
    text = raw.lower()
    if "<" in text:  # most text has no markup; skip the tag pass for it
        text = _TAG_RE.sub(" ", text)
    return text.encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).decode().split()


def normalize_phrase(raw: str) -> str:
    """Canonical phrase form: lowercase words joined by single spaces."""
    return " ".join(normalize_text(raw))


class PhraseTable:
    """Every phrase of one or more ontologies, keyed by its first word.

    An entry is ``(phrase, words, size, positions)``: the phrase, its words,
    their count and the positions of the terms the phrase names or is a
    synonym of; a phrase may be one term's name and another term's synonym.
    A table merged from several ontologies (:meth:`merge`) numbers the
    positions of each ontology after those of the ones before it, and holds
    one entry for a phrase that several of them share. ``spans`` holds the
    (start, end) positions of each ontology the table covers, in order.
    """

    __slots__ = ("entries", "presence", "spans", "width")

    def __init__(
        self,
        rows: Iterable[tuple[str, Sequence[int]]],
        spans: Sequence[tuple[int, int]],
    ):
        """``rows`` are (phrase, positions); a phrase may repeat.
        ``spans`` are the (start, end) positions of each ontology covered."""
        owners: dict[str, list[int]] = {}
        for phrase, positions in rows:
            owners.setdefault(phrase, []).extend(positions)
        entries: dict[str, list] = {}
        for phrase, positions in owners.items():
            words = phrase.split(" ")
            entries.setdefault(words[0], []).append((phrase, words, len(words), tuple(positions)))
        self.entries = {first: tuple(e) for first, e in entries.items()}
        self.spans = tuple(spans)
        self.width = self.spans[-1][1]

    @classmethod
    def of_terms(cls, terms: Sequence["OntologyTerm"]) -> "PhraseTable":
        """An ontology's own table; only such a table answers :meth:`mask`."""
        table = cls(
            ((phrase, (i,)) for i, term in enumerate(terms) for phrase in term.phrases()),
            [(0, len(terms))],
        )
        # per first word, each phrase's words and the pattern bits of the
        # terms it stands for, with and without synonyms
        top = table.width - 1
        name_bits = {term.term: 1 << top - i for i, term in enumerate(terms)}
        table.presence = {
            first: tuple(
                (words, size, sum({1 << top - p for p in positions}), name_bits.get(phrase, 0))
                for phrase, words, size, positions in e
            )
            for first, e in table.entries.items()
        }
        return table

    @classmethod
    def merge(cls, tables: Sequence["PhraseTable"]) -> "PhraseTable":
        """One table for the ontologies of ``tables``, in that order."""
        offsets = list(accumulate((table.width for table in tables), initial=0))
        return cls(
            (
                (phrase, [p + offset for p in positions])
                for table, offset in zip(tables, offsets)
                for entries in table.entries.values()
                for phrase, _, _, positions in entries
            ),
            list(zip(offsets, offsets[1:])),
        )

    def split(self, counts: list[int]) -> list[list[int]]:
        """The counts :meth:`count` gave, one list per ontology covered."""
        return [counts[start:end] for start, end in self.spans]

    def count(self, tokens: list[str]) -> list[int]:
        """Occurrences of each term in ``tokens``, indexed by position.

        One scan of the tokens serves every phrase. Each phrase matches
        greedily left to right and never overlaps itself: after a match the
        phrase's scan resumes past the matched words, so ``wicket wicket
        keeper`` holds ``wicket keeper`` once. Different phrases may overlap.
        A match counts for the term the phrase names and for the term it is
        a synonym of. ``tokens`` must be a list: a slice of any other
        sequence never equals a phrase's words.
        """
        counts = [0] * self.width
        entries = self.entries
        next_at: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok not in entries:
                continue
            for phrase, words, size, positions in entries[tok]:
                if size > 1:  # a one-word phrase cannot overlap itself
                    end = i + size
                    if next_at.get(phrase, 0) > i or tokens[i:end] != words:
                        continue
                    next_at[phrase] = end
                for position in positions:
                    counts[position] += 1
        return counts

    def mask(self, tokens: list[str], use_synonyms: bool = True) -> int:
        """One bit per position whose term occurs in ``tokens``, position 0
        the most significant: the bits of the positions :meth:`count` gives
        a nonzero count. Without ``use_synonyms`` a term occurs only where
        its own name does. A phrase occurs where its words first match, so
        presence needs neither counts nor the non-overlap rule. Query masks
        are its only use, so only :meth:`of_terms` builds the bits it reads;
        a merged table has none."""
        bits = 0
        presence = self.presence
        for i, tok in enumerate(tokens):
            if tok in presence:
                for words, size, synonym_bits, name_bits in presence[tok]:
                    if size == 1 or tokens[i : i + size] == words:
                        bits |= synonym_bits if use_synonyms else name_bits
        return bits


@dataclass(frozen=True)
class OntologyTerm:
    """One weighted domain term with its synonyms and per-term cutoff."""

    term: str
    weight: float
    synonyms: tuple[str, ...] = ()
    term_relevance_limit: float = 0.0

    def phrases(self) -> tuple[str, ...]:
        """The term itself followed by its synonyms."""
        return (self.term, *self.synonyms)


@dataclass(frozen=True)
class Ontology:
    """An ordered set of weighted domain terms plus the page-level cutoff.

    ``t``, the number of terms and so the bit-pattern length,
    ``phrase_table`` (:class:`PhraseTable`), ``weights`` and
    ``term_limits``, each term's weight and cutoff in bit-position order,
    are derived from ``terms`` on creation; they are not fields. The
    scoring weights are floats, an int weight converted, so every score
    and mean is a float sum; the terms and the JSON keep each weight as
    given.
    """

    ontology_id: int
    name: str
    terms: tuple[OntologyTerm, ...]
    relevance_limit: float

    def __post_init__(self) -> None:
        self.validate()
        object.__setattr__(self, "t", len(self.terms))
        object.__setattr__(self, "phrase_table", PhraseTable.of_terms(self.terms))
        object.__setattr__(self, "weights", tuple(float(term.weight) for term in self.terms))
        object.__setattr__(
            self, "term_limits", tuple(term.term_relevance_limit for term in self.terms)
        )

    def validate(self) -> None:
        """Reject what no index file can hold, and containers other than
        tuples, so an ontology is hashable and equal to its reload. Every
        kind is checked before any value, under the names a load reports."""
        check_kind(self.ontology_id, int, "ontology.ontology_id")
        check_kind(self.name, str, "ontology.name")
        check_kind(self.relevance_limit, float, "ontology.relevance_limit")
        check_kind(self.terms, tuple, "ontology.terms")
        for term in self.terms:
            if not isinstance(term, OntologyTerm):
                raise ValidationError(f"ontology term must be an OntologyTerm, got {term!r:.40}")
            check_kind(term.term, str, "ontology term.term")
            check_kind(term.weight, float, "ontology term.weight")
            check_kind(term.term_relevance_limit, float, "ontology term.term_relevance_limit")
            check_kind(term.synonyms, tuple, "ontology term.synonyms")
            for syn in term.synonyms:
                check_kind(syn, str, "ontology synonym")
        if self.ontology_id < 1:
            raise ValidationError(f"ontology_id must be >= 1, got {self.ontology_id}")
        if not self.terms:
            raise ValidationError(f"ontology {self.name!r} has no terms")
        if not 0 <= self.relevance_limit < math.inf:
            raise ValidationError(
                f"relevance_limit must be in [0, inf), got {self.relevance_limit}"
            )
        seen_terms: set[str] = set()
        syn_owner: dict[str, str] = {}
        for term in self.terms:
            if not term.term or term.term != normalize_phrase(term.term):
                raise ValidationError(f"term {term.term!r} is not a normalized phrase")
            if term.term in seen_terms:
                raise ValidationError(f"duplicate term {term.term!r}")
            seen_terms.add(term.term)
            if not 0.0 <= term.weight <= 1.0:
                raise ValidationError(
                    f"term {term.term!r} weight {term.weight} outside [0, 1]"
                )
            if not 0 <= term.term_relevance_limit < math.inf:
                raise ValidationError(
                    f"term {term.term!r} term_relevance_limit must be in [0, inf)"
                )
            local: set[str] = {term.term}
            for syn in term.synonyms:
                if not syn or syn != normalize_phrase(syn):
                    raise ValidationError(
                        f"synonym {syn!r} of {term.term!r} is not a normalized phrase"
                    )
                if syn in local:
                    raise ValidationError(
                        f"synonym {syn!r} of {term.term!r} is not distinct"
                    )
                local.add(syn)
                if syn in syn_owner:
                    raise ValidationError(
                        f"synonym {syn!r} is shared by {syn_owner[syn]!r} and {term.term!r}"
                    )
                syn_owner[syn] = term.term

    def to_json_obj(self) -> dict:
        return {
            "ontology_id": self.ontology_id,
            "name": self.name,
            "relevance_limit": self.relevance_limit,
            "terms": [
                {
                    "term": t.term,
                    "weight": t.weight,
                    "synonyms": list(t.synonyms),
                    "term_relevance_limit": t.term_relevance_limit,
                    "bit_position": i,
                }
                for i, t in enumerate(self.terms)
            ],
        }

    @staticmethod
    def from_json_obj(obj: object) -> "Ontology":
        """Read an index file's ontology object. Only keys and containers are
        checked here, and each term's stored ``bit_position`` against its
        index; the constructor checks every value."""
        raw_terms, ontology_id, name, relevance_limit = json_fields(
            obj, "ontology", terms=list, ontology_id=object, name=object, relevance_limit=object
        )
        terms = []
        for i, raw in enumerate(raw_terms):
            term, weight, synonyms, term_limit, bit_position = json_fields(
                raw, "ontology term", term=object, weight=object, synonyms=list,
                term_relevance_limit=object, bit_position=int,
            )
            if bit_position != i:
                raise ValidationError(
                    f"term {term!r} has bit_position {bit_position}, expected {i}"
                )
            terms.append(OntologyTerm(term, weight, tuple(synonyms), term_limit))
        return Ontology(ontology_id, name, tuple(terms), relevance_limit)


@dataclass(frozen=True)
class LimitsConfig:
    """Relevance cutoffs: one page-level value plus per-term overrides."""

    relevance_limit: float = 0.0
    default_term_limit: float = 0.0
    term_limits: dict[str, float] = field(default_factory=dict)

    def term_limit(self, term: str) -> float:
        return self.term_limits.get(term, self.default_term_limit)


def _iter_rows(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped line), skipping blanks and '#' comments."""
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n").rstrip("\r")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            yield line_no, stripped


def load_limits(path: str | Path) -> LimitsConfig:
    """Parse a key=value limits file.

    Recognized keys: ``relevance_limit``, ``term_relevance_limit.default``
    and ``term_relevance_limit.<term>``. Unknown term overrides are kept;
    they only apply to ontologies that actually contain the term. Each
    key may be set once; two overrides whose terms normalize alike are one
    key.
    """
    path = Path(path)
    limits: dict[str, float] = {}
    term_limits: dict[str, float] = {}
    for line_no, row in _iter_rows(path):
        if "=" not in row:
            raise ParseError(path, line_no, f"expected key=value, got {row!r}")
        key, _, raw_value = row.partition("=")
        key = key.strip()
        try:
            value = float(raw_value.strip())
        except ValueError:
            raise ParseError(path, line_no, f"value {raw_value.strip()!r} is not a number") from None
        if not 0 <= value < math.inf:
            raise ValidationError(f"{path}:{line_no}: limit {value} must be in [0, inf)")
        if key in ("relevance_limit", "term_relevance_limit.default"):
            table, name = limits, key
        elif key.startswith("term_relevance_limit."):
            table, name = term_limits, normalize_phrase(key[len("term_relevance_limit.") :])
            if not name:
                raise ParseError(path, line_no, "empty term in term_relevance_limit override")
        else:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        if name in table:
            raise ValidationError(f"{path}:{line_no}: duplicate limit for {name!r}")
        table[name] = value
    return LimitsConfig(
        limits.get("relevance_limit", 0.0),
        limits.get("term_relevance_limit.default", 0.0),
        term_limits,
    )


def load_weight_table(path: str | Path) -> list[tuple[str, float]]:
    """Parse term/weight rows, preserving row order."""
    path = Path(path)
    rows: list[tuple[str, float]] = []
    seen: set[str] = set()
    for line_no, row in _iter_rows(path):
        parts = row.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'term<TAB>weight', got {row!r}")
        term = normalize_phrase(parts[0])
        if not term:
            raise ParseError(path, line_no, "empty term")
        try:
            weight = float(parts[1].strip())
        except ValueError:
            raise ParseError(path, line_no, f"weight {parts[1].strip()!r} is not a number") from None
        if not 0.0 <= weight <= 1.0:
            raise ValidationError(f"{path}:{line_no}: weight {weight} outside [0, 1]")
        if term in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate term {term!r}")
        seen.add(term)
        rows.append((term, weight))
    return rows


def load_syntable(path: str | Path, known_terms: set[str]) -> dict[str, tuple[str, ...]]:
    """Parse term/synonym rows; every row's term must be a known term."""
    path = Path(path)
    table: dict[str, tuple[str, ...]] = {}
    owner: dict[str, str] = {}
    for line_no, row in _iter_rows(path):
        parts = row.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'term<TAB>syn1,syn2,...', got {row!r}")
        term = normalize_phrase(parts[0])
        if term not in known_terms:
            raise ValidationError(
                f"{path}:{line_no}: term {term!r} is not in the weight table"
            )
        if term in table:
            raise ValidationError(f"{path}:{line_no}: duplicate row for term {term!r}")
        synonyms: list[str] = []
        for raw_syn in parts[1].split(","):
            syn = normalize_phrase(raw_syn)
            if not syn:
                raise ParseError(path, line_no, f"empty synonym in {parts[1]!r}")
            if syn == term or syn in synonyms:
                raise ValidationError(
                    f"{path}:{line_no}: synonym {syn!r} of {term!r} is not distinct"
                )
            if syn in owner:
                raise ValidationError(
                    f"{path}:{line_no}: synonym {syn!r} already belongs to {owner[syn]!r}"
                )
            owner[syn] = term
            synonyms.append(syn)
        table[term] = tuple(synonyms)
    return table


def load_ontology(
    weight_table_path: str | Path,
    syntable_path: str | Path,
    limits: LimitsConfig,
    *,
    ontology_id: int = 1,
    name: str | None = None,
) -> Ontology:
    """Assemble an ontology from its weight table, syntable and limits.

    A term's bit position is its index among the weight table's rows. Terms
    missing from the syntable get an empty synonym list; syntable terms
    missing from the weight table are rejected. ``limits`` comes from
    :func:`load_limits` or is made directly.
    """
    weights = load_weight_table(weight_table_path)
    syntable = load_syntable(syntable_path, {term for term, _ in weights})
    terms = tuple(
        OntologyTerm(
            term=term,
            weight=weight,
            synonyms=syntable.get(term, ()),
            term_relevance_limit=limits.term_limit(term),
        )
        for term, weight in weights
    )
    if name is None:
        name = Path(weight_table_path).stem
    return Ontology(
        ontology_id=ontology_id,
        name=name,
        terms=terms,
        relevance_limit=limits.relevance_limit,
    )
