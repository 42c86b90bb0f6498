"""Ontology loading, validation, and phrase-occurrence counting.

An ontology is an ordered list of weighted domain terms. Each term may
carry synonyms and a per-term relevance cutoff; its index in the list is
its bit position in page and query bit patterns, and an index file keeps
that position only as a check.

The :class:`Ontology` constructor is the one check of every term, weight
and synonym; the file readers check only their files' syntax, and
:func:`load_ontology` gives a term's fault (:class:`~.errors.TermError`)
the file and line that hold its value.

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

from .errors import ParseError, TermError, ValidationError, check_kind, json_fields

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
        try:
            self.name.encode()
        except UnicodeEncodeError:
            raise ValidationError(f"ontology.name must be valid UTF-8, got {self.name!r:.40}") from None
        if self.ontology_id < 1:
            raise ValidationError(f"ontology_id must be >= 1, got {self.ontology_id}")
        if not self.terms:
            raise ValidationError(f"ontology {self.name!r} has no terms")
        if not 0 <= self.relevance_limit < math.inf:
            raise ValidationError(
                f"relevance_limit must be in [0, inf), got {self.relevance_limit}"
            )
        # every name and weight before any synonym, so that a load names a
        # weight-table fault before a syntable one
        seen_terms: set[str] = set()
        for i, term in enumerate(self.terms):
            if not term.term or term.term != normalize_phrase(term.term):
                raise TermError(f"term {term.term!r} is not a normalized phrase", i)
            if term.term in seen_terms:
                raise TermError(f"duplicate term {term.term!r}", i)
            seen_terms.add(term.term)
            if not 0.0 <= term.weight <= 1.0:
                raise TermError(f"term {term.term!r} weight {term.weight} outside [0, 1]", i)
            if not 0 <= term.term_relevance_limit < math.inf:
                raise ValidationError(
                    f"term {term.term!r} term_relevance_limit must be in [0, inf)"
                )
        syn_owner: dict[str, str] = {}
        for i, term in enumerate(self.terms):
            for syn in term.synonyms:
                if not syn or syn != normalize_phrase(syn):
                    fault = f"synonym {syn!r} of {term.term!r} is not a normalized phrase"
                elif syn == term.term or syn_owner.get(syn) == term.term:
                    fault = f"synonym {syn!r} of {term.term!r} is not distinct"
                elif syn in syn_owner:
                    fault = f"synonym {syn!r} is shared by {syn_owner[syn]!r} and {term.term!r}"
                else:
                    syn_owner[syn] = term.term
                    continue
                raise TermError(fault, i, synonyms=True)

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


def _iter_rows(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped line), skipping blanks and '#' comments."""
    with open(path, encoding="utf-8") as fh:
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


def load_weight_table(path: str | Path) -> list[tuple[int, str, float]]:
    """Parse term/weight rows, in row order, as (line_no, normalized term,
    weight). Only each row's syntax is checked here; the :class:`Ontology`
    checks the terms and weights."""
    rows: list[tuple[int, str, float]] = []
    for line_no, row in _iter_rows(path):
        parts = row.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'term<TAB>weight', got {row!r}")
        try:
            weight = float(parts[1])
        except ValueError:
            weight = math.nan
        if weight != weight:  # a NaN is no number either
            raise ParseError(path, line_no, f"weight {parts[1].strip()!r} is not a number")
        rows.append((line_no, normalize_phrase(parts[0]), weight))
    return rows


def load_syntable(path: str | Path) -> dict[str, tuple[int, tuple[str, ...]]]:
    """Parse term/synonym rows, one row per term, as term -> (line_no,
    normalized synonyms), in row order. Only the rows' syntax is checked
    here; the :class:`Ontology` checks the synonyms."""
    table: dict[str, tuple[int, tuple[str, ...]]] = {}
    for line_no, row in _iter_rows(path):
        parts = row.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, f"expected 'term<TAB>syn1,syn2,...', got {row!r}")
        term = normalize_phrase(parts[0])
        if term in table:
            raise ValidationError(f"{path}:{line_no}: duplicate row for term {term!r}")
        table[term] = line_no, tuple(map(normalize_phrase, parts[1].split(",")))
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
    missing from the syntable get an empty synonym list. ``limits`` comes
    from :func:`load_limits` or is made directly. The readers check only
    each file's syntax. The :class:`Ontology` checks every term, weight and
    synonym, and its fault is raised as ``path:line: <its message>``: the
    weight table's row of the term, or for a synonym the term's syntable
    row. Last, a syntable term missing from the weight table is rejected.
    """
    weights = load_weight_table(weight_table_path)
    syntable = load_syntable(syntable_path)
    terms = tuple(
        OntologyTerm(term, weight, syntable.get(term, (None, ()))[1], limits.term_limit(term))
        for _, term, weight in weights
    )
    if name is None:
        name = Path(weight_table_path).stem
    try:
        ontology = Ontology(ontology_id, name, terms, limits.relevance_limit)
    except TermError as exc:
        if exc.synonyms:
            path, line_no = syntable_path, syntable[terms[exc.index].term][0]
        else:
            path, line_no = weight_table_path, weights[exc.index][0]
        raise ValidationError(f"{path}:{line_no}: {exc}") from None
    known = {term.term for term in terms}
    for term, (line_no, _) in syntable.items():
        if term not in known:
            raise ValidationError(
                f"{syntable_path}:{line_no}: term {term!r} is not in the weight table"
            )
    return ontology
