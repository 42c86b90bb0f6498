"""Bit patterns per (page, ontology), query masks, and the XOR page filter.

Patterns are fixed-length bit vectors with one bit per ontology term,
packed into a single machine integer so XOR and AND run over whole words.
Bit position 0 is the most significant bit, matching the left-to-right
string and hex renderings. Page patterns, query masks and their XOR are all
:class:`BitPattern`. A query mask comes from the ontology's phrase table,
through its presence scan (``ontology.PhraseTable.mask``), which sets the
bits of the terms the scan that scores pages (``PhraseTable.count``) would
count at least once.

The XOR test (:func:`mask_match`, :func:`find_predicted_webpage_list`) is
the paper's filter and the reference; queries test ``page & mask`` inline
(``search.first_matching_pages``), which decides the same for a nonzero
mask.

A page's pattern depends only on its term vector, and a build or a load
holds each distinct ``PageRelevance`` of an ontology once, as one row of
the index's score table. :func:`gen_ibag_bit_patterns`, the one maker of a
:class:`PatternStore`, therefore derives the bits once per row and maps
them to the pages through the table's ``of_node`` row indexes, one C-level
``map`` per ontology. It takes only the index's own ontologies, so each
column's width is its ontology's ``t`` and no pattern can exceed it.
:meth:`PatternStore.to_json_obj` renders each distinct pattern of an
ontology in hex once. :func:`gen_webpage_bit_pattern` is the per-page
reference.
"""
from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .ibag import IBAG, IBAGNode
from .ontology import Ontology, normalize_text


def _position_bit(length: int, position: int) -> int:
    if not 0 <= position < length:
        raise ValueError(f"bit position {position} outside [0, {length})")
    return 1 << (length - 1 - position)


def _to_hex(bits: int, length: int) -> str:
    return format(bits, f"0{(length + 3) // 4}x")


class BitPattern(NamedTuple):
    """Per-term bits for one ontology: a page's pattern, a query mask, or
    the XOR of the two. ``owner`` is the page's p_id, when there is one.

    A named tuple, not a frozen dataclass: every masked query builds one,
    and a frozen dataclass costs about three times as much to construct.
    """

    bits: int
    length: int
    ontology_id: int
    owner: int | None = None

    def bit(self, position: int) -> int:
        return 1 if self.bits & _position_bit(self.length, position) else 0

    def positions(self) -> tuple[int, ...]:
        msb = 1 << (self.length - 1)
        return tuple(p for p in range(self.length) if self.bits & (msb >> p))

    def position_bits(self) -> tuple[int, ...]:
        """Single-bit masks for every set position, ascending position."""
        msb = 1 << (self.length - 1)
        return tuple(msb >> p for p in self.positions())

    def to_string(self) -> str:
        return format(self.bits, f"0{self.length}b")


# builds a BitPattern from a (bits, length, ontology_id, owner) tuple in C,
# without the Python frame of the named tuple's generated ``__new__``: every
# masked query makes one
_new_pattern = partial(tuple.__new__, BitPattern)


def xor_patterns(page: BitPattern, mask: BitPattern) -> BitPattern:
    if page.length != mask.length:
        raise ValueError(f"pattern lengths differ: {page.length} vs {mask.length}")
    return BitPattern(bits=page.bits ^ mask.bits, length=page.length, ontology_id=page.ontology_id)


def mask_match(page_bits: int, mask_bits: int, position_bits: Sequence[int]) -> bool:
    """Inclusion test for one page against one mask.

    XOR the page bits with the mask, then look for a search-term position
    that reads zero; the first such position decides. For a nonzero mask
    this is equivalent to the page and mask sharing a set bit.
    """
    result = page_bits ^ mask_bits
    for pbit in position_bits:
        if not result & pbit:
            return True
    return False


def _page_bits(term_vector: Sequence[float], ontology: Ontology) -> int:
    """Set one bit per term whose relevance value strictly exceeds its limit."""
    limits = ontology.term_limits
    if len(term_vector) != len(limits):
        raise ValueError(f"{len(term_vector)} term values for a pattern of length {len(limits)}")
    bits = 0
    for value, limit in zip(term_vector, limits):
        bits <<= 1  # terms are in bit-position order, position 0 the most significant
        if value > limit:
            bits |= 1
    return bits


def gen_webpage_bit_pattern(
    term_vector: Sequence[float],
    ontology: Ontology,
    owner: int | None = None,
) -> BitPattern:
    """A page's pattern: one bit per term whose value strictly exceeds its limit."""
    bits = _page_bits(term_vector, ontology)
    return BitPattern(bits=bits, length=ontology.t, ontology_id=ontology.ontology_id, owner=owner)


def gen_mask_bit_pattern(
    search_string: str,
    ontology: Ontology,
    use_synonyms: bool = True,
) -> BitPattern:
    """Mark every ontology term that occurs in the search string.

    With ``use_synonyms`` (the default) a term also counts as present when
    one of its synonyms occurs. The search string is scanned once through
    the ontology's phrase table, which holds each phrase's bits.
    """
    bits = ontology.phrase_table.mask(normalize_text(search_string), use_synonyms)
    return _new_pattern((bits, ontology.t, ontology.ontology_id, None))


class PatternStore:
    """Precomputed bit patterns: per ontology id, one column indexed by p_id.

    Made whole by :func:`gen_ibag_bit_patterns`, once per index build or
    load; lookups during query filtering are list indexing, p_ids being dense.
    """

    def __init__(self, ontologies: tuple[Ontology, ...], bits: dict[int, list[int]]) -> None:
        self._ontologies = ontologies
        self._bits = bits

    def bits_for_ontology(self, ontology_id: int) -> list[int]:
        """The whole per-page bits column, indexed by p_id."""
        return self._bits[ontology_id]

    def __len__(self) -> int:
        return sum(len(bits) for bits in self._bits.values())

    def to_json_obj(self) -> dict:
        """Lengths and hex patterns per ontology; each distinct pattern of an
        ontology is rendered once and its string shared."""
        patterns = {}
        for ontology, column in zip(self._ontologies, self._bits.values()):
            hexes = {bits: _to_hex(bits, ontology.t) for bits in set(column)}
            patterns[str(ontology.ontology_id)] = list(map(hexes.__getitem__, column))
        return {
            "t_by_ontology": {str(ont.ontology_id): ont.t for ont in self._ontologies},
            "patterns": patterns,
        }


def gen_ibag_bit_patterns(ibag: IBAG, ontologies: Sequence[Ontology]) -> PatternStore:
    """One-time pattern generation: one pattern per (page, ontology) pair.

    ``ontologies`` must equal the index's own, ``ibag.ontologies``, in
    order, else ValidationError. The bits are derived once per row of the
    index's score table, each distinct score once, and mapped to the pages
    through ``of_node``.
    """
    own = ibag.ontologies
    if tuple(ontologies) != own:
        ids, own_ids = ([ont.ontology_id for ont in onts] for onts in (ontologies, own))
        raise ValidationError(f"pattern ontologies (ids {ids}) differ from the index's {own_ids}")
    tables = ibag.node_columns.scores.tables
    bits = {}
    for ontology in own:
        rows, of_node = tables[ontology.ontology_id]
        row_bits = [_page_bits(rel.term_vector, ontology) for rel in rows]
        bits[ontology.ontology_id] = list(map(row_bits.__getitem__, of_node))
    return PatternStore(own, bits)


def find_predicted_webpage_list(
    selected: Iterable[IBAGNode],
    patterns: PatternStore,
    mask: BitPattern,
    ontology: Ontology,
    result_limit: int,
) -> list[IBAGNode]:
    """Filter range-selected pages through the XOR mask test, in order.

    A page is included when some search-term position of its XORed pattern
    reads zero; the scan stops as soon as the result limit is reached. An
    all-zero mask therefore selects nothing. This is the paper's filter and
    the reference for ``search.first_matching_pages``, which queries use.
    """
    if result_limit < 1:
        raise ValueError(f"result_limit must be >= 1, got {result_limit}")
    if mask.ontology_id != ontology.ontology_id or mask.length != ontology.t:
        raise ValueError("mask does not belong to the given ontology")
    position_bits = mask.position_bits()
    if not position_bits:
        return []  # no search-term positions to test, nothing can match
    predicted: list[IBAGNode] = []
    page_bits = patterns.bits_for_ontology(ontology.ontology_id)
    mask_bits = mask.bits
    match = mask_match
    append = predicted.append
    remaining = result_limit
    for node in selected:
        if match(page_bits[node.p_id], mask_bits, position_bits):
            append(node)
            remaining -= 1
            if not remaining:
                break
    return predicted
