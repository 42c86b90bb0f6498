"""Single-file JSON persistence for a built index.

The file holds only the inputs under one version tag: the ontologies and
the relevance graph in columns (each node's url and parents, and per
ontology each distinct term-count vector once, with each node's row
index). The file also keeps the bit patterns, as a checksum.
Serialization is canonical (sorted keys, fixed separators). A load reads
every member, so a save of a loaded bundle differs from the file only in
formatting that was not canonical.

A top-level ``digest`` holds the SHA-256 of the canonical bytes of the
file without that member; with sorted keys it comes first. A save dumps
each section once, one section at a time, hashes the pieces and joins the
digest member in front of them (``canonical_bytes``). It dumps the graph
from its own columns, not copies, and each long column a slice at a time
(``_dump``), so it holds little more than the bytes it makes. A load
hashes the raw bytes after it and never re-serializes; ``from_json_obj``
has no raw bytes, so it re-serializes what it decoded. The digest guards
against corruption and hand edits. It is not authentication: anyone who
can write the file can write a matching digest.

A build, the serialization inside a save and a load each run with the
cyclic garbage collector paused (``collector.collector_paused``): they make
many objects and no reference cycles.

A load parses the file and rebuilds every derived structure through the
code a build runs, in columns, the only state of the graph and the index
(``rpag.nodes`` and ``ibag.nodes`` are read-only values made from them on
first read). Each fact is checked once, by one pass over a column per
fact of a table (``rpag.ROW_FACTS``, ``rpag.GRAPH_FACTS``,
``ibag.LAYOUT_FACTS``), read again only to name the first row or page at
fault when one fails:

- the version tag, then each object's keys and kinds in one
  ``errors.json_fields`` call (a repeated key fails the parse), then the
  facts of each section below, so a bad file is named by the check it
  fails; the digest last;
- ``RPaG.from_json_obj`` checks each row of counts and scores it once
  through ``relevance_from_counts``, as a crawl does, for the pages that
  use it to share; then the row indexes and the pages' urls, parents and
  support. The decoded columns become the graph's;
- ``build_ibag`` shares the graph's urls and score tables with the index,
  derives each page's parent, level and mean, reading each row once, and
  the ``IBAG`` constructor, its layout step, checks that each mean is
  finite and lays the index out, leaving the chains for their first read;
- ``gen_ibag_bit_patterns`` derives the bits once per row of scores, and
  they must equal the stored ones, each stored length an int; each
  distinct pattern is rendered in hex once for that comparison.

At debug level a load logs one ``key=value`` event with the time of each
of these steps (:meth:`IndexBundle.load`).

A load never calls ``gc.freeze()``: a freeze holds for the whole process.
The ``query`` and ``eval`` commands, which own their process, freeze the
index they load (``cli._load_for_process``).
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import Counter
from dataclasses import dataclass
from operator import sub
from pathlib import Path
from time import perf_counter
from typing import Sequence

from .bitmask import PatternStore, gen_ibag_bit_patterns
from .collector import collector_paused
from .corpus import Corpus
from .errors import ValidationError, check_kind, json_fields
from .ibag import IBAG, build_ibag
from .ontology import Ontology
from .rpag import RPaG, build_rpag

log = logging.getLogger(__name__)

FORMAT_VERSION = "3"
# a saved file begins with its digest member: '{"digest":"<64 hex>",'
_DIGEST_OPEN = b'{"digest":"'
_BODY_START = len(_DIGEST_OPEN) + 64 + len(b'",')


# a save dumps an array longer than this one slice at a time (``_dump``)
_SLICE = 2048


def _text(obj: object) -> bytes:
    """``obj`` in canonical JSON: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode()


def _dump(obj: object, pieces: list[bytes]) -> None:
    """Append the bytes of ``obj``, whose object keys are strings, in
    canonical JSON to ``pieces``. An object is dumped a member at a time and
    an array longer than ``_SLICE`` a slice at a time: the encoder holds a
    string per item until it joins them, so it never holds one per item of
    a column. The bytes equal those of one :func:`_text` of ``obj``."""
    if isinstance(obj, dict) and obj:
        opening = b"{"
        for key in sorted(obj):
            pieces += (opening, _text(key), b":")
            _dump(obj[key], pieces)
            opening = b","
        pieces.append(b"}")
    elif isinstance(obj, (list, tuple)) and len(obj) > _SLICE:
        opening = b"["
        for start in range(0, len(obj), _SLICE):
            pieces += (opening, _text(obj[start : start + _SLICE])[1:-1])
            opening = b","
        pieces.append(b"]")
    else:
        pieces.append(_text(obj))


def _digest(pieces: list[bytes]) -> str:
    """The SHA-256 of the file without its digest member, from the pieces
    :meth:`IndexBundle._pieces` gives."""
    digest = hashlib.sha256(b"{")
    for piece in pieces:
        digest.update(piece)
    return digest.hexdigest()


def write_atomically(*files: tuple[Path, bytes]) -> None:
    """Write each (path, data) through a temp file in the path's directory,
    then rename every temp file over its path, so a failed write leaves
    every previous file intact and the files come from one call."""
    tmps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for tmp, (_, data) in zip(tmps, files):
            tmp.write_bytes(data)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)  # already gone after a successful rename


def _object(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads``'s object hook: a key given twice is rejected, where
    the parser would keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return obj


@dataclass
class IndexBundle:
    rpag: RPaG
    ibag: IBAG
    patterns: PatternStore

    @property
    def ontologies(self) -> tuple[Ontology, ...]:
        """The graph's ontologies, their one home."""
        return self.rpag.ontologies

    @classmethod
    def build(cls, corpus: Corpus, ontologies: Sequence[Ontology]) -> "IndexBundle":
        """Crawl, lay out and derive the patterns, with the collector paused."""
        with collector_paused():
            rpag = build_rpag(corpus, ontologies)
            ibag = build_ibag(rpag)
            patterns = gen_ibag_bit_patterns(ibag, rpag.ontologies)
        return cls(rpag, ibag, patterns)

    def validate(self) -> None:
        """Derive the sections from the graph again and compare: raise
        ValidationError when the index and the graph disagree on the
        ontologies, or the graph, the leveled index or the patterns differ
        from what the graph, laid out once, gives. Build and load do not
        call this, since they derive every section from one graph."""
        if self.ibag.ontologies != self.ontologies:
            raise ValidationError("bundle sections disagree on the ontologies")
        if self.rpag.validate().nodes != self.ibag.nodes:
            raise ValidationError("index nodes differ from those the graph gives")
        self.ibag.validate()
        fresh = gen_ibag_bit_patterns(self.ibag, self.ontologies)
        if fresh.to_json_obj() != self.patterns.to_json_obj():
            raise ValidationError("bit patterns differ from those the term vectors give")

    def _pieces(self) -> list[bytes]:
        """The canonical bytes of the file after its opening brace, without
        the digest member, in pieces. The sections are made and dumped one
        at a time, in key order, so only one section's object is alive at
        once; the graph's holds its columns, not copies."""
        pieces: list[bytes] = []
        for key, make in (
            ("format_version", lambda: FORMAT_VERSION),
            ("ontologies", lambda: [ont.to_json_obj() for ont in self.ontologies]),
            ("patterns", self.patterns.to_json_obj),
            ("rpag", self.rpag.json_columns),
        ):
            pieces += (b'"', key.encode(), b'":')
            _dump(make(), pieces)
            pieces.append(b",")
        pieces[-1] = b"}\n"
        return pieces

    @staticmethod
    def from_json_obj(obj: object) -> "IndexBundle":
        """Decode a parsed index file and check its digest.

        Having no raw bytes to hash, this re-serializes the decoded bundle
        to check the digest, which takes about as long as a save;
        :meth:`load` hashes the file's bytes instead."""
        bundle = IndexBundle._decode(obj, [])
        if obj["digest"] != _digest(bundle._pieces()):
            raise ValidationError("index digest does not match its contents")
        return bundle

    @staticmethod
    def _decode(obj: object, stamps: list[float]) -> "IndexBundle":
        """Check the version and every section and derive the bundle; the
        caller checks the digest. Appends a ``perf_counter()`` reading to
        ``stamps`` after each of the graph decode, the layout and the
        patterns."""
        if not isinstance(obj, dict):
            raise ValidationError("index file must hold a JSON object")
        version = obj.get("format_version")
        if version != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported index format version {version!r:.40} (this program reads "
                f"version {FORMAT_VERSION!r}); rebuild the index with `ibag-search build`"
            )
        _, raw_ontologies, graph, stored, _ = json_fields(
            obj, "index", format_version=str, ontologies=list, rpag=dict, patterns=dict, digest=str
        )
        ontologies = tuple(map(Ontology.from_json_obj, raw_ontologies))
        rpag = RPaG.from_json_obj(graph, ontologies)
        stamps.append(perf_counter())
        ibag = build_ibag(rpag)
        stamps.append(perf_counter())
        patterns = gen_ibag_bit_patterns(ibag, ontologies)
        lengths, _ = json_fields(stored, "index.patterns", t_by_ontology=dict, patterns=dict)
        for key, length in lengths.items():
            check_kind(length, int, f"index.patterns.t_by_ontology.{key}")
        if stored != patterns.to_json_obj():
            raise ValidationError("stored bit patterns differ from those the term vectors give")
        stamps.append(perf_counter())
        return IndexBundle(rpag, ibag, patterns)

    def canonical_bytes(self) -> bytes:
        """The file's bytes in canonical form, from one dump of each
        section: their digest is joined in as the first member."""
        pieces = self._pieces()
        return b"".join([_DIGEST_OPEN, _digest(pieces).encode(), b'",', *pieces])

    def save(self, path: str | Path) -> None:
        """Serialize with the collector paused, then :func:`write_atomically`."""
        path = Path(path)
        with collector_paused():
            data = self.canonical_bytes()
        write_atomically((path, data))
        log.debug("saved index bundle to %s", path)

    @staticmethod
    def load(path: str | Path) -> "IndexBundle":
        """Parse and decode ``path`` with the cyclic garbage collector
        paused, then check the digest against the file's bytes. Every fault
        is raised as one ValidationError whose message starts ``<path>: ``.

        At debug level it logs one key=value event: the milliseconds of the
        parse, the graph decode, the layout and the patterns (derived and
        compared with the stored ones), the node count and each ontology's
        rows of distinct scores."""
        raw = Path(path).read_bytes()
        try:
            with collector_paused():
                stamps = [perf_counter()]
                try:  # bad UTF-8, bad JSON, a repeated key or deep nesting is rejected
                    obj = json.loads(raw.decode("utf-8"), object_pairs_hook=_object)
                except (ValueError, RecursionError) as exc:
                    raise ValidationError(f"not a valid index file: {exc}") from None
                stamps.append(perf_counter())
                bundle = IndexBundle._decode(obj, stamps)
                # free the parsed file before the collector resumes, or its first
                # pass, which any allocation may start, scans every object of it
                del obj
            content = hashlib.sha256(b"{")
            content.update(memoryview(raw)[_BODY_START:])
            if raw[:_BODY_START] != _DIGEST_OPEN + content.hexdigest().encode() + b'",':
                raise ValidationError("index digest does not match its contents")
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if log.isEnabledFor(logging.DEBUG):
            parse, graph, layout, patterns = map(sub, stamps[1:], stamps)
            tables = bundle.ibag.node_columns.scores.tables
            log.debug(
                "event=load parse_ms=%.3f graph_ms=%.3f layout_ms=%.3f patterns_ms=%.3f "
                "nodes=%d rows=%s",
                parse * 1e3,
                graph * 1e3,
                layout * 1e3,
                patterns * 1e3,
                len(bundle.ibag),
                ",".join(f"{ont_id}:{len(table.rows)}" for ont_id, table in tables.items()),
            )
        return bundle
