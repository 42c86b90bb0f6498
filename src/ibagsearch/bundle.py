"""Single-file JSON persistence for a built index.

The file holds only the inputs under one version tag: the ontologies and,
per relevance-graph node, its url, parents and term vectors. The file also
keeps the bit patterns, as a checksum. Serialization is canonical (sorted
keys, fixed separators), so saving a loaded bundle reproduces the file byte
for byte.

A build, the serialization inside a save and a load each run with the
cyclic garbage collector paused (``collector.collector_paused``): they make
many objects and no reference cycles.

A load parses the file, then rebuilds every derived structure through the
code a build runs, one pass over the nodes per step, and checks each fact
of a node once:

- ``RPaG.from_json_obj`` checks the node's shape, its parents and ontology
  keys (``rpag.check_node``) and each term vector's entries, and scores
  each distinct vector of an ontology once through
  ``relevance_from_vector``; the nodes with that vector share the score
  (only vectors written as floats other than -0.0 are shared, so the file
  saves back byte for byte);
- ``build_ibag`` gives each index node its graph node's scores, the same
  dict and not a copy, and averages the supported ones into the node's
  mean; ``IBAG.from_nodes`` checks every other node fact (urls, levels,
  support, vector lengths, a positive finite mean) as it lays the index
  out, and leaves the paper's chains to be threaded on first read;
- ``gen_ibag_bit_patterns`` derives the patterns once per shared score, and
  they must equal the stored ones; each distinct pattern is rendered in
  hex once for that comparison.

A load never calls ``gc.freeze()``: a freeze holds for the whole process.
The ``query`` and ``eval`` commands, which own their process, freeze the
index they load (``cli._load_for_process``).
"""
from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .bitmask import PatternStore, gen_ibag_bit_patterns
from .collector import collector_paused
from .corpus import Corpus
from .errors import ValidationError, json_field
from .ibag import IBAG, build_ibag
from .ontology import Ontology
from .rpag import RPaG, build_rpag

log = logging.getLogger(__name__)

FORMAT_VERSION = "2"


@dataclass
class IndexBundle:
    ontologies: tuple[Ontology, ...]
    rpag: RPaG
    ibag: IBAG
    patterns: PatternStore

    @classmethod
    def build(cls, corpus: Corpus, ontologies: Sequence[Ontology]) -> "IndexBundle":
        """Crawl, lay out and derive the patterns, with the collector paused."""
        with collector_paused():
            rpag = build_rpag(corpus, ontologies)
            ibag = build_ibag(rpag)
            patterns = gen_ibag_bit_patterns(ibag, rpag.ontologies)
        return cls(ontologies=rpag.ontologies, rpag=rpag, ibag=ibag, patterns=patterns)

    def validate(self) -> None:
        """Derive the sections from the graph again and compare: raise
        ValidationError when they disagree on the ontologies, or the graph,
        the leveled index or the patterns differ from what the graph gives.
        Build and load do not call this, since they derive every section
        from one graph."""
        if self.rpag.ontologies != self.ontologies or self.ibag.ontologies != self.ontologies:
            raise ValidationError("bundle sections disagree on the ontologies")
        self.rpag.validate()
        if build_ibag(self.rpag).nodes != self.ibag.nodes:
            raise ValidationError("index nodes differ from those the graph gives")
        self.ibag.validate()
        fresh = gen_ibag_bit_patterns(self.ibag, self.ontologies)
        if fresh.to_json_obj() != self.patterns.to_json_obj():
            raise ValidationError("bit patterns differ from those the term vectors give")

    def to_json_obj(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "ontologies": [ont.to_json_obj() for ont in self.ontologies],
            "rpag": self.rpag.to_json_obj(),
            "patterns": self.patterns.to_json_obj(),
        }

    @staticmethod
    def from_json_obj(obj: object) -> "IndexBundle":
        if not isinstance(obj, dict):
            raise ValidationError("index file must hold a JSON object")
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported bundle format version {obj.get('format_version')!r}"
            )
        ontologies = tuple(
            Ontology.from_json_obj(raw) for raw in json_field(obj, "ontologies", list, "index")
        )
        rpag = RPaG.from_json_obj(json_field(obj, "rpag", dict, "index"), ontologies)
        ibag = build_ibag(rpag)
        patterns = gen_ibag_bit_patterns(ibag, ontologies)
        if json_field(obj, "patterns", dict, "index") != patterns.to_json_obj():
            raise ValidationError("stored bit patterns differ from those the term vectors give")
        return IndexBundle(ontologies=ontologies, rpag=rpag, ibag=ibag, patterns=patterns)

    def canonical_bytes(self) -> bytes:
        text = json.dumps(
            self.to_json_obj(), sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )
        return (text + "\n").encode("utf-8")

    def save(self, path: str | Path) -> None:
        """Serialize with the collector paused, then write through a temp
        file in the same directory and rename it over ``path``, so a failed
        write leaves any previous index intact."""
        path = Path(path)
        with collector_paused():
            data = self.canonical_bytes()
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)  # already gone after a successful rename
        log.debug("saved index bundle to %s", path)

    @staticmethod
    def load(path: str | Path) -> "IndexBundle":
        """Parse and decode ``path`` with the cyclic garbage collector paused."""
        raw = Path(path).read_bytes()
        with collector_paused():
            try:
                obj = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
                raise ValidationError(f"{path}: not a valid index file: {exc}") from None
            bundle = IndexBundle.from_json_obj(obj)
            # free the parsed file before the collector resumes, or its first
            # pass, which any allocation may start, scans every object of it
            del obj
        return bundle
