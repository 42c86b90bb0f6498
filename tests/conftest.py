from __future__ import annotations

import hashlib
import json
import sys

import pytest

from ibagsearch import (
    Corpus,
    CorpusDoc,
    LimitsConfig,
    Ontology,
    OntologyTerm,
    RPaG,
    load_limits,
    load_ontology,
)
from ibagsearch.bundled import default_ontologies


def make_corpus(records: list[tuple[str, list[str], str]], seeds: list[str] | None = None) -> Corpus:
    docs = {url: CorpusDoc(out_links=tuple(links), text=text) for url, links, text in records}
    if seeds is None:
        seeds = [records[0][0]]
    return Corpus(docs=docs, seeds=tuple(seeds))


def sealed(index_obj: dict) -> bytes:
    """``index_obj`` in the canonical form a save writes, under a fresh
    digest: the SHA-256 of the canonical bytes without the digest member."""

    def canonical(obj: dict) -> bytes:
        text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        return (text + "\n").encode("utf-8")

    content = {key: value for key, value in index_obj.items() if key != "digest"}
    return canonical({"digest": hashlib.sha256(canonical(content)).hexdigest(), **content})


def node_counts(index_obj: dict, key: str) -> list[list[int]]:
    """Each node's term counts for ontology ``key`` of a saved index."""
    table = index_obj["rpag"]["counts"][key]
    return [list(table["rows"][i]) for i in table["of_node"]]


def set_node_counts(index_obj: dict, key: str, counts: list[list[int]]) -> None:
    """Store each node's term counts for ontology ``key`` as a save would:
    each distinct vector one row, rows in order of first use."""
    rows: dict[tuple[int, ...], int] = {}
    of_node = [rows.setdefault(tuple(c), len(rows)) for c in counts]
    index_obj["rpag"]["counts"][key] = {"of_node": of_node, "rows": [list(r) for r in rows]}


def graph_from_counts(
    per_node: list[dict[int, list[int]]],
    ontologies,
    pp_ids: list[list[int]] | None = None,
    urls: list[str] | None = None,
) -> RPaG:
    """A graph made by hand: node i counts ``per_node[i][id]`` of the terms
    of ontology ``id`` (none of an ontology it leaves out); its url is
    ``u<i>`` and it has no parents unless given. It is the ``rpag`` object
    of an index file, so it is checked and scored as a load checks and
    scores one."""
    obj = {
        "urls": urls if urls is not None else [f"u{i}" for i in range(len(per_node))],
        "pp_ids": pp_ids if pp_ids is not None else [[] for _ in per_node],
        "counts": {},
    }
    for ont in ontologies:
        counts = [node.get(ont.ontology_id, [0] * ont.t) for node in per_node]
        set_node_counts({"rpag": obj}, str(ont.ontology_id), counts)
    return RPaG.from_json_obj(obj, ontologies)


LARGEST_FLOAT_AS_INT = int(sys.float_info.max)


def _weighted_row(index_obj: dict) -> tuple[list[float], list[int]]:
    """The first ontology whose term weights sum above 1, and its row 0."""
    for ont in index_obj["ontologies"]:
        weights = [t["weight"] for t in ont["terms"]]
        if sum(sorted(weights)[-2:]) > 1:
            return weights, index_obj["rpag"]["counts"][str(ont["ontology_id"])]["rows"][0]
    raise AssertionError("no ontology has two weights that sum above 1")


def overflow_two_set_entries(index_obj: dict) -> None:
    """Edit a saved index so one row of counts scores past the largest float.

    The counts of the two heaviest terms of the row become the largest float
    as an int: each converts to a float and each product with a weight of
    at most 1 is finite, but the two weights sum above 1, so their sum is
    ``inf``.
    """
    weights, row = _weighted_row(index_obj)
    for position in sorted(range(len(weights)), key=weights.__getitem__)[-2:]:
        row[position] = LARGEST_FLOAT_AS_INT


def int_sum_too_large_for_float(index_obj: dict) -> None:
    """Edit a saved index so one row's relevance is a sum no float can hold.

    Every count of the row becomes the largest float as an int: each
    converts to a float and each product is finite, but the weights sum
    above 1, so the row's relevance overflows.
    """
    _, row = _weighted_row(index_obj)
    row[:] = [LARGEST_FLOAT_AS_INT] * len(row)


@pytest.fixture(scope="session")
def bundled_onts() -> tuple[Ontology, ...]:
    return default_ontologies()


CRICKET_WEIGHTS = (
    "# term\tweight\n"
    "cricket\t0.9\n"
    "wicket keeper\t0.8\n"
    "umpire\t0.4\n"
    "bat\t0.2\n"
    "match\t0.1\n"
)

CRICKET_SYNTABLE = (
    "match\tcompetition,contest\n"
    "umpire\tjudge,moderator,referee\n"
)

CRICKET_LIMITS = (
    "relevance_limit=1.0\n"
    "term_relevance_limit.default=0.0\n"
)


@pytest.fixture
def cricket_files(tmp_path):
    weights = tmp_path / "cricket-weights.tsv"
    syntable = tmp_path / "cricket-syntable.tsv"
    limits = tmp_path / "limits.cfg"
    weights.write_text(CRICKET_WEIGHTS, encoding="utf-8")
    syntable.write_text(CRICKET_SYNTABLE, encoding="utf-8")
    limits.write_text(CRICKET_LIMITS, encoding="utf-8")
    return weights, syntable, limits


@pytest.fixture
def cricket(cricket_files) -> Ontology:
    weights, syntable, limits = cricket_files
    return load_ontology(weights, syntable, load_limits(limits), ontology_id=1, name="cricket")


def single_term_ontology(
    term: str = "topic",
    weight: float = 1.0,
    term_limit: float = 0.0,
    relevance_limit: float = 0.0,
    ontology_id: int = 1,
) -> Ontology:
    """One-term ontology: page relevance equals weight times occurrences."""
    return Ontology(
        ontology_id=ontology_id,
        name=f"single-{term}",
        terms=(
            OntologyTerm(term=term, weight=weight, term_relevance_limit=term_limit),
        ),
        relevance_limit=relevance_limit,
    )


def flat_ontology(
    words: list[str],
    weight: float = 1.0,
    term_limit: float = 0.5,
    relevance_limit: float = 0.5,
    ontology_id: int = 1,
) -> Ontology:
    """Equal-weight ontology over the given words, in bit-position order."""
    return Ontology(
        ontology_id=ontology_id,
        name="flat",
        terms=tuple(
            OntologyTerm(
                term=word,
                weight=weight,
                term_relevance_limit=term_limit,
            )
            for word in words
        ),
        relevance_limit=relevance_limit,
    )


def make_limits(relevance_limit=1.0, default_term_limit=0.0, **overrides) -> LimitsConfig:
    return LimitsConfig(
        relevance_limit=relevance_limit,
        default_term_limit=default_term_limit,
        term_limits=dict(overrides),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance.py" not in getattr(report, "nodeid", ""):
                continue
            name = report.nodeid.split("::")[-1]
            outcomes.setdefault(name, "PASS" if status == "passed" else "FAIL")
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(outcomes):
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{label}: {outcomes[name]}")
