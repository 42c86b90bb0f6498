from __future__ import annotations

import pytest

from ibagsearch import Corpus, CorpusDoc, LimitsConfig, Ontology, OntologyTerm, load_ontology
from ibagsearch.bundled import default_ontologies


def make_corpus(records: list[tuple[str, list[str], str]], seeds: list[str] | None = None) -> Corpus:
    docs = {url: CorpusDoc(url=url, out_links=tuple(links), text=text) for url, links, text in records}
    if seeds is None:
        seeds = [records[0][0]]
    return Corpus(docs=docs, seeds=tuple(seeds))


def overflow_two_set_entries(index_obj: dict) -> None:
    """Edit a saved index so one page's relevance sums past the largest float.

    Two entries of the first term vector with at least two pattern bits set
    become ``1e308``: each is finite and its bit stays set, so the stored
    patterns still agree, but their sum is ``inf``.
    """
    limits = {
        str(ont["ontology_id"]): [t["term_relevance_limit"] for t in ont["terms"]]
        for ont in index_obj["ontologies"]
    }
    vector, positions = next(
        (vec, set_positions)
        for raw in index_obj["rpag"]["nodes"]
        for key, vec in raw["term_vectors"].items()
        for set_positions in [[p for p, v in enumerate(vec) if v > limits[key][p]]]
        if len(set_positions) >= 2
    )
    for position in positions[:2]:
        vector[position] = 1e308


def int_sum_too_large_for_float(index_obj: dict) -> None:
    """Edit a saved index so one page's relevance is an int no float can hold.

    The first term vector with at least two pattern bits set becomes ints:
    ``10**308`` where a bit is set, 0 elsewhere. Each entry is at most the
    largest float and the set bits do not change, so the stored patterns
    still agree, but the vector's sum is an int above the largest float.
    """
    limits = {
        str(ont["ontology_id"]): [t["term_relevance_limit"] for t in ont["terms"]]
        for ont in index_obj["ontologies"]
    }
    vector, positions = next(
        (vec, set_positions)
        for raw in index_obj["rpag"]["nodes"]
        for key, vec in raw["term_vectors"].items()
        for set_positions in [[p for p, v in enumerate(vec) if v > limits[key][p]]]
        if len(set_positions) >= 2
    )
    vector[:] = [10**308 if p in positions else 0 for p in range(len(vector))]


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
    return load_ontology(weights, syntable, limits, ontology_id=1, name="cricket")


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
                bit_position=i,
            )
            for i, word in enumerate(words)
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
