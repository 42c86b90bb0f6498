"""Bundled sample ontologies, limits, and query set used by the benchmarks."""
from __future__ import annotations

from importlib.resources import as_file, files
from pathlib import Path

from .errors import ParseError, ValidationError
from .ontology import LimitsConfig, Ontology, _iter_rows, load_limits, load_ontology
from .search import Query, parse_relevance_range

_DATA = files("ibagsearch") / "data"

_ONTOLOGY_SPECS = (
    ("cricket-weights.tsv", "cricket-syntable.tsv", "cricket"),
    ("football-weights.tsv", "football-syntable.tsv", "football"),
    ("tennis-weights.tsv", "tennis-syntable.tsv", "tennis"),
)


def default_limits() -> LimitsConfig:
    with as_file(_DATA / "limits.cfg") as path:
        return load_limits(path)


def default_ontologies() -> tuple[Ontology, ...]:
    limits = default_limits()
    ontologies = []
    for ontology_id, (weights, syntable, name) in enumerate(_ONTOLOGY_SPECS, start=1):
        with as_file(_DATA / weights) as wpath, as_file(_DATA / syntable) as spath:
            ontologies.append(
                load_ontology(wpath, spath, limits, ontology_id=ontology_id, name=name)
            )
    return tuple(ontologies)


def load_query_file(path: str | Path, *, default_ontology_id: int = 1) -> list[Query]:
    """Parse a query file: one search string per line, optional tab-separated
    ``lo:hi`` range and result-limit columns, which default to those of
    :class:`Query`."""
    path = Path(path)
    queries: list[Query] = []
    for line_no, row in _iter_rows(path):
        parts = row.split("\t")
        if len(parts) > 3:
            raise ParseError(path, line_no, "too many columns")
        search_string = parts[0].strip()
        if not search_string:
            raise ParseError(path, line_no, "empty search string")
        range_field = parts[1].strip() if len(parts) > 1 else ""
        limit_field = parts[2].strip() if len(parts) > 2 else ""
        relevance_range = Query.relevance_range
        if range_field:
            try:
                relevance_range = parse_relevance_range(range_field)
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
        result_limit = Query.result_limit
        if limit_field:
            try:
                result_limit = int(limit_field)
            except ValueError:
                raise ParseError(path, line_no, f"limit {limit_field!r} is not an integer") from None
        try:
            queries.append(
                Query(
                    search_string=search_string,
                    ontology_id=default_ontology_id,
                    relevance_range=relevance_range,
                    result_limit=result_limit,
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{path}:{line_no}: {exc}") from None
    if not queries:
        raise ValidationError(f"{path}: query file is empty")
    return queries


def default_queries(*, default_ontology_id: int = 1) -> list[Query]:
    with as_file(_DATA / "queries.tsv") as path:
        return load_query_file(path, default_ontology_id=default_ontology_id)
