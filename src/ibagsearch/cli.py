"""Command-line interface: build an index, query it, benchmark and evaluate.

Exit codes: 0 success, 1 validation or usage error, 2 I/O error. The
``IBAG_SEARCH_LOG`` environment variable (``debug`` or ``info``) controls
log verbosity.
"""
from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .bundle import IndexBundle
from .collector import collector_paused
from .corpus import load_corpus
from .errors import IbagSearchError
from .ontology import load_limits, load_ontology
from .search import (
    BEFORE_MASKING,
    Query,
    parse_relevance_range,
    search_after_masking,
    search_before_masking,
)

if TYPE_CHECKING:
    from .evaluation import HarvestReport

# ``evaluation`` is imported by the commands that use it (``bench``,
# ``eval`` and ``query --mode both``), and ``bundled`` by ``bench`` and
# ``eval``, so ``build`` and ``query`` start without them

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the validation exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _range_arg(text: str) -> tuple[float, float]:
    try:
        return parse_relevance_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _configure_logging() -> None:
    level_name = os.environ.get("IBAG_SEARCH_LOG", "").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ibag-search", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an index from a corpus and ontologies")
    p_build.add_argument("corpus", help="line-delimited JSON corpus (url, links, text)")
    p_build.add_argument(
        "--ontology",
        action="append",
        required=True,
        metavar="WEIGHTS:SYNTABLE",
        help="weight table and syntable paths; repeat for multiple ontologies",
    )
    p_build.add_argument("--limits", required=True, help="limits config file")
    p_build.add_argument("--out", required=True, help="output index path")
    p_build.add_argument(
        "--seeds", default=None, help="comma-separated seed urls (default: first record)"
    )
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="query a built index")
    p_query.add_argument("index", help="index file written by build")
    p_query.add_argument("--search", default=None, help="search string")
    p_query.add_argument(
        "--range", type=_range_arg, default=(0.0, float("inf")), metavar="LO:HI",
        help="mean relevance range (default 0:inf)",
    )
    p_query.add_argument("--ontology", type=int, default=1, help="ontology id (default 1)")
    p_query.add_argument("--limit", type=int, default=20, help="number of search results")
    p_query.add_argument(
        "--mode", choices=("before", "after", "both"), default="after",
        help="before/after bit masking, or both plus the harvest report",
    )
    p_query.add_argument(
        "--no-mask-synonyms", action="store_true",
        help="mask only literal term occurrences in the search string",
    )
    p_query.add_argument(
        "--repl", action="store_true",
        help="read search strings from stdin, one per line, until end of input",
    )
    p_query.set_defaults(func=cmd_query)

    p_bench = sub.add_parser("bench", help="benchmark both modes over synthetic corpora")
    p_bench.add_argument("--sizes", default="100,200,300,400,500", help="comma-separated sizes")
    p_bench.add_argument("--queries", default=None, help="query file (default: bundled set)")
    p_bench.add_argument("--seed", type=int, default=42, help="generator seed")
    p_bench.add_argument("--out", default="bench-out", help="output directory")
    p_bench.add_argument("--ontology", type=int, default=1, help="ontology id for the queries")
    p_bench.add_argument("--repeats", type=int, default=5, help="timing repetitions per query")
    p_bench.set_defaults(func=cmd_bench)

    p_eval = sub.add_parser("eval", help="evaluate a query set against an existing index")
    p_eval.add_argument("--index", required=True, help="index file written by build")
    p_eval.add_argument("--queries", required=True, help="query file")
    p_eval.add_argument("--ontology", type=int, default=1, help="ontology id for the queries")
    p_eval.add_argument("--out", default=None, help="optional output directory")
    p_eval.add_argument("--repeats", type=int, default=5, help="timing repetitions per query")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def cmd_build(args: argparse.Namespace) -> int:
    limits = load_limits(args.limits)
    ontologies = []
    for ontology_id, pair in enumerate(args.ontology, start=1):
        parts = pair.split(":")
        if len(parts) != 2:
            raise ValueError(f"--ontology {pair!r} must look like WEIGHTS:SYNTABLE")
        ontologies.append(
            load_ontology(parts[0], parts[1], limits, ontology_id=ontology_id)
        )
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()] if args.seeds else None
    corpus = load_corpus(args.corpus, seeds)
    bundle = IndexBundle.build(corpus, ontologies)
    bundle.save(args.out)
    print(
        f"nodes={len(bundle.rpag)} levels={len(bundle.ibag.levels)} "
        f"patterns={len(bundle.patterns)}"
    )
    if not len(bundle.rpag):
        print("warning: empty index (no page supports any ontology)", file=sys.stderr)
    return 0


def _load_for_process(path: str) -> IndexBundle:
    """Load an index that this process keeps to its end, then freeze it.

    Freezing moves every object the process has into a generation that the
    collector never scans, so its passes skip the index, the first one
    included. The freeze is process-wide, so only a command, which owns
    its process, makes it; ``IndexBundle.load`` never does.
    """
    with collector_paused():
        bundle = IndexBundle.load(path)
        gc.freeze()
    return bundle


def _print_harvest(mode: str, report: HarvestReport) -> None:
    def fmt(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.6f}"

    print(
        f"{mode}\tt_rel_sr={fmt(report.t_rel_sr)}\t"
        f"t_rel_sw={fmt(report.t_rel_sw)}\thr={fmt(report.hr)}"
    )


def _run_query(bundle: IndexBundle, query: Query, mode: str, use_synonyms: bool) -> None:
    outcomes = []
    if mode in ("before", "both"):
        outcomes.append(search_before_masking(query, bundle.ibag))
    if mode in ("after", "both"):
        outcomes.append(search_after_masking(query, bundle.ibag, bundle.patterns, use_synonyms))
    for outcome in outcomes:
        label = "before" if outcome.mode == BEFORE_MASKING else "after"
        print(f"== {label} ==")
        for url, mean in outcome.results:
            print(f"{url}\t{mean:.6f}")
        print(
            f"# results={len(outcome.results)} selected={outcome.selected_count} "
            f"visited={outcome.visited_count} elapsed_us={outcome.elapsed * 1e6:.1f}"
        )
    if mode == "both":
        from .evaluation import compare_modes

        modes = compare_modes(query, bundle.ibag, bundle.patterns, use_synonyms)
        print("== harvest ==")
        _print_harvest("before", modes.before)
        _print_harvest("after", modes.after)


def cmd_query(args: argparse.Namespace) -> int:
    if not args.repl and args.search is None:
        raise ValueError("either --search or --repl is required")
    bundle = _load_for_process(args.index)
    use_synonyms = not args.no_mask_synonyms

    def make_query(search_string: str) -> Query:
        return Query(
            search_string=search_string,
            ontology_id=args.ontology,
            relevance_range=args.range,
            result_limit=args.limit,
        )

    if args.repl:
        for line in sys.stdin:
            search_string = line.strip()
            if not search_string:
                continue
            _run_query(bundle, make_query(search_string), args.mode, use_synonyms)
            sys.stdout.flush()
        return 0
    _run_query(bundle, make_query(args.search), args.mode, use_synonyms)
    return 0


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--sizes {text!r} must be comma-separated integers") from None


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bundled
    from .evaluation import run_benchmark

    sizes = _parse_sizes(args.sizes)
    if args.queries is None:
        queries = bundled.default_queries(default_ontology_id=args.ontology)
    else:
        queries = bundled.load_query_file(args.queries, default_ontology_id=args.ontology)
    report = run_benchmark(sizes, queries, args.seed, repeats=args.repeats)
    json_path, csv_path = report.write(args.out)
    print(report.csv_text(), end="")
    print(f"wrote {json_path} and {csv_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import bundled
    from .evaluation import BenchReport, aggregate_runs, evaluate_index

    bundle = _load_for_process(args.index)
    queries = bundled.load_query_file(args.queries, default_ontology_id=args.ontology)
    runs = evaluate_index(bundle.ibag, bundle.patterns, queries, repeats=args.repeats)
    report = BenchReport.from_runs(0, aggregate_runs(len(bundle.ibag), runs), runs)
    print(report.csv_text(), end="")
    comparable = [r for r in runs if r.hr_before is not None and r.hr_after is not None]
    improved = sum(1 for r in comparable if r.hr_after >= r.hr_before)
    print(f"hr direction: after>=before on {improved}/{len(comparable)} comparable queries")
    if args.out is not None:
        json_path, csv_path = report.write(args.out)
        print(f"wrote {json_path} and {csv_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IbagSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
