from __future__ import annotations

import gc
import io
import json

import pytest

from ibagsearch import IndexBundle, synth_corpus
from ibagsearch.bundled import default_ontologies
from ibagsearch.cli import main
from conftest import (
    int_sum_too_large_for_float,
    node_counts,
    overflow_two_set_entries,
    sealed,
    set_node_counts,
)


def write_corpus(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for url, links, text in records:
            fh.write(json.dumps({"url": url, "links": links, "text": text}) + "\n")


@pytest.fixture
def built_index(tmp_path, cricket_files, capsys):
    weights, syntable, limits = cricket_files
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(
        corpus_path,
        [
            ("home", ["p", "q"], "cricket cricket news"),
            ("p", [], "wicket keeper wicket keeper report"),
            ("q", [], "umpire umpire umpire talk"),
        ],
    )
    index_path = tmp_path / "index.json"
    code = main(
        [
            "build",
            str(corpus_path),
            "--ontology",
            f"{weights}:{syntable}",
            "--limits",
            str(limits),
            "--out",
            str(index_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    return index_path


class TestBuild:
    def test_valid_build_writes_all_sections(self, built_index, capsys):
        obj = json.loads(built_index.read_text(encoding="utf-8"))
        assert set(obj) == {"digest", "format_version", "ontologies", "rpag", "patterns"}
        assert len(obj["rpag"]["urls"]) == 3

    def test_prints_counts(self, tmp_path, cricket_files, capsys):
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "cricket cricket")])
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "nodes=1" in captured.out
        assert "patterns=1" in captured.out

    def test_zero_relevant_pages_warns_but_succeeds(self, tmp_path, cricket_files, capsys):
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "nothing to see")])
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out)]
        )
        assert code == 0
        assert "empty index" in capsys.readouterr().err

    def test_missing_syntable_is_io_error(self, tmp_path, cricket_files, capsys):
        weights, _, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "x")])
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{tmp_path / 'missing.tsv'}",
             "--limits", str(limits), "--out", str(tmp_path / 'i.json')]
        )
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_bad_ontology_spec_is_usage_error(self, tmp_path, cricket_files, capsys):
        weights, _, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "x")])
        code = main(
            ["build", str(corpus_path), "--ontology", str(weights),
             "--limits", str(limits), "--out", str(tmp_path / 'i.json')]
        )
        assert code == 1

    def test_explicit_seeds(self, tmp_path, cricket_files, capsys):
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(
            corpus_path,
            [("island", [], "cricket cricket"), ("mainland", [], "cricket cricket cricket")],
        )
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out), "--seeds", "mainland"]
        )
        assert code == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["rpag"]["urls"] == ["mainland"]


class TestQuery:
    def test_after_mode_lists_matching_page(self, built_index, capsys):
        code = main(["query", str(built_index), "--search", "wicket keeper", "--mode", "after"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== after ==" in out
        after_section = out.split("== after ==")[1]
        assert "p\t" in after_section
        assert "q\t" not in after_section

    def test_both_mode_prints_harvest(self, built_index, capsys):
        code = main(["query", str(built_index), "--search", "wicket keeper", "--mode", "both"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== before ==" in out and "== after ==" in out and "== harvest ==" in out
        after_urls = [
            line.split("\t")[0]
            for line in out.split("== after ==")[1].splitlines()
            if line and "\t" in line and not line.startswith(("#", "before", "after"))
        ]
        before_urls = [
            line.split("\t")[0]
            for line in out.split("== before ==")[1].split("== after ==")[0].splitlines()
            if line and "\t" in line and not line.startswith("#")
        ]
        assert set(after_urls) <= set(before_urls)

    def test_zero_limit_is_usage_error(self, built_index, capsys):
        code = main(["query", str(built_index), "--search", "cricket", "--limit", "0"])
        assert code == 1
        assert "result_limit" in capsys.readouterr().err

    def test_malformed_range_is_usage_error(self, built_index, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(built_index), "--search", "x", "--range", "nonsense"])
        assert excinfo.value.code == 1

    def test_search_or_repl_required(self, built_index, capsys):
        code = main(["query", str(built_index)])
        assert code == 1

    @pytest.mark.parametrize(
        "tamper",
        [
            "drop_url",
            "top_level_list",
            "int_too_large_for_float",
            "infinity",
            "sum_overflows",
            "int_sum_too_large_for_float",
            "duplicate_url",
            "all_zero_vectors",
        ],
    )
    def test_malformed_index_is_one_line_error(self, built_index, capsys, tamper):
        obj = json.loads(built_index.read_text(encoding="utf-8"))
        if tamper == "drop_url":
            del obj["rpag"]["urls"]
        elif tamper == "int_too_large_for_float":
            obj["rpag"]["counts"]["1"]["rows"][0][0] = 10**400
        elif tamper == "infinity":
            obj["rpag"]["counts"]["1"]["rows"][0][0] = float("inf")
        elif tamper == "sum_overflows":
            overflow_two_set_entries(obj)
        elif tamper == "int_sum_too_large_for_float":
            int_sum_too_large_for_float(obj)
        elif tamper == "duplicate_url":
            obj["rpag"]["urls"][1] = obj["rpag"]["urls"][0]
        elif tamper == "all_zero_vectors":
            counts = node_counts(obj, "1")
            counts[0] = [0] * len(counts[0])
            set_node_counts(obj, "1", counts)
        if tamper == "top_level_list":
            built_index.write_text(json.dumps([obj]), encoding="utf-8")
        else:
            # under a fresh digest, so the check for the edited fact rejects it
            built_index.write_bytes(sealed(obj))
        code = main(["query", str(built_index), "--search", "cricket"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "digest" not in err

    def test_format_2_index_names_version_and_rebuild(self, built_index, capsys):
        """An index written before format 3 fails with one line that says
        how to get a readable one."""
        obj = json.loads(built_index.read_text(encoding="utf-8"))
        del obj["digest"]
        obj["format_version"] = "2"
        built_index.write_text(json.dumps(obj), encoding="utf-8")
        code = main(["query", str(built_index), "--search", "cricket"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported index format version '2'")
        assert "rebuild the index with `ibag-search build`" in err
        assert err.count("\n") == 1

    def test_missing_index_is_io_error(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "nope.json"), "--search", "x"])
        assert code == 2

    def test_repl_reads_stdin(self, built_index, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("wicket keeper\n\numpire\n"))
        code = main(["query", str(built_index), "--repl"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("== after ==") == 2

    def test_synonym_query_hits_via_syntable(self, built_index, capsys):
        code = main(["query", str(built_index), "--search", "the judge said"])
        assert code == 0
        out = capsys.readouterr().out
        assert "q\t" in out  # judge is a synonym of umpire

    def test_range_filter_applies(self, built_index, capsys):
        code = main(
            ["query", str(built_index), "--search", "wicket keeper", "--range", "9:10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "results=0" in out


class TestBench:
    def test_bench_writes_reports_and_is_deterministic(self, tmp_path, capsys):
        args = ["bench", "--sizes", "40,60", "--seed", "9", "--repeats", "1"]
        code = main(args + ["--out", str(tmp_path / "one")])
        assert code == 0
        code = main(args + ["--out", str(tmp_path / "two")])
        assert code == 0
        first = json.loads((tmp_path / "one" / "report.json").read_text())
        second = json.loads((tmp_path / "two" / "report.json").read_text())
        for obj in (first, second):
            obj.pop("bit_op_seconds")
            for row in obj["rows"]:
                row.pop("avg_elapsed_us")
        assert first == second
        csv_rows = (tmp_path / "one" / "report.csv").read_text().strip().splitlines()
        assert len(csv_rows) == 1 + 4  # header + 2 sizes x 2 modes
        assert {row.split(",")[0] for row in csv_rows[1:]} == {"40", "60"}

    def test_empty_query_file_is_usage_error(self, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        queries.write_text("# nothing here\n", encoding="utf-8")
        code = main(
            ["bench", "--sizes", "40", "--queries", str(queries), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_bad_sizes_is_usage_error(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "abc", "--out", str(tmp_path / "o")])
        assert code == 1


class TestEval:
    def test_eval_reports_hr_direction(self, tmp_path, capsys):
        ontologies = default_ontologies()
        corpus = synth_corpus(31, 80, ontologies)
        bundle = IndexBundle.build(corpus, ontologies)
        index_path = tmp_path / "index.json"
        bundle.save(index_path)
        queries = tmp_path / "queries.tsv"
        queries.write_text("cricket match\numpire\t\t5\n", encoding="utf-8")
        code = main(
            ["eval", "--index", str(index_path), "--queries", str(queries),
             "--out", str(tmp_path / "evalout"), "--repeats", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hr direction" in out
        assert (tmp_path / "evalout" / "report.csv").exists()


class TestCollectorFreeze:
    """``query`` and ``eval`` own their process and keep the index to its
    end: they freeze it, loaded with the collector off, then turn it on."""

    @staticmethod
    def record(monkeypatch) -> list:
        events: list = []
        real_load = IndexBundle.load

        def load(path):
            events.append(("load", gc.isenabled()))
            return real_load(path)

        # a real freeze would exempt the test process's objects for good
        monkeypatch.setattr(IndexBundle, "load", staticmethod(load))
        monkeypatch.setattr(gc, "freeze", lambda: events.append(("freeze", gc.isenabled())))
        return events

    def test_query_freezes_after_the_load(self, built_index, capsys, monkeypatch):
        events = self.record(monkeypatch)
        assert main(["query", str(built_index), "--search", "cricket"]) == 0
        assert events == [("load", False), ("freeze", False)]
        assert gc.isenabled()

    def test_eval_freezes_after_the_load(self, built_index, tmp_path, capsys, monkeypatch):
        queries = tmp_path / "queries.tsv"
        queries.write_text("cricket\n", encoding="utf-8")
        events = self.record(monkeypatch)
        assert main(["eval", "--index", str(built_index), "--queries", str(queries),
                     "--repeats", "1"]) == 0
        assert events == [("load", False), ("freeze", False)]
        assert gc.isenabled()

    def test_failed_load_freezes_nothing(self, tmp_path, capsys, monkeypatch):
        events = self.record(monkeypatch)
        path = tmp_path / "index.json"
        path.write_text("not json", encoding="utf-8")
        assert main(["query", str(path), "--search", "cricket"]) == 1
        assert events == [("load", False)]
        assert gc.isenabled()


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_module_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ibagsearch

        # run the package these tests import, installed or not
        src = str(Path(ibagsearch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "ibagsearch", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "build" in result.stdout


class TestColdStart:
    @staticmethod
    def modules_after_cli_import() -> str:
        """The package's modules that ``import ibagsearch.cli`` loads, in a
        fresh interpreter run without ``site``, which may import modules of
        its own (``importlib.resources``, say) through installed ``.pth``
        files."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ibagsearch

        src = str(Path(ibagsearch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, ibagsearch.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('ibagsearch')))"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert "'ibagsearch.cli'" in result.stdout
        return result.stdout

    def test_cli_import_leaves_evaluation_unloaded(self):
        """``build`` and ``query`` never run the evaluation harness, so
        importing the command line module does not import it."""
        assert "'ibagsearch.evaluation'" not in self.modules_after_cli_import()

    def test_cli_import_leaves_bundled_unloaded(self):
        """Only ``bench`` and ``eval`` read the bundled data, whose module
        imports ``importlib.resources``."""
        assert "'ibagsearch.bundled'" not in self.modules_after_cli_import()

    def test_package_names_resolve_on_first_access(self):
        import ibagsearch

        for name in ibagsearch.__all__:
            assert getattr(ibagsearch, name) is not None
        assert set(ibagsearch.__all__) <= set(dir(ibagsearch))
        with pytest.raises(AttributeError, match="no_such_name"):
            ibagsearch.no_such_name  # noqa: B018
