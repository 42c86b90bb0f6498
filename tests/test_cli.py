from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import re

import pytest

from ibagsearch import IndexBundle, Ontology, OntologyTerm, ValidationError, synth_corpus
from ibagsearch.bundled import default_ontologies
from ibagsearch.cli import main
from conftest import (
    CRICKET_SYNTABLE,
    CRICKET_WEIGHTS,
    int_sum_too_large_for_float,
    node_counts,
    overflow_two_set_entries,
    sealed,
    set_node_counts,
)


def resealed(data: bytes) -> bytes:
    """A saved index file's bytes, edited after the digest member, under a
    fresh digest: the SHA-256 of ``{`` and the bytes after that member."""
    body = data[data.index(b'",') + 2 :]
    return b'{"digest":"' + hashlib.sha256(b"{" + body).hexdigest().encode() + b'",' + body


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

    def test_url_that_is_not_unicode_is_one_line_error(self, tmp_path, cricket_files, capsys):
        """Such a url fails the corpus read, before the crawl, not the save
        after it, and nothing is written."""
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", ["b\ud800"], "cricket"), ("b\ud800", [], "cricket")])
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {corpus_path}:2: 'url' is not valid Unicode\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text, line_no",
        [
            pytest.param("limits.cfg", "# limits\nrelevance_limit=nan\n", 2, id="relevance_limit"),
            pytest.param(
                "limits.cfg", "# limits\nterm_relevance_limit.default=nan\n", 2,
                id="term_relevance_limit.default",
            ),
            pytest.param(
                "limits.cfg", "# limits\nrelevance_limit=inf\n", 2, id="relevance_limit-inf"
            ),
            pytest.param(
                "limits.cfg", "# limits\nterm_relevance_limit.default=inf\n", 2,
                id="term_relevance_limit.default-inf",
            ),
            pytest.param("limits.cfg", "# limits\nrelevance_limit 1.0\n", 2, id="limits-no-equals"),
            pytest.param(
                "limits.cfg", "relevance_limit=1\nrelevance_limit=2\n", 2, id="limits-repeated-key"
            ),
            pytest.param(
                "limits.cfg", "# limits\nterm_relevance_limit.!!=1.0\n", 2, id="limits-empty-term"
            ),
            pytest.param("c.jsonl", "\n[]\n", 2, id="corpus-not-an-object"),
            pytest.param("c.jsonl", '\n{"links": [], "text": ""}\n', 2, id="corpus-no-url"),
            pytest.param(
                "c.jsonl", '{"url": "a", "links": [], "text": 1}\n', 1,
                id="corpus-text-not-a-string",
            ),
            pytest.param("c.jsonl", "\n", None, id="corpus-empty"),
            pytest.param("queries.tsv", "# q\ncricket\t0:1\t5\tx\n", 2, id="queries-four-columns"),
            pytest.param("queries.tsv", "# q\n \t0:1\n", 2, id="queries-empty-search"),
            pytest.param("queries.tsv", "# q\ncricket\tlow:high\n", 2, id="queries-bad-range"),
            pytest.param("queries.tsv", "# q\ncricket\t2:1\n", 2, id="queries-inverted-range"),
            pytest.param("queries.tsv", "# q\ncricket\tnan:1\n", 2, id="queries-nan-range"),
            pytest.param("queries.tsv", "# q\ncricket\t0:1\tfive\n", 2, id="queries-bad-limit"),
            pytest.param("queries.tsv", "# q\ncricket\t0:1\t0\n", 2, id="queries-zero-limit"),
        ],
    )
    def test_nan_limit_is_one_line_error(
        self, tmp_path, cricket_files, capsys, name, text, line_no
    ):
        """A bad line of an input file fails the command that reads it with
        exit code 1 and one stderr line naming the file and line (only the
        file, for a corpus with no records). A build that fails writes
        nothing: a NaN or infinite limit, say, leaves no index that a query
        cannot load, and no ``Infinity``, which is not JSON. The query file
        is read by ``eval``, after a build that succeeds."""
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "cricket")])
        queries = tmp_path / "queries.tsv"
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out)]
        )
        if bad == queries:
            assert code == 0
            capsys.readouterr()
            code = main(["eval", "--index", str(out), "--queries", str(queries)])
        else:
            assert not out.exists()
        assert code == 1
        err = capsys.readouterr().err
        where = f"{bad}:" if line_no is None else f"{bad}:{line_no}:"
        assert err.count("\n") == 1 and err.startswith(f"error: {where} ")

    # rows 2-6 of CRICKET_WEIGHTS are cricket, wicket keeper, umpire, bat
    # and match; rows 1-2 of CRICKET_SYNTABLE are match and umpire
    @pytest.mark.parametrize(
        "weights_text, syntable_text, bad, line_no, expected",
        [
            pytest.param(CRICKET_WEIGHTS + "\t0.5\n", None, "weights", 7, (("", 0.5),),
                         id="empty-term"),
            pytest.param(CRICKET_WEIGHTS + "!!\t0.5\n", None, "weights", 7, (("", 0.5),),
                         id="punctuation-term"),
            pytest.param(CRICKET_WEIGHTS + "Cricket\t0.5\n", None, "weights", 7,
                         (("cricket", 0.9), ("cricket", 0.5)), id="duplicate-term"),
            pytest.param(CRICKET_WEIGHTS + "bad\t1.5\n", None, "weights", 7, (("bad", 1.5),),
                         id="weight-1.5"),
            pytest.param(CRICKET_WEIGHTS + "bad\t-0.1\n", None, "weights", 7, (("bad", -0.1),),
                         id="weight--0.1"),
            pytest.param(CRICKET_WEIGHTS + "bad\tinf\n", None, "weights", 7,
                         (("bad", math.inf),), id="weight-inf"),
            pytest.param(CRICKET_WEIGHTS + "bad\tnan\n", None, "weights", 7,
                         "weight 'nan' is not a number", id="weight-nan"),
            pytest.param(CRICKET_WEIGHTS + "bad\t abc\n", None, "weights", 7,
                         "weight 'abc' is not a number", id="weight-abc"),
            pytest.param(None, "match\tgame,,fixture\n", "syntable", 1,
                         (("match", 0.1, ("game", "", "fixture")),), id="empty-synonym"),
            pytest.param(None, "# s\nmatch\tgame,Match\n", "syntable", 2,
                         (("match", 0.1, ("game", "match")),), id="synonym-is-the-term"),
            pytest.param(None, "match\tgame,GAME\n", "syntable", 1,
                         (("match", 0.1, ("game", "game")),), id="repeated-synonym"),
            # the ontology reaches umpire's row before match's: weight-table order
            pytest.param(None, "match\tgame\numpire\tgame\n", "syntable", 1,
                         (("umpire", 0.4, ("game",)), ("match", 0.1, ("game",))),
                         id="shared-synonym"),
            pytest.param(None, "match\tgame\nStump\tstick\n", "syntable", 2,
                         "term 'stump' is not in the weight table", id="unknown-syntable-term"),
            pytest.param(None, "match\tgame\nmatch\tfixture\n", "syntable", 2,
                         "duplicate row for term 'match'", id="duplicate-syntable-row"),
            pytest.param(None, "# s\nmatch\n", "syntable", 2,
                         "expected 'term<TAB>syn1,syn2,...', got 'match'",
                         id="syntable-one-column"),
            pytest.param(CRICKET_WEIGHTS + "bad\t1.5\n", "stump\tstick\n", "weights", 7,
                         (("bad", 1.5),), id="weight-before-unknown-syntable-term"),
            pytest.param(CRICKET_WEIGHTS + "bad\t1.5\n", "match\tgame\numpire\tgame\n",
                         "weights", 7, (("bad", 1.5),), id="weight-before-shared-synonym"),
        ],
    )
    def test_bad_ontology_file_names_its_line(
        self, tmp_path, cricket_files, capsys,
        weights_text, syntable_text, bad, line_no, expected,
    ):
        """A fault in a weight table or syntable fails the build with one
        stderr line, ``error: <file>:<line>: <message>``, and writes no
        index. A term, weight or synonym fault carries the message that an
        Ontology made directly from such terms raises, and a weight-table
        fault is named before a syntable one."""
        weights, syntable, limits = cricket_files
        weights.write_text(weights_text or CRICKET_WEIGHTS, encoding="utf-8")
        syntable.write_text(syntable_text or CRICKET_SYNTABLE, encoding="utf-8")
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "cricket")])
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        if not isinstance(expected, str):
            with pytest.raises(ValidationError) as direct:
                Ontology(1, "direct", tuple(OntologyTerm(*row) for row in expected), 0.0)
            expected = str(direct.value)
        path = weights if bad == "weights" else syntable
        assert capsys.readouterr().err == f"error: {path}:{line_no}: {expected}\n"

    def test_empty_seed_list_is_one_line_error(self, tmp_path, cricket_files, capsys):
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus_path, [("a", [], "cricket")])
        out = tmp_path / "i.json"
        code = main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(out), "--seeds", ","]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: corpus has no seeds\n"
        assert not out.exists()

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

    def test_malformed_range_is_usage_error(self, tmp_path, capsys):
        """Every bad ``--range`` is exit 1 and one stderr line, before the
        index is read: a read of the missing index would be exit 2."""
        expected = {
            "nonsense": "range 'nonsense' must look like lo:hi",
            "1": "range '1' must look like lo:hi",
            "2:1": "invalid relevance range [2.0, 1.0]",
            "nan:1": "relevance range [nan, 1.0] has NaN bounds",
        }
        for text, message in expected.items():
            code = main(["query", str(tmp_path / "nope.json"), "--search", "x", "--range", text])
            assert (code, capsys.readouterr().err) == (1, f"error: {message}\n"), text

    def test_search_or_repl_required(self, built_index, capsys):
        code = main(["query", str(built_index)])
        assert code == 1

    def test_repl_prints_what_search_prints(self, built_index, capsys, monkeypatch):
        """A ``--repl`` line is answered as ``--search`` answers the same
        string; a blank line is skipped."""

        def output(*args: str) -> str:
            assert main(["query", str(built_index), "--mode", "both", *args]) == 0
            return re.sub(r"elapsed_us=\S+", "elapsed_us=", capsys.readouterr().out)

        searched = output("--search", "wicket keeper")
        monkeypatch.setattr("sys.stdin", io.StringIO("wicket keeper\n\n"))
        assert output("--repl") == searched
        assert "== harvest ==" in searched

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
            "ontology_id_zero",
            "empty_term",
            "duplicate_term",
            "shared_synonym",
            "unknown_top_level_key",
            "unknown_ontology_key",
            "unknown_term_key",
            "unknown_graph_key",
            "unknown_counts_key",
            "repeated_key",
            "float_length",
            "surrogate_url",
            "surrogate_name",
        ],
    )
    def test_malformed_index_is_one_line_error(self, built_index, capsys, tamper):
        obj = json.loads(built_index.read_text(encoding="utf-8"))
        terms = obj["ontologies"][0]["terms"]
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
        elif tamper == "ontology_id_zero":
            obj["ontologies"][0]["ontology_id"] = 0
        elif tamper == "empty_term":
            terms[0]["term"] = ""
        elif tamper == "duplicate_term":
            terms[1]["term"] = terms[0]["term"]
        elif tamper == "shared_synonym":
            terms[1]["synonyms"].append(terms[4]["synonyms"][0])
        elif tamper.startswith("unknown_"):
            members = {
                "top_level": obj,
                "ontology": obj["ontologies"][0],
                "term": terms[0],
                "graph": obj["rpag"],
                "counts": obj["rpag"]["counts"]["1"],
            }
            members[tamper[len("unknown_") : -len("_key")]]["extra"] = 0
        elif tamper == "float_length":
            obj["patterns"]["t_by_ontology"]["1"] = float(obj["patterns"]["t_by_ontology"]["1"])
        elif tamper == "surrogate_url":
            obj["rpag"]["urls"][0] = "doc-LONE"  # written below as a lone surrogate's escape
        elif tamper == "surrogate_name":
            obj["ontologies"][0]["name"] = "LONE"
        if tamper == "top_level_list":
            built_index.write_text(json.dumps([obj]), encoding="utf-8")
        elif tamper == "repeated_key":
            name = json.dumps(obj["ontologies"][0]["name"]).encode()
            twice = b'"name":"other","name":' + name
            built_index.write_bytes(resealed(sealed(obj).replace(b'"name":' + name, twice)))
        elif tamper.startswith("surrogate_"):
            # JSON can escape a lone surrogate, which no UTF-8 encoder writes
            built_index.write_bytes(resealed(sealed(obj).replace(b"LONE", b"\\ud800")))
        else:
            # under a fresh digest, so the check for the edited fact rejects it
            built_index.write_bytes(sealed(obj))
        code = main(["query", str(built_index), "--search", "cricket"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {built_index}: ")  # every load fault names the file
        assert err.count("\n") == 1
        assert "digest" not in err
        rules = {
            "ontology_id_zero": "ontology_id must be >= 1, got 0",
            "empty_term": "term '' is not a normalized phrase",
            "duplicate_term": "duplicate term 'cricket'",
            "shared_synonym": "synonym 'competition' is shared by 'wicket keeper' and 'match'",
            "unknown_top_level_key": "index has unknown key 'extra'",
            "unknown_ontology_key": "ontology has unknown key 'extra'",
            "unknown_term_key": "ontology term has unknown key 'extra'",
            "unknown_graph_key": "graph has unknown key 'extra'",
            "unknown_counts_key": "graph counts 1 has unknown key 'extra'",
            "repeated_key": "not a valid index file: repeated key 'name'",
            "float_length": "index.patterns.t_by_ontology.1 must be an integer, got 5.0",
            "sum_overflows": "node 0 mean relevance inf not in (0, inf)",
            "int_sum_too_large_for_float": "node 0 mean relevance inf not in (0, inf)",
            "surrogate_url": "graph url 0 must be valid UTF-8, got 'doc-\\ud800'",
            "surrogate_name": "ontology.name must be valid UTF-8, got '\\ud800'",
        }
        assert rules.get(tamper, "") in err

    def test_index_without_ontologies_is_one_line_error(self, built_index, capsys):
        """An index with no ontologies, and so no pages, fails its load as a
        build with none fails, not the query that would follow."""
        obj = json.loads(built_index.read_text(encoding="utf-8"))
        obj["ontologies"] = []
        obj["rpag"] = {"counts": {}, "pp_ids": [], "urls": []}
        obj["patterns"] = {"patterns": {}, "t_by_ontology": {}}
        built_index.write_bytes(sealed(obj))
        code = main(["query", str(built_index), "--search", "cricket"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {built_index}: at least one ontology is required\n"

    def test_limit_defaults_to_twenty(self, tmp_path, cricket_files, capsys):
        """Without ``--limit``, a query that 25 pages answer prints 20."""
        weights, syntable, limits = cricket_files
        corpus_path = tmp_path / "corpus.jsonl"
        pages = [f"p{i}" for i in range(25)]
        write_corpus(
            corpus_path,
            [("home", pages, "noise")] + [(page, [], "cricket cricket") for page in pages],
        )
        index_path = tmp_path / "index.json"
        assert main(
            ["build", str(corpus_path), "--ontology", f"{weights}:{syntable}",
             "--limits", str(limits), "--out", str(index_path)]
        ) == 0
        capsys.readouterr()
        assert main(["query", str(index_path), "--search", "cricket", "--mode", "both"]) == 0
        out = capsys.readouterr().out
        for mode in ("before", "after"):
            section = out.split(f"== {mode} ==\n")[1]
            assert section.startswith("".join(f"{page}\t1.800000\n" for page in pages[:20]))
            assert "# results=20 selected=25 " in section

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
        assert err.startswith(f"error: {built_index}: unsupported index format version '2'")
        assert "rebuild the index with `ibag-search build`" in err
        assert err.count("\n") == 1

    def test_missing_index_is_io_error(self, tmp_path, capsys):
        code = main(["query", str(tmp_path / "nope.json"), "--search", "x"])
        assert code == 2

    @staticmethod
    def unread_stdin(monkeypatch) -> None:
        class Unread(io.StringIO):
            def __iter__(self):
                raise AssertionError("read stdin before checking the arguments")

        monkeypatch.setattr("sys.stdin", Unread("cricket\n"))

    def test_bad_limit_is_rejected_before_the_load(self, tmp_path, capsys):
        """A bad ``--limit`` is a usage error even where the index is missing."""
        code = main(["query", str(tmp_path / "nope.json"), "--search", "x", "--limit", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: result_limit must be >= 1, got 0\n"

    def test_repl_rejects_a_bad_limit_before_reading_stdin(
        self, built_index, capsys, monkeypatch
    ):
        self.unread_stdin(monkeypatch)
        code = main(["query", str(built_index), "--repl", "--limit", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: result_limit must be >= 1, got 0\n"

    def test_repl_rejects_an_unknown_ontology_before_reading_stdin(
        self, built_index, capsys, monkeypatch
    ):
        self.unread_stdin(monkeypatch)
        code = main(["query", str(built_index), "--repl", "--ontology", "9"])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown ontology id 9\n"

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
            for row in obj["rows"]:
                row.pop("avg_elapsed_us")
        assert first == second
        csv_rows = (tmp_path / "one" / "report.csv").read_text().strip().splitlines()
        assert len(csv_rows) == 1 + 4  # header + 2 sizes x 2 modes
        assert {row.split(",")[0] for row in csv_rows[1:]} == {"40", "60"}

    def test_repeats_default_to_five(self, tmp_path, capsys, monkeypatch):
        from ibagsearch import evaluation

        seen = []
        evaluate_index = evaluation.evaluate_index

        def spy(*args, repeats):
            seen.append(repeats)
            return evaluate_index(*args, repeats=repeats)

        monkeypatch.setattr(evaluation, "evaluate_index", spy)
        assert main(["bench", "--sizes", "40", "--out", str(tmp_path / "o")]) == 0
        assert seen == [5]

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

    def test_bad_repeats_is_rejected_before_the_load(self, tmp_path, capsys):
        """A read of the missing index would be exit 2."""
        queries = tmp_path / "queries.tsv"
        queries.write_text("cricket\n", encoding="utf-8")
        code = main(["eval", "--index", str(tmp_path / "nope.json"), "--queries", str(queries),
                     "--repeats", "0"])
        assert (code, capsys.readouterr().err) == (1, "error: repeats must be >= 1, got 0\n")

    def test_bad_query_line_is_rejected_before_the_load(self, tmp_path, capsys):
        queries = tmp_path / "queries.tsv"
        queries.write_text("cricket\numpire\t2:1\n", encoding="utf-8")
        code = main(["eval", "--index", str(tmp_path / "nope.json"), "--queries", str(queries)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {queries}:2: ")
        assert err.count("\n") == 1


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
    @staticmethod
    def one_error_line(capsys) -> str:
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        self.one_error_line(capsys)

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        self.one_error_line(capsys)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["query", "idx", "--search", "x", "--limit", "x"],
             "argument --limit: invalid int value: 'x'"),
            (["query", "idx", "--search", "x", "--ontology", "x"],
             "argument --ontology: invalid int value: 'x'"),
            (["query", "idx", "--search", "x", "--mode", "sideways"],
             "argument --mode: invalid choice: 'sideways'"),
            (["query", "idx", "--search", "x", "--range", "-1:2"],
             "argument --range: expected one argument"),
            (["query", "idx", "--search", "x", "--frob"], "unrecognized arguments: --frob"),
            (["query", "idx"], "one of the arguments --search --repl is required"),
            (["query", "idx", "--search", "x", "--repl"],
             "argument --repl: not allowed with argument --search"),
            (["build", "c.jsonl"], "the following arguments are required: --ontology"),
            (["bench", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["eval", "--repeats", "x"], "argument --repeats: invalid int value: 'x'"),
        ],
        ids=[
            "limit-not-int", "ontology-not-int", "unknown-mode", "range-starts-with-dash",
            "unknown-option", "neither-search-nor-repl", "search-and-repl",
            "build-options-missing", "seed-not-int", "repeats-not-int",
        ],
    )
    def test_argparse_fault_is_one_line(self, capsys, args, message):
        """A fault that argparse finds is reported as every other fault is:
        exit 1, nothing on stdout and one stderr line, with no usage block."""
        assert main(args) == 1
        assert self.one_error_line(capsys).startswith(f"error: {message}")

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
