"""The benchmark's traced run wraps program functions by the names their
callers look up (``tracer.patch(owner, "attr", ...)`` in
``perfbench/worker.py``). Renaming or deleting one of those names breaks
only the traced run, so these tests check that every patched name still
exists on its owner, reading the worker's source, and that a crawl still
calls the two names whose call counts the traced run divides by."""
from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def patched_names() -> list[tuple[str, str]]:
    """(owner expression, attribute) for every ``tracer.patch`` call."""
    found = []
    for call in ast.walk(ast.parse(WORKER.read_text(encoding="utf-8"))):
        func = getattr(call, "func", None)
        if (
            isinstance(call, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr == "patch"
            and isinstance(func.value, ast.Name)
            and func.value.id == "tracer"
        ):
            owner, attr = call.args[:2]
            found.append((ast.unparse(owner), ast.literal_eval(attr)))
    return found


def resolve(owner: str) -> object:
    """``bundle.IndexBundle`` → the ``IndexBundle`` class of ``ibagsearch.bundle``."""
    module, *path = owner.split(".")
    obj = importlib.import_module(f"ibagsearch.{module}")
    for name in path:
        obj = getattr(obj, name)
    return obj


def test_every_traced_name_exists_on_its_owner():
    patched = patched_names()
    assert ("ibag.IBAG", "validate") in patched  # the parse found the calls
    missing = [f"{owner}.{attr}" for owner, attr in patched if attr not in vars(resolve(owner))]
    assert missing == []


def test_the_crawl_calls_the_names_the_traced_run_divides_by(monkeypatch, bundled_onts):
    """The traced run counts crawled pages by the calls ``build_rpag`` makes
    to ``rpag.normalize_text`` and scored pages by those to
    ``rpag.page_relevance``, and divides by both counts. Each must still be
    called through that module's name: once per crawled document, and at
    least once."""
    from ibagsearch import rpag, synth_corpus

    texts, scored = [], []
    normalize_text, page_relevance = rpag.normalize_text, rpag.page_relevance

    def counted_normalize(text):
        texts.append(text)
        return normalize_text(text)

    def counted_relevance(*args):
        scored.append(args)
        return page_relevance(*args)

    monkeypatch.setattr(rpag, "normalize_text", counted_normalize)
    monkeypatch.setattr(rpag, "page_relevance", counted_relevance)
    corpus = synth_corpus(3, 40, bundled_onts)  # every document is reachable from the seed
    rpag.build_rpag(corpus, bundled_onts)
    assert Counter(texts) == Counter(doc.text for doc in corpus.docs.values())
    assert scored
