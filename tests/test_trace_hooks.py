"""The benchmark's traced run wraps program functions by the names their
callers look up (``tracer.patch(owner, "attr", ...)`` in
``perfbench/worker.py``). Renaming or deleting one of those names breaks
only the traced run, so this test checks every patched name still exists
on its owner. It reads the worker's source and changes nothing."""
from __future__ import annotations

import ast
import importlib
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
