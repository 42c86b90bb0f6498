"""Pausing the cyclic garbage collector around steps that make no cycles.

Loading a corpus, building an index, serializing one and loading one each
allocate a few containers per document or node and keep most of them. With
the collector on, its passes rescan those objects again and again as they
pile up and find no garbage, since none of these steps forms a reference
cycle; reference counting still frees whatever a step drops.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector for the block, and on leaving
    it, by return or by exception, enable it again if it was enabled."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
