"""Helpers shared by the test modules."""

import tracemalloc
from typing import Callable


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs; tracing
    starts afresh and is stopped whatever ``fn`` raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_constructions(monkeypatch) -> list:
    """The :class:`HermiteExpansion` instances constructed from now on, in
    order: ``__post_init__`` is wrapped to record each one."""
    from gaussl1.hermite import HermiteExpansion

    made = []
    post_init = HermiteExpansion.__post_init__

    def counted(self):
        post_init(self)
        made.append(self)

    monkeypatch.setattr(HermiteExpansion, "__post_init__", counted)
    return made
