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
