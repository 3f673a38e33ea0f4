"""Shared harness for the standalone ``bench_*.py`` scripts.

Every wall-clock benchmark in this directory is run directly (never via
pytest), prints its measurements to stdout and writes no file.  This
module owns the conventions they share, so a change to any of them
lands in one place:

* :func:`best_of` -- the repeat policy: ``time.perf_counter()``
  best-of-N, so one scheduler hiccup cannot inflate a measurement;
* :func:`best_of_each` -- the same policy round-robin across several
  configurations, for A/B overhead bars;
* :func:`bar` -- the acceptance-bar reporter: it prints a ``FAIL:``
  line to stderr when the bar is missed and returns whether it was, so
  ``main`` can accumulate an exit code without each script
  re-inventing the print.

Scripts are run with ``benchmarks/`` as ``sys.path[0]`` (that is how
``python benchmarks/bench_x.py`` works), so a plain ``import harness``
resolves here.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, List, Sequence, Tuple


def best_of(
    fn: Callable[[], Any], repeats: int = 3
) -> Tuple[float, Any]:
    """(best wall-clock seconds, last return value) over ``repeats`` calls."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def best_of_each(
    fns: Sequence[Callable[[], Any]], repeats: int = 3
) -> List[Tuple[float, Any]]:
    """Round-robin :func:`best_of` across several configurations.

    Runs one round of every ``fn`` before the next repeat instead of
    exhausting each configuration's repeats in a block, so slow host
    drift (frequency ramp-up, cache warm-up, a neighbour container
    waking) hits every configuration equally rather than biasing
    whichever block ran first.  This is the policy for A/B overhead
    comparisons (``no_faults`` vs ``hooks_armed``), where the quantity
    under a bar is a *difference* of timings and block ordering alone
    can exceed the bar.  Returns one
    ``(best seconds, last value)`` pair per ``fn``, in order.
    """
    bests = [float("inf")] * len(fns)
    values: List[Any] = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            values[i] = fn()
            bests[i] = min(bests[i], time.perf_counter() - t0)
    return list(zip(bests, values))


def bar(failed: bool, message: str) -> bool:
    """Report one acceptance bar; returns ``failed`` for accumulation.

    Prints ``FAIL: <message>`` to stderr when the bar was missed so a
    script can ``sys.exit(1)`` after reporting every bar, not just the
    first.
    """
    if failed:
        print(f"FAIL: {message}", file=sys.stderr)
    return failed
