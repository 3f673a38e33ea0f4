"""Observability: deterministic tracing and profiling (`repro.obs`).

* :mod:`repro.obs.tracer` -- the span/event/counter/histogram API with
  sim-clock timestamps and a zero-cost :data:`NULL_TRACER` no-op mode.
* :mod:`repro.obs.export` -- canonical JSONL trace export keyed by
  ``ExperimentSpec.content_hash`` plus the profile summary behind
  ``python -m repro profile``.

Every timestamp here is simulated time; nothing in ``repro`` reads the
wall clock.  Wall time is measured from outside the package, by the
``perfbench/`` and ``benchmarks/`` harnesses.

This ``__init__`` deliberately re-exports only the leaf primitives:
:mod:`repro.obs.export` pulls in the experiment runner, and the
substrates (``sim.engine`` et al.) import the tracer, so importing the
report layers here would create a cycle.  Import them explicitly::

    from repro.obs import Tracer, NULL_TRACER
    from repro.obs.export import run_profiled
"""

from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    SpanHandle,
    Tracer,
)

__all__ = [
    "NULL_TRACER",
    "TRACE_SCHEMA_VERSION",
    "NullTracer",
    "SpanHandle",
    "Tracer",
]
