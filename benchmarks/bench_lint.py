"""Wall-clock benchmark for the whole-program lint analyzer.

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_lint.py

Times the three layers of ``python -m repro lint`` separately over the
shipped ``src/repro`` tree --

* ``index_build``   -- parse every module and build the
  :class:`~repro.lint.program.ProgramIndex` (symbol tables, import
  graph, call graph, event reachability, substream sites);
* ``full_analysis`` -- everything ``lint_paths`` does: per-file AST +
  flow rules, the program pass, suppression matching, fingerprinting,
  baseline split;
* ``render_json``   -- serializing the report (the CI artifact).

Measurements go to ``BENCH_lint.json`` at the repo root (same schema
family as ``BENCH_faults.json``; see ``benchmarks/README.md``).  The
acceptance bar is ``full_analysis`` < 10 s on the full tree, asserted
here (exit non-zero past the bar): the analyzer runs inside tier-1 and
on every CI push, so it must stay interactive-fast.
"""

from __future__ import annotations

import json
import sys

import harness

from repro.lint.baseline import discover_baseline_path, load_baseline
from repro.lint.program import build_program
from repro.lint.runner import default_lint_root, lint_paths, render_json

REPEATS = 3
ANALYSIS_BAR_S = 10.0
OUTPUT = "BENCH_lint.json"


def main() -> int:
    root = default_lint_root()
    baseline = load_baseline(discover_baseline_path(root))

    index_s, index = harness.best_of(lambda: build_program(root), repeats=REPEATS)
    analysis_s, report = harness.best_of(
        lambda: lint_paths([root], baseline=baseline), repeats=REPEATS
    )
    render_s, blob = harness.best_of(lambda: render_json(report), repeats=REPEATS)

    if not report.ok:
        raise AssertionError(
            "benchmark expects a lint-clean tree; fix findings first:\n"
            + "\n".join(f.render() for f in report.findings)
        )

    stats = index.stats()
    payload = {
        **harness.envelope(
            "whole-program lint analyzer (full src/repro tree)",
            "PYTHONPATH=src python benchmarks/bench_lint.py",
        ),
        "tree": {
            "files_checked": report.files_checked,
            "modules_indexed": stats["modules"],
            "functions": stats["functions"],
            "call_edges": stats["call_edges"],
            "import_edges": stats["import_edges"],
            "event_reachable": stats["event_reachable"],
            "stream_sites": stats["stream_sites"],
        },
        "timings_s": {
            "index_build": round(index_s, 4),
            "full_analysis": round(analysis_s, 4),
            "render_json": round(render_s, 4),
        },
        "throughput_files_per_s": round(report.files_checked / analysis_s),
        "report_bytes": len(blob),
        "analysis_bar_s": ANALYSIS_BAR_S,
        "repeats_best_of": REPEATS,
        "note": (
            "full_analysis is the complete lint_paths pipeline CI runs: "
            "per-file AST + flow-sensitive rules over every module, the "
            "whole-program pass (substream ownership, module-level state "
            "mutation, event-reachability), suppression matching, "
            "fingerprint assignment and the baseline split.  index_build "
            "isolates the parse + ProgramIndex construction that "
            "dominates it.  The 10 s bar keeps the analyzer cheap enough "
            "to sit inside tier-1 (tests/test_lint_clean.py) and run on "
            "every push."
        ),
    }
    path = harness.write_bench(OUTPUT, payload)

    print(json.dumps(payload["timings_s"], indent=2))
    print(f"files/s: {payload['throughput_files_per_s']}")
    print(f"wrote {path}")
    if harness.bar(
        analysis_s >= ANALYSIS_BAR_S,
        f"full analysis {analysis_s:.2f}s >= {ANALYSIS_BAR_S}s bar",
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
