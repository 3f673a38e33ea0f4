"""Wall-clock benchmark for the whole-program lint analyzer.

Not a pytest benchmark: run directly with

    PYTHONPATH=src python benchmarks/bench_lint.py

Times the three layers of ``python -m repro lint`` separately over the
shipped ``src/repro`` tree --

* ``index_build``   -- parse every module and build the
  :class:`~repro.lint.program.ProgramIndex` (symbol tables, import
  graph, call graph, event reachability, substream sites);
* ``full_analysis`` -- everything ``lint_paths`` does: per-file AST +
  flow rules, the program pass and suppression matching;
* ``render_json``   -- serializing the report (the CI artifact).

Measurements are printed to stdout; no file is written.  The
acceptance bar is ``full_analysis`` < 10 s on the full tree, asserted
here (exit non-zero past the bar): the analyzer runs inside tier-1 and
on every CI push, so it must stay interactive-fast.
"""

from __future__ import annotations

import sys

import harness

from repro.lint.program import build_program
from repro.lint.runner import default_lint_root, lint_paths, render_json

REPEATS = 3
ANALYSIS_BAR_S = 10.0


def main() -> int:
    root = default_lint_root()

    index_s, index = harness.best_of(lambda: build_program(root), repeats=REPEATS)
    analysis_s, report = harness.best_of(lambda: lint_paths([root]), repeats=REPEATS)
    render_s, blob = harness.best_of(lambda: render_json(report), repeats=REPEATS)

    if not report.ok:
        raise AssertionError(
            "benchmark expects a lint-clean tree; fix findings first:\n"
            + "\n".join(f.render() for f in report.findings)
        )

    stats = index.stats()
    print(
        f"tree: {report.files_checked} files, {stats['modules']} modules, "
        f"{stats['functions']} functions, {stats['call_edges']} call edges, "
        f"{stats['import_edges']} import edges, {stats['event_reachable']} "
        f"event-reachable, {stats['stream_sites']} stream sites"
    )
    print(f"index_build:   {index_s:.4f}s")
    print(f"full_analysis: {analysis_s:.4f}s (bar {ANALYSIS_BAR_S}s)")
    print(f"render_json:   {render_s:.4f}s ({len(blob)} bytes)")
    print(f"files/s: {round(report.files_checked / analysis_s)}")
    if harness.bar(
        analysis_s >= ANALYSIS_BAR_S,
        f"full analysis {analysis_s:.2f}s >= {ANALYSIS_BAR_S}s bar",
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
