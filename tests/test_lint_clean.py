"""Tier-1 gate: the shipped source tree must be lint-clean.

This is the repo's self-policing mechanism -- any rule violation that
lands in ``src/repro`` from now on fails the suite with the offending
file:line:rule rows in the assertion message.  It runs the same
analysis as the CI lint job, so both agree on what "clean" means:
every finding of every severity fails unless a per-line
``# lint: disable=<rule>`` comment accepts it.  The report is the
session's one full-tree analysis (``tests/conftest.py``).
"""


def test_source_tree_is_lint_clean(source_tree_lint_report):
    report = source_tree_lint_report
    # Sanity: the walk really covered the package, not an empty dir.
    assert report.files_checked > 40
    details = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"lint findings in the source tree:\n{details}"


def test_program_pass_ran_over_the_tree(source_tree_lint_report):
    stats = source_tree_lint_report.program_stats
    assert stats is not None
    assert stats["modules"] > 40
    assert stats["call_edges"] > 100
    assert stats["event_roots"] > 0, "no EventScheduler callbacks found"
    assert stats["event_reachable"] >= stats["event_roots"]
    assert stats["stream_sites"] > 5, "RngStreams substream sites not indexed"
