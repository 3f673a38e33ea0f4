"""Tier-1 gate: the shipped source tree must be lint-clean.

This is the PR's self-policing mechanism -- any rule violation that
lands in ``src/repro`` from now on fails the suite with the offending
file:line:rule rows in the assertion message.  The checked-in baseline
(``tools/lint_baseline.json``) is applied exactly as CI applies it, so
the gate here and the CI lint job agree on what "clean" means.
"""

from repro.lint.baseline import discover_baseline_path, load_baseline
from repro.lint.runner import default_lint_root, lint_paths


def _baselined_report():
    root = default_lint_root()
    baseline = load_baseline(discover_baseline_path(root))
    return lint_paths([root], baseline=baseline), baseline


def test_source_tree_is_lint_clean():
    report, _baseline = _baselined_report()
    # Sanity: the walk really covered the package, not an empty dir.
    assert report.files_checked > 40
    details = "\n".join(finding.render() for finding in report.findings)
    assert report.ok, f"lint findings in the source tree:\n{details}"


def test_no_baselined_high_severity_findings():
    """The baseline is for burning down medium/low debt only; a high-
    severity finding may never be baselined away."""
    root = default_lint_root()
    report = lint_paths([root], baseline=None)
    high = [f for f in report.findings if f.severity == "high"]
    details = "\n".join(f.render() for f in high)
    assert not high, f"high-severity findings (baselining not allowed):\n{details}"


def test_baseline_has_no_stale_entries():
    report, baseline = _baselined_report()
    assert report.stale_baseline == [], (
        "baseline entries match no current finding; remove them from "
        f"{baseline.path}: {report.stale_baseline}"
    )


def test_program_pass_ran_over_the_tree():
    report, _baseline = _baselined_report()
    stats = report.program_stats
    assert stats is not None
    assert stats["modules"] > 40
    assert stats["call_edges"] > 100
    assert stats["event_roots"] > 0, "no EventScheduler callbacks found"
    assert stats["event_reachable"] >= stats["event_roots"]
    assert stats["stream_sites"] > 5, "RngStreams substream sites not indexed"
