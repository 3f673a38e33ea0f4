"""Baseline mechanics: a checked-in baseline suppresses exactly its
fingerprints, stale entries are reported, fingerprints survive line
drift, and the JSON report is byte-deterministic."""

import json
import subprocess
import sys

import pytest

from repro.lint.ast_rules import RULE_DESCRIPTIONS
from repro.lint.baseline import (
    Baseline,
    discover_baseline_path,
    load_baseline,
    write_baseline,
)
from repro.lint.explain import explained_rule_ids
from repro.lint.fingerprint import compute_fingerprint
from repro.lint.runner import lint_paths, render_json
from repro.cli import main

DIRTY = "import random\nrandom.seed(0)\nx = random.random()\n"


@pytest.fixture()
def proj(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "mod.py").write_text(DIRTY)
    return root


class TestBaselineSplit:
    def test_baseline_suppresses_exactly_its_fingerprints(self, proj, tmp_path):
        report = lint_paths([str(proj)])
        assert [f.rule for f in report.findings] == ["global-random"] * 2
        first, second = report.findings
        assert first.fingerprint and second.fingerprint
        assert first.fingerprint != second.fingerprint

        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), [first])
        baseline = load_baseline(str(baseline_path))

        rebaselined = lint_paths([str(proj)], baseline=baseline)
        assert [f.fingerprint for f in rebaselined.findings] == [
            second.fingerprint
        ]
        assert rebaselined.baselined == 1
        assert rebaselined.stale_baseline == []

    def test_stale_entries_reported(self, proj):
        baseline = Baseline(
            path="<memory>",
            entries={"deadbeefdeadbeef": {"path": "gone.py", "rule": "x"}},
        )
        report = lint_paths([str(proj)], baseline=baseline)
        assert report.stale_baseline == ["deadbeefdeadbeef"]
        assert len(report.findings) == 2  # nothing suppressed

    def test_write_load_roundtrip(self, proj, tmp_path):
        report = lint_paths([str(proj)])
        path = tmp_path / "baseline.json"
        write_baseline(str(path), report.findings)
        loaded = load_baseline(str(path))
        assert sorted(loaded.entries) == sorted(
            f.fingerprint for f in report.findings
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1

    def test_missing_file_loads_empty(self, tmp_path):
        baseline = load_baseline(str(tmp_path / "nope.json"))
        assert baseline.entries == {}

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "fingerprints": {}}')
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_discovery_walks_up_to_tools_dir(self, tmp_path):
        (tmp_path / "tools").mkdir()
        expected = tmp_path / "tools" / "lint_baseline.json"
        expected.write_text('{"schema": 1, "fingerprints": {}}')
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        assert discover_baseline_path(str(nested)) == str(expected)


class TestFingerprintStability:
    def test_fingerprint_survives_line_drift(self, proj):
        before = {f.message: f.fingerprint for f in lint_paths([str(proj)]).findings}
        # Prepend a comment: every finding moves down one line.
        (proj / "mod.py").write_text("# a new leading comment\n" + DIRTY)
        after_report = lint_paths([str(proj)])
        after = {f.message: f.fingerprint for f in after_report.findings}
        assert before == after
        assert all(f.line > 2 for f in after_report.findings)

    def test_occurrence_index_disambiguates_duplicates(self):
        fp0 = compute_fingerprint("m.py", "r", "same message", 0)
        fp1 = compute_fingerprint("m.py", "r", "same message", 1)
        assert fp0 != fp1
        assert len(fp0) == len(fp1) == 16


class TestGoldenJsonDeterminism:
    def test_render_json_byte_identical_across_runs(self, proj):
        blob_a = render_json(lint_paths([str(proj)]))
        blob_b = render_json(lint_paths([str(proj)]))
        assert blob_a == blob_b

    def test_full_tree_json_byte_identical_across_processes(self):
        # The real gate: two fresh interpreters (fresh hash seeds) must
        # emit the identical report for the shipped tree.
        cmd = [sys.executable, "-m", "repro", "lint", "--json"]
        runs = [
            subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=False,
            )
            for seed in ("1", "2")
        ]
        assert runs[0].returncode == 0, runs[0].stdout + runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["schema"] == 2
        assert payload["ok"] is True

    def test_report_shape(self, proj):
        payload = json.loads(render_json(lint_paths([str(proj)])))
        assert set(payload) == {
            "schema",
            "ok",
            "files_checked",
            "suppressed",
            "baselined",
            "stale_baseline",
            "severity_counts",
            "program",
            "findings",
        }
        assert payload["severity_counts"]["high"] == 2
        assert [f["rule"] for f in payload["findings"]] == ["global-random"] * 2


class TestCliBaselineFlow:
    def test_update_baseline_then_clean_run(self, proj, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        code = main(
            [
                "lint",
                str(proj),
                "--baseline",
                str(baseline_path),
                "--update-baseline",
            ]
        )
        assert code == 0
        assert baseline_path.exists()
        capsys.readouterr()

        code = main(["lint", str(proj), "--baseline", str(baseline_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 baselined" in out

        code = main(["lint", str(proj), "--no-baseline"])
        assert code == 1

    def test_explain_known_and_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "global-state-mutation"]) == 0
        out = capsys.readouterr().out
        assert "global-state-mutation" in out
        assert "[high]" in out
        assert main(["lint", "--explain", "no-such-rule"]) == 2
        assert explained_rule_ids() == sorted(RULE_DESCRIPTIONS)
