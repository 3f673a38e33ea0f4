"""The lint report: its JSON is byte-deterministic across runs and
interpreters, carries a fixed key set, and ``--explain`` covers every
rule id."""

import json
import os
import subprocess
import sys

import pytest

from repro.lint.ast_rules import RULE_DESCRIPTIONS
from repro.lint.explain import explained_rule_ids
from repro.lint.runner import default_lint_root, lint_paths, render_json
from repro.cli import main

DIRTY = "import random\nrandom.seed(0)\nx = random.random()\n"


@pytest.fixture()
def proj(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "mod.py").write_text(DIRTY)
    return root


class TestGoldenJsonDeterminism:
    def test_render_json_byte_identical_across_runs(self, proj):
        blob_a = render_json(lint_paths([str(proj)]))
        blob_b = render_json(lint_paths([str(proj)]))
        assert blob_a == blob_b

    def test_full_tree_json_byte_identical_across_processes(
        self, source_tree_lint_report
    ):
        # The real gate: a fresh interpreter under a different hash
        # seed must emit the identical report for the shipped tree.
        own_seed = os.environ.get("PYTHONHASHSEED", "random")
        other_seed = "2" if own_seed == "1" else "1"
        run = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--json"],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": os.path.dirname(default_lint_root()),
                "PYTHONHASHSEED": other_seed,
                "PATH": "/usr/bin:/bin",
            },
            check=False,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert run.stdout == render_json(source_tree_lint_report) + "\n"
        payload = json.loads(run.stdout)
        assert payload["schema"] == 3
        assert payload["ok"] is True

    def test_report_shape(self, proj):
        payload = json.loads(render_json(lint_paths([str(proj)])))
        assert set(payload) == {
            "schema",
            "ok",
            "files_checked",
            "suppressed",
            "severity_counts",
            "program",
            "findings",
        }
        assert payload["severity_counts"]["high"] == 2
        assert [f["rule"] for f in payload["findings"]] == ["global-random"] * 2


def test_explain_known_and_unknown_rule(capsys):
    assert main(["lint", "--explain", "global-state-mutation"]) == 0
    out = capsys.readouterr().out
    assert "global-state-mutation" in out
    assert "[high]" in out
    assert main(["lint", "--explain", "no-such-rule"]) == 2
    assert explained_rule_ids() == sorted(RULE_DESCRIPTIONS)
