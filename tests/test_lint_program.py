"""Whole-program index tests: symbol table, import graph, call graph,
event reachability, and the program-level rules on a fixture package."""

import textwrap

import pytest

from repro.lint.dataflow import collect_program_findings
from repro.lint.program import build_program
from repro.lint.runner import lint_paths


def write(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


@pytest.fixture()
def fixture_pkg(tmp_path):
    root = tmp_path / "pkg"
    write(root, "__init__.py", "")
    write(root, "sim/__init__.py", "")
    write(
        root,
        "sim/engine.py",
        '''\
        """Fixture scheduler."""


        class EventScheduler:
            def __init__(self):
                self.now = 0.0

            def schedule(self, delay, fn, *args):
                fn(*args)
        ''',
    )
    write(root, "overlay/__init__.py", "")
    write(
        root,
        "overlay/proto.py",
        '''\
        """Fixture protocol."""

        from pkg.sim.engine import EventScheduler

        CACHE = {}


        def helper(x):
            CACHE[x] = 1


        def handler(x):
            helper(x)


        def run(sched):
            sched.schedule(1.0, handler, 3)


        def seed_streams(streams):
            probe = streams.stream("overlay.probe")
            return probe
        ''',
    )
    return root


class TestProgramIndex:
    def test_symbol_table(self, fixture_pkg):
        index = build_program(str(fixture_pkg))
        assert set(index.modules) == {
            "pkg",
            "pkg.sim",
            "pkg.sim.engine",
            "pkg.overlay",
            "pkg.overlay.proto",
        }
        proto = index.modules["pkg.overlay.proto"]
        assert set(proto.functions) == {"helper", "handler", "run", "seed_streams"}
        assert proto.module_globals["CACHE"].kind == "mutable"
        engine = index.modules["pkg.sim.engine"]
        assert set(engine.classes) == {"EventScheduler"}
        assert set(engine.classes["EventScheduler"].methods) == {
            "__init__",
            "schedule",
        }

    def test_import_graph(self, fixture_pkg):
        index = build_program(str(fixture_pkg))
        graph = index.import_graph()
        assert graph["pkg.overlay.proto"] == ("pkg.sim.engine",)
        assert graph["pkg.sim.engine"] == ()

    def test_call_graph_and_event_reachability(self, fixture_pkg):
        index = build_program(str(fixture_pkg))
        assert index.call_graph["pkg.overlay.proto:handler"] == (
            "pkg.overlay.proto:helper",
        )
        # handler is registered via sched.schedule(delay, handler, ...)
        assert "pkg.overlay.proto:handler" in index.event_roots
        # ... and its transitive callee is event-reachable.
        assert "pkg.overlay.proto:helper" in index.event_reachable

    def test_stream_sites(self, fixture_pkg):
        index = build_program(str(fixture_pkg))
        sites = index.all_stream_sites()
        assert [(s.name, s.qualname, s.method) for s in sites] == [
            ("overlay.probe", "pkg.overlay.proto:seed_streams", "stream")
        ]

    def test_index_is_deterministic(self, fixture_pkg):
        first = build_program(str(fixture_pkg))
        second = build_program(str(fixture_pkg))
        assert first.stats() == second.stats()
        assert first.call_graph == second.call_graph
        assert first.event_roots == second.event_roots
        assert first.import_graph() == second.import_graph()

    def test_syntax_error_files_are_skipped(self, fixture_pkg):
        write(fixture_pkg, "overlay/broken.py", "def f(:\n")
        index = build_program(str(fixture_pkg))
        assert "pkg.overlay.broken" not in index.modules
        assert "pkg.overlay.proto" in index.modules


def state_findings(root):
    return [
        f
        for f in collect_program_findings(build_program(str(root)))
        if f.rule == "global-state-mutation"
    ]


class TestGlobalStateMutation:
    def test_event_reachable_mutation_flagged(self, fixture_pkg):
        [finding] = state_findings(fixture_pkg)
        assert "pkg.overlay.proto.CACHE" in finding.message
        assert "EventScheduler callback" in finding.message
        assert finding.severity == "high"

    def test_mutation_outside_event_code_allowed(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(root, "sim/__init__.py", "")
        write(
            root,
            "sim/setup.py",
            """\
            CACHE = {}


            def warm(key):
                CACHE[key] = 1
            """,
        )
        assert state_findings(root) == []

    def test_foreign_module_mutation_flagged(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(root, "sim/__init__.py", "")
        write(root, "sim/state.py", "TABLE = {}\n")
        write(
            root,
            "sim/other.py",
            """\
            from pkg.sim.state import TABLE


            def poke():
                TABLE["x"] = 1
            """,
        )
        [finding] = state_findings(root)
        assert finding.path.endswith("other.py")
        assert "pkg.sim.state.TABLE" in finding.message
        assert "outside its defining module" in finding.message

    def test_global_rebinding_of_constant_flagged(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "limits.py",
            """\
            LIMITS = (1, 2)


            def bump():
                global LIMITS
                LIMITS = (2, 3)
            """,
        )
        [finding] = state_findings(root)
        assert "pkg.limits.LIMITS" in finding.message
        assert "rebinding" in finding.message


class TestRngProgramRules:
    def test_substream_aliasing_flagged(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "phases.py",
            """\
            def phase_a(streams):
                return streams.stream("arrivals")


            def phase_b(streams):
                return streams.stream("arrivals")
            """,
        )
        index = build_program(str(root))
        findings = [
            f
            for f in collect_program_findings(index)
            if f.rule == "rng-substream-aliasing"
        ]
        assert len(findings) == 2  # one per aliasing site
        assert "arrivals" in findings[0].message

    def test_single_site_substream_allowed(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "phases.py",
            """\
            def phase_a(streams):
                return streams.stream("arrivals")


            def phase_b(streams):
                return streams.stream("departures")
            """,
        )
        index = build_program(str(root))
        rules = {f.rule for f in collect_program_findings(index)}
        assert "rng-substream-aliasing" not in rules

    def test_faults_namespace_ownership(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(root, "faults/__init__.py", "")
        write(
            root,
            "faults/inject.py",
            """\
            def streams_for(streams):
                return streams.stream("overlay.crash")
            """,
        )
        write(
            root,
            "workload.py",
            """\
            def arrivals(streams):
                return streams.stream("faults.sneaky")
            """,
        )
        index = build_program(str(root))
        findings = [
            f
            for f in collect_program_findings(index)
            if f.rule == "rng-foreign-substream"
        ]
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "overlay.crash" in messages  # faults module w/o faults. prefix
        assert "faults.sneaky" in messages  # foreign module using faults.*

    def test_obs_modules_must_not_own_substreams(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(root, "obs/__init__.py", "")
        write(
            root,
            "obs/tracer.py",
            """\
            def attach(streams):
                return streams.stream("obs.sampling")
            """,
        )
        index = build_program(str(root))
        findings = [
            f
            for f in collect_program_findings(index)
            if f.rule == "rng-foreign-substream"
        ]
        assert len(findings) == 1
        assert "observability" in findings[0].message


class TestRunnerIntegration:
    def test_lint_paths_includes_program_findings(self, fixture_pkg):
        report = lint_paths([str(fixture_pkg)])
        rules = {f.rule for f in report.findings}
        assert "global-state-mutation" in rules
        assert report.program_stats is not None
        assert report.program_stats["modules"] == 5

    def test_program_finding_suppressible_per_line(self, tmp_path):
        root = tmp_path / "pkg"
        write(root, "__init__.py", "")
        write(
            root,
            "phases.py",
            """\
            def phase_a(streams):
                return streams.stream("arrivals")  # lint: disable=rng-substream-aliasing


            def phase_b(streams):
                return streams.stream("arrivals")  # lint: disable=rng-substream-aliasing
            """,
        )
        report = lint_paths([str(root)])
        assert "rng-substream-aliasing" not in {f.rule for f in report.findings}
        assert report.suppressed == 2
