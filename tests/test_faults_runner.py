"""End-to-end fault injection: crash-churn, failover, and determinism.

One fault-injected smoke run per protocol (module-scoped, reused across
assertions) plus the two determinism contracts: a zero FaultPlan leaves
the run byte-identical to a fault-free build, and a nonzero plan is
byte-identical across repeated executions.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import ExperimentSpec
from repro.experiments.trace_cache import shared_trace_cache
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.obs.timeseries import run_with_timeseries

PROTOCOLS = ("socialtube", "nettube", "pavod")

FAMILY_PLANS = {
    "community_crash": FaultPlan.community_crash_demo,
    "tracker_outage": FaultPlan.tracker_outage_demo,
    "partition": FaultPlan.partition_demo,
    "flash_crowd": FaultPlan.flash_crowd_demo,
}


def assert_recovery_unwound(runner):
    """Every recovery ledger is empty at run end: no watch, consumer
    link, pending crash or pending shed retry left dangling."""
    recovery = runner.recovery
    assert not recovery._watches
    assert not recovery._consumers
    assert not recovery._crash_events
    assert not recovery._shed_retries


def _chaos_spec(protocol, seed=77):
    return ExperimentSpec(
        protocol=protocol, config=SimulationConfig.smoke_scale(seed=seed)
    ).with_faults(FaultPlan.demo())


@pytest.fixture(scope="module", params=PROTOCOLS)
def chaos_run(request):
    """(runner, result) of one fault-injected smoke run per protocol."""
    spec = _chaos_spec(request.param)
    runner = ExperimentRunner(
        spec, dataset=shared_trace_cache.dataset_for(spec.config.trace)
    )
    return runner, runner.run()


class TestChaosRuns:
    def test_faults_actually_fire(self, chaos_run):
        _runner, result = chaos_run
        assert result.metrics.crashes > 0
        assert result.metrics.interrupted_transfers > 0

    def test_every_interruption_resolves(self, chaos_run):
        """Resume to a peer, fall over to the server, or die mid-failover
        (the consumer itself crashed) -- never a lost session."""
        runner, result = chaos_run
        metrics = result.metrics
        resolved = (
            metrics.failover_peer_resumes + metrics.failover_server_fallbacks
        )
        assert resolved > 0
        assert metrics.interrupted_transfers >= resolved
        assert_recovery_unwound(runner)

    def test_recovery_metrics_are_consistent(self, chaos_run):
        _runner, result = chaos_run
        metrics = result.metrics
        assert metrics.failover_latency_ms_mean > 0
        assert 0.0 <= metrics.degraded_serve_fraction <= 1.0
        assert metrics.retries_per_serve >= 0.0

    def test_overlay_survives_the_chaos(self, chaos_run):
        """After every crash and repair sweep the link tables must obey
        the invariants (pending repairs are tolerated by the checker)."""
        runner, _result = chaos_run
        structure = getattr(runner.protocol, "structure", None)
        if structure is None:
            pytest.skip("protocol has no hierarchical structure")
        structure.assert_invariants()


@pytest.fixture(scope="module", params=sorted(FAMILY_PLANS))
def family_run(request):
    """(family, runner, result) of one v2-family run on socialtube."""
    spec = ExperimentSpec(
        protocol="socialtube", config=SimulationConfig.smoke_scale(seed=2014)
    ).with_faults(FAMILY_PLANS[request.param]())
    runner = ExperimentRunner(
        spec, dataset=shared_trace_cache.dataset_for(spec.config.trace)
    )
    return request.param, runner, runner.run()


class TestInfraFamilies:
    """Each v2 family fires, degrades gracefully, and cleans up."""

    def test_family_fires_and_recovers(self, family_run):
        family, runner, result = family_run
        metrics = result.metrics
        if family == "community_crash":
            assert metrics.burst_crashes > 0
            assert metrics.crashes >= metrics.burst_crashes
        elif family == "tracker_outage":
            assert metrics.tracker_lookup_failures > 0
            assert metrics.reregistrations > 0
        elif family == "partition":
            assert metrics.healed_nodes > 0
        else:  # flash_crowd
            assert metrics.server_sheds > 0
            assert metrics.shed_retries > 0
        assert metrics.recovery_time_s > 0
        # Graceful degradation, not collapse: no dangling sessions.
        assert_recovery_unwound(runner)

    def test_fault_state_fully_unwound_after_run(self, family_run):
        """Every window must leave no residue once it closes."""
        _family, runner, _result = family_run
        assert runner.protocol.partition_guard is None
        assert runner.server.admission_limit == 0
        assert not runner.server.tracker_down

    def test_overlay_survives_the_burst(self, family_run):
        family, runner, _result = family_run
        if family != "community_crash":
            pytest.skip("invariant stress is the burst's job")
        structure = getattr(runner.protocol, "structure", None)
        if structure is None:
            pytest.skip("protocol has no hierarchical structure")
        structure.assert_invariants()

    def test_retry_budget_exhaustion_degrades_to_server(self):
        """With every lookup lost, each serve burns its whole retry
        budget and still completes -- via the server, never dropped."""
        plan = FaultPlan(query_loss_prob=1.0, retry=RetryPolicy(max_retries=1))
        spec = ExperimentSpec(
            protocol="socialtube", config=SimulationConfig.smoke_scale(seed=5)
        ).with_faults(plan)
        runner = ExperimentRunner(
            spec, dataset=shared_trace_cache.dataset_for(spec.config.trace)
        )
        metrics = runner.run().metrics
        assert metrics.retries_per_serve > 0
        # Every peer lookup exhausted its budget, so the server carried
        # essentially the whole catalogue.
        assert metrics.server_fallback_fraction > 0.5
        assert_recovery_unwound(runner)

    @pytest.mark.parametrize("seed", [11, 14, 19])
    def test_crash_during_shed_backoff_cancels_the_retry(self, seed):
        """A node that crashes while backing off from a flash-crowd shed
        must not resume that request chain after it rejoins."""
        plan = FaultPlan(
            crash_rate_per_hour=30.0,
            flash_crowd_at_s=100.0,
            flash_crowd_duration_s=3000.0,
            flash_crowd_admission_limit=1,
        )
        spec = ExperimentSpec(
            "socialtube", SimulationConfig.smoke_scale(seed=seed)
        ).with_faults(plan)
        runner = ExperimentRunner(
            spec, dataset=shared_trace_cache.dataset_for(spec.config.trace)
        )
        metrics = runner.run().metrics
        assert metrics.crashes > 0
        assert metrics.shed_retries > 0
        assert_recovery_unwound(runner)


class TestDeterminism:
    def test_zero_plan_is_byte_identical_to_no_plan(self):
        base = ExperimentSpec(
            protocol="socialtube", config=SimulationConfig.smoke_scale(seed=5)
        )
        zeroed = base.with_faults(FaultPlan())
        a = run_with_timeseries(base)
        b = run_with_timeseries(zeroed)
        assert a.jsonl == b.jsonl
        assert a.table.digest() == b.table.digest()
        assert a.result.render_rows() == b.result.render_rows()

    def test_fault_run_replays_byte_identically(self):
        spec = _chaos_spec("socialtube", seed=5)
        a = run_with_timeseries(spec)
        b = run_with_timeseries(spec)
        assert a.jsonl == b.jsonl
        assert a.table.to_canonical_json() == b.table.to_canonical_json()

    def test_infra_plan_replays_byte_identically(self):
        spec = ExperimentSpec(
            protocol="nettube", config=SimulationConfig.smoke_scale(seed=2014)
        ).with_faults(FaultPlan.infra_demo())
        a = run_with_timeseries(spec)
        b = run_with_timeseries(spec)
        assert a.jsonl == b.jsonl
        assert a.table.to_canonical_json() == b.table.to_canonical_json()
        # The infra fault columns exist and the families actually fired.
        window = a.table.windows[0]
        for column in (
            "burst_crashes",
            "infra_transitions",
            "lookup_failures",
            "reregistrations",
            "healed_nodes",
            "server_sheds",
        ):
            assert column in window
        assert sum(a.table.series("burst_crashes")) > 0
        assert sum(a.table.series("infra_transitions")) > 0
        assert sum(a.table.series("server_sheds")) > 0

    def test_fault_columns_only_on_fault_runs(self):
        base = ExperimentSpec(
            protocol="socialtube", config=SimulationConfig.smoke_scale(seed=5)
        )
        plain = run_with_timeseries(base)
        chaos = run_with_timeseries(base.with_faults(FaultPlan.demo()))
        assert "crashes" not in plain.table.windows[0]
        assert "crashes" in chaos.table.windows[0]
        assert sum(chaos.table.series("crashes")) > 0
