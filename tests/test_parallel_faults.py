"""The fault-tolerant parallel tier: every failure mode must recover.

Parallel construction is bit-identical to serial by contract, which makes
every worker failure perfectly recoverable: the affected task can simply be
recomputed, first by retrying on the pool, finally inline on the main
process (degrade-to-serial).  These tests drive the injector matrix of
:mod:`repro.guard.faults` (crash, hang-past-timeout, corrupt result,
crash-on-pickle, exit-mid-task, broken pool) through every pool consumer
(routing shards, DP subtrees, the DSE sweep, the benchmark flow cache)
under every policy (retry, degrade, strict) and assert:

* recovery is byte-identical to an all-serial run,
* :class:`~repro.parallel.ParallelDiagnostic` rows record stage, task,
  attempt count, and cause,
* ``strict`` raises a typed :class:`~repro.parallel.ParallelError` instead
  of degrading.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow.config import CtsConfig
from repro.guard.faults import (
    WORKER_FAULTS_ENV_VAR,
    WorkerFault,
    arm_worker_faults,
    parse_worker_faults,
)
from repro.insertion.concurrent import InsertionConfig
from repro.insertion.dp_tree import build_dp_tree
from repro.insertion.frontier import VectorizedInsertionDp
from repro.parallel import (
    PARALLEL_POLICY_ENV_VAR,
    WORKERS_ENV_VAR,
    ParallelDiagnostic,
    ParallelError,
    ParallelPolicy,
    resolve_parallel_policy,
    resolve_workers,
    run_tasks,
    shared_pool,
    shutdown_pool,
)
from repro.routing.hierarchical import HierarchicalClockRouter
from repro.tech.pdk import asap7_backside
from tests.conftest import make_random_clock_net
from tests.harness import clock_tree_fingerprint, run_flow
from tests.test_parallel_construction import FRONTIER_FIELDS, assert_designs_bit_equal

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

RETRY = ParallelPolicy(attempts=2, backoff_s=0.0)
DEGRADE = ParallelPolicy(attempts=2, backoff_s=0.0)
STRICT = ParallelPolicy(attempts=2, backoff_s=0.0, mode="strict")


@pytest.fixture(autouse=True)
def _clean_parallel_env(monkeypatch):
    """Isolate from the CI fault/policy env vars (the faults matrix job)."""
    monkeypatch.delenv(WORKER_FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(PARALLEL_POLICY_ENV_VAR, raising=False)


@pytest.fixture(scope="module")
def pdk():
    return asap7_backside()


@pytest.fixture(scope="module")
def multi_region_net():
    return make_random_clock_net(count=140, extent=320.0, seed=3)


def _route(pdk, clock_net, workers, policy=None):
    config = CtsConfig(
        high_cluster_size=40,
        low_cluster_size=6,
        seed=7,
        workers=workers,
        parallel_policy=policy,
    )
    return HierarchicalClockRouter(pdk, config=config).route_design(clock_net)


@pytest.fixture(scope="module")
def serial_routing(pdk, multi_region_net):
    return _route(pdk, multi_region_net, 1)


# Module-level so pool workers can resolve them by reference.
def _double(payload):
    return payload * 2


def _serial_marker(payload):
    return ("inline", payload)


def _reject_everything(result, payload):
    raise RuntimeError("injected validate failure")


# ---------------------------------------------------------------- the policy
class TestParallelPolicy:
    def test_defaults(self):
        policy = ParallelPolicy()
        assert policy.attempts == 2
        assert policy.timeout_s is None
        assert policy.mode == "degrade"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"attempts": True},
            {"attempts": 1.5},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"backoff_s": -0.1},
            {"backoff_factor": 0.5},
            {"mode": "bogus"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ParallelPolicy(**kwargs)

    def test_parse_full_spec(self):
        policy = ParallelPolicy.parse(
            "attempts=3, timeout_s=10, backoff_s=0.1, backoff_factor=3, mode=strict"
        )
        assert policy == ParallelPolicy(
            attempts=3, timeout_s=10.0, backoff_s=0.1, backoff_factor=3.0, mode="strict"
        )

    def test_parse_bare_mode_and_none_timeout(self):
        assert ParallelPolicy.parse("strict").mode == "strict"
        assert ParallelPolicy.parse("degrade").mode == "degrade"
        assert ParallelPolicy.parse("timeout_s=none").timeout_s is None

    @pytest.mark.parametrize("spec", ["bogus", "attempts", "retries=3", "attempts=x"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            ParallelPolicy.parse(spec)

    def test_with_updates(self):
        assert ParallelPolicy().with_updates(mode="strict").mode == "strict"
        with pytest.raises(ValueError):
            ParallelPolicy().with_updates(attempts=0)

    def test_resolution_precedence(self, monkeypatch):
        assert resolve_parallel_policy() == ParallelPolicy()
        monkeypatch.setenv(PARALLEL_POLICY_ENV_VAR, "attempts=4,mode=strict")
        assert resolve_parallel_policy().attempts == 4
        explicit = ParallelPolicy(attempts=7)
        assert resolve_parallel_policy(explicit) is explicit
        assert resolve_parallel_policy("attempts=9").attempts == 9
        monkeypatch.setenv(PARALLEL_POLICY_ENV_VAR, "")
        assert resolve_parallel_policy() == ParallelPolicy(), "empty means unset"

    def test_config_resolved_parallel_policy(self, monkeypatch):
        assert CtsConfig().resolved_parallel_policy() == ParallelPolicy()
        monkeypatch.setenv(PARALLEL_POLICY_ENV_VAR, "strict")
        assert CtsConfig().resolved_parallel_policy().mode == "strict"
        explicit = CtsConfig(parallel_policy=ParallelPolicy(attempts=5))
        assert explicit.resolved_parallel_policy().attempts == 5
        assert explicit.resolved_parallel_policy().mode == "degrade"
        spec = CtsConfig(parallel_policy="attempts=6")
        assert spec.resolved_parallel_policy().attempts == 6


# ------------------------------------------------------------- workers knob
class TestResolveWorkersRejections:
    @pytest.mark.parametrize("value", [0, -1, -8])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="at least 1"):
            resolve_workers(value)

    @pytest.mark.parametrize("value", [2.5, 2.0, "4", True, False])
    def test_rejects_non_integers(self, value):
        # Floats were previously silently truncated and bools silently
        # coerced; both are caller bugs and must be loud.
        with pytest.raises(ValueError, match="at least 1"):
            resolve_workers(value)

    def test_rejects_unparsable_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "two")
        with pytest.raises(ValueError, match="at least 1"):
            resolve_workers(None)
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError, match="at least 1"):
            resolve_workers(None)


# ------------------------------------------------------------ pool lifecycle
class TestSharedPoolLifecycle:
    def test_pool_recreatable_after_shutdown(self):
        # The pre-fix code registered its atexit hook once at import, so a
        # pool created after an earlier teardown leaked at interpreter
        # exit; re-creation must now be first-class.
        pool = shared_pool(2)
        shutdown_pool()
        recreated = shared_pool(2)
        assert recreated is not pool
        assert recreated.submit(_double, 21).result() == 42
        shutdown_pool()

    def test_run_tasks_after_shutdown(self):
        shutdown_pool()
        assert run_tasks("teststage", _double, [1, 2, 3], 2, policy=RETRY) == [2, 4, 6]

    def test_shutdown_idempotent(self):
        shutdown_pool()
        shutdown_pool()


# ------------------------------------------------------- run_tasks mechanics
class TestRunTasks:
    def test_empty_and_serial_paths(self):
        assert run_tasks("teststage", _double, [], 8) == []
        # workers=1 is exactly the serial flow: no pool, no injected faults.
        with arm_worker_faults(WorkerFault(stage="teststage", fail_attempts=99)):
            sink: list = []
            assert run_tasks(
                "teststage", _double, [1, 2], 1, diagnostics=sink
            ) == [2, 4]
            assert sink == []

    def test_healthy_parallel_run_records_nothing(self):
        sink: list = []
        results = run_tasks(
            "teststage", _double, list(range(6)), 3, policy=RETRY, diagnostics=sink
        )
        assert results == [0, 2, 4, 6, 8, 10]
        assert sink == []

    @pytest.mark.parametrize("kind", ["crash", "unpicklable", "exit", "broken_pool"])
    def test_retry_recovers_each_kind(self, kind):
        sink: list = []
        fault = WorkerFault(stage="teststage", kind=kind, fail_attempts=1)
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage",
                _double,
                [1, 2, 3],
                2,
                policy=RETRY,
                diagnostics=sink,
            )
        assert results == [2, 4, 6]
        assert sink, f"{kind} recovery must be recorded"
        for diag in sink:
            assert diag.stage == "teststage"
            assert diag.action == "retried"
            assert diag.attempts == 2
            assert diag.cause

    def test_retry_recovers_hang_past_timeout(self):
        sink: list = []
        # timeout_s covers queue wait + worker spin-up, and the retry lands
        # on a freshly respawned pool whose forkserver workers import numpy
        # and repro from scratch — so the timeout must be generous enough
        # for a cold worker while the hang stays far above it.
        policy = ParallelPolicy(attempts=2, timeout_s=8.0, backoff_s=0.0)
        fault = WorkerFault(
            stage="teststage", kind="hang", fail_attempts=1, hang_s=25.0
        )
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage", _double, [1, 2], 2, policy=policy, diagnostics=sink
            )
        assert results == [2, 4]
        assert [d.action for d in sink] == ["retried", "retried"]
        assert all("TimeoutError" in d.cause for d in sink)

    @pytest.mark.parametrize("kind", ["crash", "unpicklable", "exit", "broken_pool"])
    def test_degrade_to_serial_each_kind(self, kind):
        sink: list = []
        fault = WorkerFault(stage="teststage", kind=kind, fail_attempts=99)
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage",
                _double,
                [1, 2, 3],
                2,
                policy=DEGRADE,
                diagnostics=sink,
            )
        assert results == [2, 4, 6]
        assert len(sink) == 3
        for i, diag in enumerate(sink):
            assert diag.stage == "teststage"
            assert diag.task == f"task {i}"
            assert diag.action == "degraded-to-serial"
            assert diag.attempts == 2
            assert diag.cause

    def test_degrade_hang_uses_inline_fallback(self):
        sink: list = []
        policy = ParallelPolicy(attempts=1, timeout_s=0.4, backoff_s=0.0)
        fault = WorkerFault(
            stage="teststage", kind="hang", fail_attempts=99, hang_s=2.0
        )
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage", _double, [5, 6], 2, policy=policy, diagnostics=sink
            )
        assert results == [10, 12]
        assert [d.action for d in sink] == ["degraded-to-serial"] * 2

    def test_strict_raises_parallel_error(self):
        fault = WorkerFault(stage="teststage", kind="crash", fail_attempts=99)
        with arm_worker_faults(fault):
            with pytest.raises(ParallelError, match="after 2 attempt"):
                run_tasks("teststage", _double, [1, 2, 3], 2, policy=STRICT)
        # A single payload runs inline (no pool), so the fault never fires.
        with arm_worker_faults(fault):
            assert run_tasks("teststage", _double, [1], 2, policy=STRICT) == [2]
        with arm_worker_faults(fault):
            with pytest.raises(ParallelError) as excinfo:
                run_tasks("teststage", _double, [1, 2], 2, policy=STRICT)
        assert excinfo.value.stage == "teststage"
        assert excinfo.value.task == "task 0"
        assert excinfo.value.attempts == 2
        assert "injected worker crash" in excinfo.value.cause

    def test_task_index_targets_one_task(self):
        sink: list = []
        fault = WorkerFault(
            stage="teststage", kind="crash", fail_attempts=99, task_index=1
        )
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage",
                _double,
                [1, 2, 3],
                2,
                policy=DEGRADE,
                diagnostics=sink,
                label=lambda i, payload: f"item {payload}",
            )
        assert results == [2, 4, 6]
        assert [d.task for d in sink] == ["item 2"]

    def test_degrade_uses_serial_fn(self):
        fault = WorkerFault(stage="teststage", kind="crash", fail_attempts=99)
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage",
                _double,
                [7],
                2,
                policy=DEGRADE,
                serial_fn=_serial_marker,
            )
        # Single payload -> inline; with two the pool path degrades.
        assert results == [("inline", 7)]
        with arm_worker_faults(fault):
            results = run_tasks(
                "teststage",
                _double,
                [7, 8],
                2,
                policy=DEGRADE,
                serial_fn=_serial_marker,
            )
        assert results == [("inline", 7), ("inline", 8)]

    def test_validate_failure_counts_as_attempt(self):
        # A validate rejection on every pool result and every serial
        # recomputation leaves nothing to fall back to: ParallelError even
        # under degrade.
        with pytest.raises(ParallelError, match="serial recomputation"):
            run_tasks(
                "teststage",
                _double,
                [1, 2],
                2,
                policy=DEGRADE,
                validate=_reject_everything,
            )

    def test_faults_of_other_stages_do_not_fire(self):
        sink: list = []
        with arm_worker_faults(WorkerFault(stage="routing", fail_attempts=99)):
            results = run_tasks(
                "teststage", _double, [1, 2], 2, policy=RETRY, diagnostics=sink
            )
        assert results == [2, 4]
        assert sink == []


# --------------------------------------------------------------- worker faults
class TestWorkerFaultSpec:
    def test_rejects_bad_kind_and_attempts(self):
        with pytest.raises(ValueError, match="unknown worker-fault kind"):
            WorkerFault(kind="meltdown")
        with pytest.raises(ValueError, match="fail_attempts"):
            WorkerFault(fail_attempts=0)

    def test_parse_specs(self):
        faults = parse_worker_faults("*:crash:1, routing:corrupt:99:2")
        assert faults[0] == WorkerFault(stage="*", kind="crash", fail_attempts=1)
        assert faults[1] == WorkerFault(
            stage="routing", kind="corrupt", fail_attempts=99, task_index=2
        )
        assert parse_worker_faults("a:hang;b:exit") == (
            WorkerFault(stage="a", kind="hang"),
            WorkerFault(stage="b", kind="exit"),
        )
        assert parse_worker_faults("") == ()

    @pytest.mark.parametrize("spec", ["crash", "a:b:c:d:e", "a:crash:x"])
    def test_parse_rejects_bad_entries(self, spec):
        with pytest.raises(ValueError):
            parse_worker_faults(spec)

    def test_fires_matrix(self):
        fault = WorkerFault(stage="routing", kind="crash", fail_attempts=2)
        assert fault.fires("routing", 0, 1)
        assert fault.fires("routing", 5, 2)
        assert not fault.fires("routing", 0, 3)
        assert not fault.fires("insertion", 0, 1)
        anywhere = WorkerFault(stage="*", kind="crash", task_index=3)
        assert anywhere.fires("dse", 3, 1)
        assert not anywhere.fires("dse", 2, 1)


# ------------------------------------------------------------ routing shards
class TestRoutingFaults:
    @pytest.mark.parametrize("kind", ["crash", "corrupt", "unpicklable", "exit"])
    def test_retry_bit_identical(self, pdk, multi_region_net, serial_routing, kind):
        diagnostics_seen: list = []
        fault = WorkerFault(stage="routing", kind=kind, fail_attempts=1)
        with arm_worker_faults(fault):
            routed = _route(pdk, multi_region_net, 4, policy=RETRY)
        assert_designs_bit_equal(serial_routing.design, routed.design)
        assert routed.parallel_tasks >= 2
        diagnostics_seen = routed.parallel_diagnostics
        assert diagnostics_seen
        for diag in diagnostics_seen:
            assert diag.stage == "routing"
            assert diag.task.startswith("region ")
            assert diag.action == "retried"
            assert diag.attempts == 2

    @pytest.mark.parametrize("kind", ["crash", "corrupt"])
    def test_degrade_bit_identical(self, pdk, multi_region_net, serial_routing, kind):
        fault = WorkerFault(stage="routing", kind=kind, fail_attempts=99)
        with arm_worker_faults(fault):
            routed = _route(pdk, multi_region_net, 4, policy=DEGRADE)
        assert_designs_bit_equal(serial_routing.design, routed.design)
        assert routed.tap_names == serial_routing.tap_names
        assert routed.trunk_wirelength == serial_routing.trunk_wirelength
        assert routed.parallel_diagnostics
        for diag in routed.parallel_diagnostics:
            assert diag.action == "degraded-to-serial"
            assert diag.attempts == 2
            assert diag.cause

    def test_hang_recovers_bit_identical(self, pdk, multi_region_net, serial_routing):
        policy = ParallelPolicy(attempts=2, timeout_s=0.75, backoff_s=0.0)
        fault = WorkerFault(
            stage="routing", kind="hang", fail_attempts=1, hang_s=2.5
        )
        with arm_worker_faults(fault):
            routed = _route(pdk, multi_region_net, 4, policy=policy)
        assert_designs_bit_equal(serial_routing.design, routed.design)
        assert all(
            "TimeoutError" in d.cause for d in routed.parallel_diagnostics
        )

    def test_strict_raises(self, pdk, multi_region_net):
        fault = WorkerFault(stage="routing", kind="crash", fail_attempts=99)
        with arm_worker_faults(fault):
            with pytest.raises(ParallelError) as excinfo:
                _route(pdk, multi_region_net, 4, policy=STRICT)
        assert excinfo.value.stage == "routing"
        assert excinfo.value.task.startswith("region ")
        assert "injected worker crash" in excinfo.value.cause

    def test_corrupt_serial_run_unaffected(self, pdk, multi_region_net, serial_routing):
        # workers=1 never goes near the pool, so armed faults must not fire.
        fault = WorkerFault(stage="routing", kind="crash", fail_attempts=99)
        with arm_worker_faults(fault):
            routed = _route(pdk, multi_region_net, 1)
        assert_designs_bit_equal(serial_routing.design, routed.design)
        assert routed.parallel_diagnostics == []


# -------------------------------------------------------------- DP subtrees
class TestInsertionFaults:
    @pytest.fixture(scope="class")
    def dp_setup(self, pdk):
        clock_net = make_random_clock_net(count=300, extent=600.0, seed=5)
        routed = _route(pdk, clock_net, 1)
        dp_tree = build_dp_tree(routed.design, pdk)
        serial_dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
        serial_frontiers, serial_root = serial_dp.run(dp_tree)
        return dp_tree, serial_frontiers, serial_root

    def _assert_frontiers_equal(self, a_frontiers, a_root, b_frontiers, b_root):
        assert set(a_frontiers) == set(b_frontiers)
        for index in a_frontiers:
            for name in FRONTIER_FIELDS:
                assert np.array_equal(
                    getattr(a_frontiers[index], name),
                    getattr(b_frontiers[index], name),
                ), (index, name)
        for name in FRONTIER_FIELDS:
            assert np.array_equal(getattr(a_root, name), getattr(b_root, name)), name

    @pytest.mark.parametrize(
        "kind,fail_attempts,action",
        [
            ("crash", 1, "retried"),
            ("corrupt", 1, "retried"),
            ("corrupt", 99, "degraded-to-serial"),
        ],
    )
    def test_faults_recover_bit_identical(self, pdk, dp_setup, kind, fail_attempts, action):
        dp_tree, serial_frontiers, serial_root = dp_setup
        dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
        fault = WorkerFault(
            stage="insertion", kind=kind, fail_attempts=fail_attempts
        )
        with arm_worker_faults(fault):
            frontiers, root = dp.run(dp_tree, workers=4, parallel_policy=DEGRADE)
        self._assert_frontiers_equal(
            serial_frontiers, serial_root, frontiers, root
        )
        assert dp.parallel_tasks >= 2
        assert dp.parallel_diagnostics
        for diag in dp.parallel_diagnostics:
            assert diag.stage == "insertion"
            assert diag.task.startswith("subtree ")
            assert diag.action == action

    def test_strict_raises(self, pdk, dp_setup):
        dp_tree, _, _ = dp_setup
        dp = VectorizedInsertionDp(pdk, InsertionConfig(), [pdk])
        fault = WorkerFault(stage="insertion", kind="crash", fail_attempts=99)
        with arm_worker_faults(fault):
            with pytest.raises(ParallelError) as excinfo:
                dp.run(dp_tree, workers=4, parallel_policy=STRICT)
        assert excinfo.value.stage == "insertion"


# --------------------------------------------------------------- environment
class TestEnvArmedFaults:
    def test_env_spec_recovers_routing(
        self, pdk, multi_region_net, serial_routing, monkeypatch
    ):
        # The CI faults matrix job sets exactly this: every first pool
        # attempt crashes, the default policy's retry recovers everything.
        monkeypatch.setenv(WORKER_FAULTS_ENV_VAR, "*:crash:1")
        routed = _route(pdk, multi_region_net, 4)
        assert_designs_bit_equal(serial_routing.design, routed.design)
        assert routed.parallel_diagnostics
        assert all(d.action == "retried" for d in routed.parallel_diagnostics)

    def test_env_policy_spec_applies(self, pdk, multi_region_net, monkeypatch):
        monkeypatch.setenv(WORKER_FAULTS_ENV_VAR, "routing:crash:99")
        monkeypatch.setenv(PARALLEL_POLICY_ENV_VAR, "attempts=1,mode=strict")
        with pytest.raises(ParallelError, match="after 1 attempt"):
            _route(pdk, multi_region_net, 4)


# ----------------------------------------------------------------- the flow
class TestFlowResult:
    def test_flow_collects_parallel_diagnostics(self, pdk, multi_region_net):
        combo = {"dme": "vectorized", "dp": "vectorized", "timing": "vectorized"}
        serial = run_flow(pdk, multi_region_net, combo, workers=1)
        assert serial.parallel_tasks == 0
        fault = WorkerFault(stage="*", kind="crash", fail_attempts=1)
        with arm_worker_faults(fault):
            faulted = run_flow(
                pdk,
                multi_region_net,
                combo,
                workers=2,
                parallel_policy=RETRY,
            )
        assert clock_tree_fingerprint(serial.tree) == clock_tree_fingerprint(
            faulted.tree
        )
        assert faulted.parallel_tasks >= 2
        assert faulted.parallel_retried >= 1
        assert faulted.parallel_degraded == 0
        assert faulted.parallel_summary() == (
            f"parallel: {faulted.parallel_tasks} tasks, "
            f"{faulted.parallel_retried} retried, 0 degraded-to-serial"
        )

    def test_summary_counts(self):
        from repro.flow.cts import CtsRunResult

        result = CtsRunResult(
            design_name="d",
            flow_name="ours",
            routing=None,
            insertion=None,
            skew_report=None,
            metrics=None,
            runtime=0.0,
            parallel_tasks=5,
            parallel_diagnostics=[
                ParallelDiagnostic("routing", "region 1", 2, "retried", "X"),
                ParallelDiagnostic(
                    "insertion", "subtree 0", 2, "degraded-to-serial", "Y"
                ),
                ParallelDiagnostic("routing", "region 2", 3, "retried", "Z"),
            ],
        )
        assert result.parallel_retried == 2
        assert result.parallel_degraded == 1
        assert result.parallel_summary() == (
            "parallel: 5 tasks, 2 retried, 1 degraded-to-serial"
        )


# -------------------------------------------------------------------- DSE
class TestDseFaults:
    @pytest.fixture(scope="class")
    def dse_setup(self, pdk):
        from repro.dse import DesignSpaceExplorer

        clock_net = make_random_clock_net(count=60, extent=150.0, seed=2)
        config = CtsConfig(high_cluster_size=40, low_cluster_size=6, seed=7)
        explorer = DesignSpaceExplorer(pdk, config)
        serial = explorer.explore(clock_net, [20, 400], workers=1)
        return explorer, clock_net, serial

    @staticmethod
    def _point_rows(result):
        return [
            (
                p.parameter,
                p.metrics.latency,
                p.metrics.skew,
                p.metrics.buffers,
                p.metrics.ntsvs,
            )
            for p in result.points
        ]

    @pytest.mark.parametrize(
        "fail_attempts,action", [(1, "retried"), (99, "degraded-to-serial")]
    )
    def test_worker_faults_recover_sweep(self, dse_setup, fail_attempts, action):
        explorer, clock_net, serial = dse_setup
        fault = WorkerFault(
            stage="dse", kind="crash", fail_attempts=fail_attempts
        )
        with arm_worker_faults(fault):
            faulted = explorer.explore(clock_net, [20, 400], workers=2)
        assert self._point_rows(faulted) == self._point_rows(serial)
        assert not faulted.failures
        assert faulted.parallel_diagnostics
        assert all(d.stage == "dse" for d in faulted.parallel_diagnostics)
        assert all(d.action == action for d in faulted.parallel_diagnostics)
        assert all(
            d.task.startswith("threshold ")
            for d in faulted.parallel_diagnostics
        )


# --------------------------------------------------------------- flow cache
class TestFlowCacheFaults:
    @pytest.fixture(scope="class")
    def cache_setup(self, pdk):
        from repro.designs import benchmark_suite

        designs = benchmark_suite(
            scale=0.05, include_combinational=False, only=["C4"]
        )
        config = CtsConfig(high_cluster_size=60, low_cluster_size=8)
        return designs, config

    def test_warm_recovers_and_matches_lazy(self, pdk, cache_setup):
        from benchmarks.flow_cache import FlowCache

        designs, config = cache_setup
        # A late warm after the shared pool was torn down must re-create it.
        shutdown_pool()
        cache = FlowCache(pdk=pdk, designs=designs, config=config)
        fault = WorkerFault(stage="flow_cache", kind="crash", fail_attempts=1)
        with arm_worker_faults(fault):
            computed = cache.warm(flows=("ours_moes", "single"), workers=2)
        assert computed == 2
        assert len(cache.parallel_diagnostics) == 2
        assert all(d.action == "retried" for d in cache.parallel_diagnostics)
        assert all(d.stage == "flow_cache" for d in cache.parallel_diagnostics)

        lazy = FlowCache(pdk=pdk, designs=designs, config=config)
        warm_row = cache.ours("C4").metrics.as_row()
        lazy_row = lazy.ours("C4").metrics.as_row()
        warm_row.pop("runtime_s", None)
        lazy_row.pop("runtime_s", None)
        assert warm_row == lazy_row

    def test_warm_degrades_to_inline(self, pdk, cache_setup):
        from benchmarks.flow_cache import FlowCache

        designs, config = cache_setup
        cache = FlowCache(pdk=pdk, designs=designs, config=config)
        fault = WorkerFault(stage="flow_cache", kind="crash", fail_attempts=99)
        with arm_worker_faults(fault):
            computed = cache.warm(flows=("ours_moes", "single"), workers=2)
        assert computed == 2
        assert all(
            d.action == "degraded-to-serial" for d in cache.parallel_diagnostics
        )
        assert cache.ours("C4").metrics is not None


# --------------------------------------------------------------------- CLI
class TestCli:
    def test_strict_parallel_flag(self):
        from repro.cli import _config_for, build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "C1", "--strict-parallel"])
        config = _config_for(args)
        assert config.parallel_policy.mode == "strict"
        assert config.resolved_parallel_policy().mode == "strict"
        args = parser.parse_args(["run", "C1"])
        assert _config_for(args).parallel_policy is None
        args = parser.parse_args(["dse", "C1", "--strict-parallel"])
        assert _config_for(args).parallel_policy.mode == "strict"

    def test_strict_parallel_keeps_other_env_knobs(self, monkeypatch):
        from repro.cli import _config_for, build_parser

        monkeypatch.setenv(PARALLEL_POLICY_ENV_VAR, "attempts=4")
        args = build_parser().parse_args(["run", "C1", "--strict-parallel"])
        policy = _config_for(args).parallel_policy
        assert policy.mode == "strict"
        assert policy.attempts == 4, "--strict-parallel only flips the mode"
