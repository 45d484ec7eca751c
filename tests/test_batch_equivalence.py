"""The batched engine against its scalar bit-exactness oracle.

``BatchSimulation`` promises that advancing N scenarios through one
vectorized tick loop returns :class:`~repro.sim.RunResult` objects
**exactly equal** — every float bit-identical — to running each
scenario through the untouched scalar ``Simulation``.  This suite holds
the whole stack to that contract:

* every shipped policy, across mixed workloads and sizings, under both
  utility budgets and renewable supplies;
* fault-free lanes that shed and restart servers, each lane also
  checked to give the same result alone as in the mix (lane
  independence);
* hypothesis-driven random scenario sets (schemes, workloads, seeds,
  budgets, SC fractions mixed freely within one batch);
* fault-injected lanes: random storms over all eight fault kinds mixed
  with clean and renewable lanes, each lane also checked to give the
  same result alone as in the mix (lane independence), and the golden
  fault fixtures run as one batched group;
* hand-built clusters wider than the prototype's six servers;
* the batched runner path: grouping (faulted requests included),
  cache-key/hit accounting, cache interchangeability between the
  batched and scalar paths, and groups the engine rejects failing
  loudly instead of switching engines;
* the degenerate shapes — empty batch, singleton batch.

Everything compares with ``==`` on the full result dataclasses: any
divergence in any metric, slot record, or lifetime figure fails.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ControllerConfig, prototype_buffer, prototype_cluster
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.policies.base import Policy, SlotPlan
from repro.errors import BatchCompatibilityError
from repro.experiments.resilience import fault_schedule_for
from repro.faults import (
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultInjector,
    FaultSchedule,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
    schedule_from_dict,
)
from repro.runner import (
    ExperimentRunner,
    ExperimentSetup,
    RunRequest,
    build_simulation,
    execute_request,
    plan_units,
)
from repro.sim import HybridBuffers, Simulation
from repro.sim.batch import BatchSimulation
from repro.workloads import get_workload

from tests.faults.test_golden_scenarios import (
    SCENARIOS as GOLDEN_FAULT_SCENARIOS,
    assert_close,
    load_golden,
)

#: Short control slots keep runs fast while still crossing several
#: plan boundaries (the regime where lanes diverge hardest).
FAST_CONTROLLER = ControllerConfig(slot_seconds=60.0)

WORKLOADS = ("PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS")


def _request(scheme: str, workload: str, **kwargs) -> RunRequest:
    setup_kwargs = {
        "duration_h": kwargs.pop("duration_h", 0.1),
        "seed": kwargs.pop("seed", 1),
        "budget_w": kwargs.pop("budget_w", None),
        "sc_fraction": kwargs.pop("sc_fraction", 0.3),
        "total_energy_wh": kwargs.pop("total_energy_wh", 150.0),
    }
    return RunRequest(scheme=scheme, workload=workload,
                      setup=ExperimentSetup(**setup_kwargs),
                      controller=kwargs.pop("controller", FAST_CONTROLLER),
                      **kwargs)


def _batched(requests):
    return BatchSimulation(
        [build_simulation(request) for request in requests]).run_all()


def _assert_identical(batched, scalar):
    assert len(batched) == len(scalar)
    for index, (got, want) in enumerate(zip(batched, scalar)):
        for field in dataclasses.fields(want):
            got_value = getattr(got, field.name)
            want_value = getattr(want, field.name)
            assert got_value == want_value, (
                f"scenario {index}: RunResult.{field.name} diverged:\n"
                f"  batched: {got_value!r}\n  scalar:  {want_value!r}")


def _assert_lanes_independent(requests, mixed):
    """Each lane alone (beside one clean filler) equals its result in
    the mix."""
    filler = _request("BaFirst", "PR", seed=99)
    for request, in_mix in zip(requests, mixed):
        alone = _batched([request, filler])[0]
        _assert_identical([alone], [in_mix])


# ----------------------------------------------------------------------
# Exhaustive policy / workload coverage
# ----------------------------------------------------------------------

class TestPolicyCoverage:
    @pytest.mark.parametrize("scheme", POLICY_NAMES)
    def test_every_policy_bit_exact(self, scheme):
        """Each policy across three workloads in one mixed batch."""
        requests = [
            _request(scheme, workload, seed=3 + i,
                     budget_w=180.0 if i % 2 else None,
                     total_energy_wh=60.0 if i == 0 else 150.0)
            for i, workload in enumerate(("WC", "MS", "TS"))
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_mixed_policies_one_batch(self):
        """All six policies side by side in a single tick loop."""
        requests = [
            _request(scheme, WORKLOADS[i % len(WORKLOADS)], seed=11 + i,
                     sc_fraction=0.0 if scheme == "BaOnly" else 0.3)
            for i, scheme in enumerate(POLICY_NAMES)
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_renewable_lanes_bit_exact(self):
        requests = [
            _request(scheme, "WS", seed=90 + i, renewable=True)
            for i, scheme in enumerate(("HEB-D", "BaFirst", "SCFirst"))
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])

    def test_policy_view_lanes_bit_exact(self):
        """Figure-13-style policy views of the physical buffers."""
        requests = [
            _request("HEB-S", "MS", seed=7, policy_sc_fraction=0.5,
                     policy_total_wh=90.0),
            _request("HEB-S", "MS", seed=7),
        ]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])


class TestCleanLanes:
    def test_shed_and_restart_lanes_bit_exact_and_independent(self):
        """A tight budget on tiny buffers sheds servers without any
        fault, and restarts them on lanes other than 0: the per-lane
        shed and restart paths must touch only their own lane."""
        requests = [
            _request("BaOnly" if i % 2 else "HEB-D", workload,
                     budget_w=200.0, total_energy_wh=5.0)
            for i, workload in enumerate(WORKLOADS)
        ]
        batched = _batched(requests)
        _assert_identical(batched, [execute_request(r) for r in requests])
        _assert_lanes_independent(requests, batched)
        assert any(result.metrics.total_restarts > 0
                   for result in batched[1:])


# ----------------------------------------------------------------------
# Randomized scenario sets
# ----------------------------------------------------------------------

scenario_strategy = st.builds(
    dict,
    scheme=st.sampled_from(POLICY_NAMES),
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(min_value=0, max_value=2**16),
    budget_w=st.one_of(st.none(),
                       st.floats(min_value=150.0, max_value=400.0,
                                 allow_nan=False)),
    # 0.0 (no SC pool) is exercised deterministically above; several
    # policies reject an empty SC sizing at construction, scalar and
    # batched alike.
    sc_fraction=st.sampled_from((0.1, 0.3, 0.5)),
    total_energy_wh=st.sampled_from((40.0, 90.0, 150.0)),
)


class TestRandomizedScenarioSets:
    @given(scenarios=st.lists(scenario_strategy, min_size=2, max_size=5))
    @settings(max_examples=12, deadline=None)
    def test_random_mixed_batch_bit_exact(self, scenarios):
        requests = [_request(**scenario) for scenario in scenarios]
        _assert_identical(_batched(requests),
                          [execute_request(r) for r in requests])


# ----------------------------------------------------------------------
# Fault-injected lanes
# ----------------------------------------------------------------------

#: Length of a default ``_request`` run (0.1 h).
RUN_S = 360.0

#: Event starts: on and between slot boundaries, at t=0, at the last
#: tick, at the run's end and far past it, plus anything in between.
fault_start = st.one_of(
    st.sampled_from((0.0, 59.0, 60.0, 120.5, RUN_S - 1.0, RUN_S,
                     10 * RUN_S)),
    st.floats(min_value=0.0, max_value=1.2 * RUN_S, allow_nan=False))
#: Window lengths, zero-length windows included.
fault_duration = st.one_of(
    st.sampled_from((0.0, 1.0, 60.0, RUN_S)),
    st.floats(min_value=0.0, max_value=RUN_S, allow_nan=False))


def _windowed(event_type, **fields):
    return st.builds(event_type, start_s=fault_start,
                     duration_s=fault_duration, **fields)


fault_event = st.one_of(
    _windowed(UtilityBrownout, budget_fraction=st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.floats(min_value=0.0, max_value=1.0))),
    _windowed(UtilityOutage),
    st.builds(BatteryCellAging, start_s=fault_start,
              fade_fraction=st.floats(min_value=0.0, max_value=0.6),
              resistance_growth=st.floats(min_value=1.0, max_value=3.0)),
    _windowed(BatteryOpenCircuit),
    st.builds(SupercapESRDrift, start_s=fault_start,
              esr_multiplier=st.floats(min_value=1.0, max_value=4.0)),
    _windowed(SupercapLeakage, leakage_w=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=200.0))),
    _windowed(ConverterDropout),
    _windowed(SensorNoise,
              sigma_fraction=st.floats(min_value=0.0, max_value=0.5)),
)

fault_schedule = st.builds(
    FaultSchedule,
    events=st.lists(fault_event, min_size=1, max_size=6).map(tuple),
    seed=st.integers(min_value=0, max_value=2**16))

#: Every kind at once, with the edge cases the random storms may miss:
#: events at t=0 and past the end, a zero-length window, zero leakage,
#: brownouts to 0 and to 1, repeated aging and ESR steps, and a
#: one-tick outage with dropout that sheds every server on a tick whose
#: fault classes differ from the next tick's.
KITCHEN_SINK = FaultSchedule.of(
    UtilityBrownout(start_s=0.0, duration_s=90.0, budget_fraction=0.0),
    UtilityBrownout(start_s=30.0, duration_s=200.0, budget_fraction=1.0),
    UtilityBrownout(start_s=100.0, duration_s=0.0, budget_fraction=0.2),
    UtilityOutage(start_s=150.0, duration_s=45.0),
    BatteryCellAging(start_s=0.0, fade_fraction=0.2),
    BatteryCellAging(start_s=120.0, fade_fraction=0.3,
                     resistance_growth=2.5),
    BatteryOpenCircuit(start_s=200.0, duration_s=30.0),
    SupercapESRDrift(start_s=60.0, esr_multiplier=1.5),
    SupercapESRDrift(start_s=61.0, esr_multiplier=3.0),
    SupercapLeakage(start_s=0.0, duration_s=RUN_S, leakage_w=0.0),
    SupercapLeakage(start_s=40.0, duration_s=250.0, leakage_w=80.0),
    ConverterDropout(start_s=240.0, duration_s=20.0),
    SensorNoise(start_s=50.0, duration_s=200.0, sigma_fraction=0.3),
    UtilityOutage(start_s=300.0, duration_s=1.0),
    ConverterDropout(start_s=300.0, duration_s=1.0),
    UtilityOutage(start_s=2 * RUN_S, duration_s=60.0),
    seed=5)


def _fault_mix(schedules, seed, renewable_faults):
    """All six policies under the given storms, plus one clean lane and
    one renewable lane."""
    requests = [
        _request(scheme, WORKLOADS[(seed + i) % len(WORKLOADS)],
                 seed=seed + i, faults=schedule)
        for i, (scheme, schedule) in enumerate(zip(POLICY_NAMES,
                                                   schedules))
    ]
    requests.append(_request("HEB-D", "TS", seed=seed + 10))
    requests.append(_request("SCFirst", "WS", seed=seed + 11,
                             renewable=True, faults=renewable_faults))
    return requests


class TestFaultedLanes:
    def test_kitchen_sink_storm_bit_exact(self):
        requests = _fault_mix([KITCHEN_SINK] * len(POLICY_NAMES), 3,
                              KITCHEN_SINK)
        batched = _batched(requests)
        _assert_identical(batched, [execute_request(r) for r in requests])
        assert any(result.metrics.fault_downtime_s for result in batched)
        _assert_lanes_independent(requests, batched)

    @given(schedules=st.lists(fault_schedule, min_size=len(POLICY_NAMES),
                              max_size=len(POLICY_NAMES)),
           seed=st.integers(min_value=0, max_value=2**12),
           renewable_faults=st.one_of(st.none(), fault_schedule))
    @settings(max_examples=8, deadline=None)
    def test_random_storms_bit_exact_and_lane_independent(
            self, schedules, seed, renewable_faults):
        requests = _fault_mix(schedules, seed, renewable_faults)
        batched = _batched(requests)
        _assert_identical(batched, [execute_request(r) for r in requests])
        _assert_lanes_independent(requests, batched)

    def test_exotic_charge_orders_under_storms_bit_exact(self):
        """Charge orders outside the merged three-call schedule take the
        generic per-order path, which must skip unreachable pools."""

        class ExoticPolicy(Policy):
            name = "Exotic"
            PLANS = (
                SlotPlan(r_lambda=0.5, charge_order=("sc", "battery", "sc")),
                SlotPlan(r_lambda=0.2, charge_order=("battery", "sc",
                                                     "battery"),
                         fallback=False),
                SlotPlan(r_lambda=0.8, charge_order=("battery", "battery"),
                         use_sc=False),
            )

            def __init__(self, offset):
                self.offset = offset

            def begin_slot(self, observation):
                return self.PLANS[(observation.index + self.offset)
                                  % len(self.PLANS)]

        requests = [
            _request("HEB-D", workload, seed=40 + i, budget_w=200.0,
                     faults=KITCHEN_SINK if i % 2 else None)
            for i, workload in enumerate(("WC", "MS", "TS", "PR"))
        ]

        def build(offset_requests):
            sims = []
            for offset, request in offset_requests:
                sim = build_simulation(request)
                sim.policy = ExoticPolicy(offset)
                sims.append(sim)
            return sims

        batched = BatchSimulation(build(enumerate(requests))).run_all()
        scalar = [sim.run() for sim in build(enumerate(requests))]
        _assert_identical(batched, scalar)

    def test_golden_fault_fixtures_as_one_group(self):
        """The three golden storms for every scheme run as one batched
        group and still match their fixtures."""
        requests, rows = [], []
        for name in GOLDEN_FAULT_SCENARIOS:
            golden = load_golden(name)
            params = golden["params"]
            schedule = schedule_from_dict(golden["schedule"])
            for scheme, row in golden["rows"].items():
                requests.append(RunRequest(
                    scheme, params["workload"],
                    setup=ExperimentSetup(duration_h=params["hours"],
                                          seed=params["seed"]),
                    faults=schedule))
                rows.append((f"{name} {scheme}", row))
        units, _ = plan_units(requests)
        assert [kind for kind, _ in units] == ["group"]
        runner = ExperimentRunner(jobs=1)
        results = runner.map(requests)
        assert runner.batched == len(requests)
        for result, (label, row) in zip(results, rows):
            metrics = result.metrics
            for metric, expected in row.items():
                actual = getattr(metrics, metric)
                if metric != "fault_downtime_s" or expected is None:
                    assert_close(actual, expected, f"{label}.{metric}")
                    continue
                assert actual is not None and set(actual) == set(expected)
                for kind, seconds in expected.items():
                    assert_close(actual[kind], seconds,
                                 f"{label}.{metric}[{kind}]")


# ----------------------------------------------------------------------
# Clusters wider than the prototype
# ----------------------------------------------------------------------

def _wide_sims(num_servers):
    """Eight hand-built lanes on a ``num_servers``-server cluster: the
    six policies over the eight workloads, on a budget and buffers tight
    enough to shed and restart servers, with a full-intensity storm on
    every third lane."""
    cluster = dataclasses.replace(prototype_cluster(),
                                  num_servers=num_servers,
                                  utility_budget_w=33.0 * num_servers)
    hybrid = prototype_buffer(total_energy_wh=0.8 * num_servers)
    sims = []
    for lane, workload in enumerate(WORKLOADS):
        scheme = POLICY_NAMES[lane % len(POLICY_NAMES)]
        trace = get_workload(workload, duration_s=RUN_S,
                             num_servers=num_servers,
                             server=cluster.server, seed=lane + 1)
        injector = (FaultInjector(fault_schedule_for(1.0, RUN_S, seed=lane))
                    if lane % 3 == 1 else None)
        sims.append(Simulation(
            trace,
            make_policy(scheme, hybrid=hybrid, controller=FAST_CONTROLLER),
            HybridBuffers(hybrid, include_sc=scheme != "BaOnly"),
            cluster_config=cluster, controller_config=FAST_CONTROLLER,
            injector=injector))
    return sims


class TestWideClusters:
    @pytest.mark.parametrize("num_servers", (9, 16))
    def test_wide_cluster_lanes_bit_exact(self, num_servers):
        """Past numpy's 8-term pairwise-summation threshold both engines
        still total demand in server-index order."""
        batched = BatchSimulation(_wide_sims(num_servers)).run_all()
        _assert_identical(batched,
                          [sim.run() for sim in _wide_sims(num_servers)])
        assert any(result.metrics.total_restarts > 0 for result in batched)


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------

class TestDegenerateBatches:
    def test_empty_batch(self):
        assert BatchSimulation([]).run_all() == []

    def test_singleton_batch(self):
        request = _request("HEB-F", "WC", seed=5)
        _assert_identical(_batched([request]), [execute_request(request)])

    def test_singletons_stay_scalar_in_planning(self):
        """A lone compatible request is not worth a batched unit."""
        units, positions = plan_units([_request("HEB-F", "WC")])
        assert [kind for kind, _ in units] == ["single"]
        assert positions == [[0]]


# ----------------------------------------------------------------------
# The batched runner path
# ----------------------------------------------------------------------

def _mixed_requests():
    faults = FaultSchedule(
        events=(UtilityOutage(start_s=60.0, duration_s=90.0),))
    return [
        _request("HEB-D", "WC", seed=21),
        _request("BaFirst", "MS", seed=22),
        # Faulted: batches with the clean lanes of its grid.
        _request("SCFirst", "TS", seed=23, faults=faults),
        # Different slot grid: lands in its own (singleton) group.
        _request("HEB-S", "DA", seed=24,
                 controller=ControllerConfig(slot_seconds=120.0)),
        _request("HEB-F", "HB", seed=25),
    ]


class TestBatchedRunner:
    def test_planning_groups_faulted_separates_incompatible(self):
        units, positions = plan_units(_mixed_requests())
        kinds = sorted(kind for kind, _ in units)
        assert kinds == ["group", "single"]
        (group_positions,) = [
            pos for (kind, _), pos in zip(units, positions)
            if kind == "group"]
        assert group_positions == [0, 1, 2, 4]

    def test_runner_map_matches_scalar_per_request(self):
        requests = _mixed_requests()
        expected = [execute_request(r) for r in requests]
        runner = ExperimentRunner(jobs=1)
        _assert_identical(runner.map(requests), expected)

    def test_fault_lane_matches_scalar_fault_run(self):
        faulted = _mixed_requests()[2]
        runner = ExperimentRunner(jobs=1)
        _assert_identical([runner.run(faulted)],
                          [execute_request(faulted)])

    def test_cache_keys_interchange_with_scalar_path(self, tmp_path):
        from repro.runner import ResultCache

        requests = _mixed_requests()
        batched_cache = ResultCache(tmp_path / "cache")
        batched_runner = ExperimentRunner(jobs=1, cache=batched_cache,
                                          batch=True)
        first = batched_runner.map(requests)
        assert batched_runner.misses == len(requests)
        assert batched_runner.hits == 0

        # A scalar (non-batching) runner over the same cache must hit
        # every entry: the batched path writes under identical keys.
        scalar_runner = ExperimentRunner(jobs=1, cache=batched_cache,
                                         batch=False)
        second = scalar_runner.map(requests)
        assert scalar_runner.hits == len(requests)
        assert scalar_runner.misses == 0
        _assert_identical(second, first)


class TestRejectedGroups:
    def test_mismatched_trace_lengths_raise(self):
        sims = [build_simulation(_request("HEB-F", "WC", duration_h=0.05)),
                build_simulation(_request("BaFirst", "MS"))]
        with pytest.raises(BatchCompatibilityError,
                           match="trace length differs"):
            BatchSimulation(sims)

    def test_runner_group_rejection_propagates(self, monkeypatch):
        """A rejected group raises out of ``map``; it is never rerun on
        the scalar engine."""
        def reject(sims):
            raise BatchCompatibilityError("rejected")

        monkeypatch.setattr("repro.runner.batch.BatchSimulation", reject)
        requests = [_request("HEB-F", "WC"), _request("BaFirst", "MS")]
        units, _ = plan_units(requests)
        assert [kind for kind, _ in units] == ["group"]
        with pytest.raises(BatchCompatibilityError, match="rejected"):
            ExperimentRunner(jobs=1).map(requests)
