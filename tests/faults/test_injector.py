"""Unit tests for the FaultInjector tick protocol and its engine hooks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import prototype_buffer
from repro.core.policies.base import SlotObservation
from repro.errors import SimulationError
from repro.faults import (
    BASELINE_CLASS,
    BatteryCellAging,
    BatteryOpenCircuit,
    ConverterDropout,
    FaultInjector,
    FaultSchedule,
    FaultState,
    SensorNoise,
    SupercapESRDrift,
    SupercapLeakage,
    UtilityBrownout,
    UtilityOutage,
    fault_state_at,
)
from repro.sim import HybridBuffers


def make_buffers():
    return HybridBuffers(prototype_buffer())


def make_injector(*events, seed=0):
    return FaultInjector(FaultSchedule.of(*events, seed=seed))


def observation(**overrides):
    defaults = dict(index=1, start_s=600.0, budget_w=260.0,
                    sc_usable_j=1000.0, battery_usable_j=2000.0,
                    sc_nominal_j=1500.0, battery_nominal_j=3000.0,
                    last_peak_w=300.0, last_valley_w=200.0,
                    last_peak_duration_s=30.0, num_servers=6)
    defaults.update(overrides)
    return SlotObservation(**defaults)


class TestTickProtocol:
    def test_time_must_not_go_backwards(self):
        injector = make_injector()
        buffers = make_buffers()
        injector.begin_tick(10.0, 1.0, buffers)
        with pytest.raises(SimulationError):
            injector.begin_tick(5.0, 1.0, buffers)

    def test_empty_schedule_is_inert(self):
        injector = make_injector()
        buffers = make_buffers()
        before = buffers.total_stored_j
        for now in (0.0, 1.0, 2.0):
            injector.begin_tick(now, 1.0, buffers)
        assert injector.sc_available and injector.battery_available
        assert injector.transform_budget(260.0) == 260.0
        assert injector.active_classes == ()
        assert buffers.total_stored_j == before
        obs = observation()
        assert injector.observe(obs) is obs


#: Windows and steps whose edges fall on, between and beyond the ticks
#: of a short grid.
_edge = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.5, 7.0, 40.0)),
                  st.floats(min_value=0.0, max_value=30.0))
_events = st.lists(st.one_of(
    st.builds(UtilityBrownout, start_s=_edge, duration_s=_edge,
              budget_fraction=st.floats(min_value=0.0, max_value=1.0)),
    st.builds(UtilityOutage, start_s=_edge, duration_s=_edge),
    st.builds(BatteryCellAging, start_s=_edge),
    st.builds(SupercapESRDrift, start_s=_edge),
    st.builds(SupercapLeakage, start_s=_edge, duration_s=_edge),
    st.builds(SensorNoise, start_s=_edge, duration_s=_edge),
), max_size=5)


class TestFaultStateFold:
    def test_nothing_active_is_the_neutral_state(self):
        assert fault_state_at((), 0.0) == FaultState()
        assert FaultState().sc_available and FaultState().battery_available

    @given(events=_events,
           dt=st.sampled_from((0.25, 1.0, 1.5)),
           num_ticks=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_state_changes_only_on_change_ticks(self, events, dt,
                                                num_ticks):
        """Between two change ticks the pure fold returns one state, and
        the injector's snapshot follows the fold on every tick."""
        injector = FaultInjector(FaultSchedule(events=tuple(events)))
        schedule_events = injector.schedule.events
        changes = injector.change_ticks(dt, num_ticks)
        assert changes[0] == 0 and changes == sorted(set(changes))
        assert all(tick < num_ticks for tick in changes)
        state = None
        for tick in range(num_ticks):
            folded = fault_state_at(schedule_events, tick * dt)
            if tick in changes:
                state = folded
            assert folded == state
            injector.advance(tick * dt)
            assert injector.state == folded

    def test_advance_returns_each_step_once(self):
        aging = BatteryCellAging(start_s=2.0, fade_fraction=0.1)
        drift = SupercapESRDrift(start_s=2.0)
        injector = make_injector(aging, drift)
        assert injector.advance(0.0) == []
        assert injector.advance(2.0) == [aging, drift]
        assert injector.advance(3.0) == []


class TestSupplyFaults:
    def test_outage_zeroes_budget(self):
        injector = make_injector(UtilityOutage(start_s=5.0, duration_s=10.0))
        buffers = make_buffers()
        injector.begin_tick(0.0, 1.0, buffers)
        assert injector.transform_budget(260.0) == 260.0
        injector.begin_tick(5.0, 1.0, buffers)
        assert injector.transform_budget(260.0) == 0.0
        injector.begin_tick(15.0, 1.0, buffers)
        assert injector.transform_budget(260.0) == 260.0

    def test_overlapping_brownouts_take_deepest(self):
        injector = make_injector(
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=0.8),
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=0.5))
        injector.begin_tick(0.0, 1.0, make_buffers())
        assert injector.transform_budget(100.0) == pytest.approx(50.0)

    def test_outage_beats_brownout(self):
        injector = make_injector(
            UtilityBrownout(start_s=0.0, duration_s=10.0,
                            budget_fraction=0.8),
            UtilityOutage(start_s=0.0, duration_s=10.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        assert injector.transform_budget(100.0) == 0.0


class TestPowerPathFaults:
    def test_battery_open_circuit_window(self):
        injector = make_injector(
            BatteryOpenCircuit(start_s=5.0, duration_s=5.0))
        buffers = make_buffers()
        injector.begin_tick(0.0, 1.0, buffers)
        assert injector.battery_available
        injector.begin_tick(5.0, 1.0, buffers)
        assert not injector.battery_available
        assert injector.sc_available
        injector.begin_tick(10.0, 1.0, buffers)
        assert injector.battery_available

    def test_converter_dropout_kills_both_pools(self):
        injector = make_injector(
            ConverterDropout(start_s=0.0, duration_s=5.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        assert not injector.sc_available
        assert not injector.battery_available


class TestDegradationSteps:
    def test_aging_applied_once(self):
        injector = make_injector(BatteryCellAging(start_s=5.0,
                                                  fade_fraction=0.2))
        buffers = make_buffers()
        fresh = buffers.battery_nominal_j
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.battery_nominal_j == fresh
        injector.begin_tick(5.0, 1.0, buffers)
        aged = buffers.battery_nominal_j
        assert aged == pytest.approx(0.8 * fresh)
        injector.begin_tick(6.0, 1.0, buffers)
        assert buffers.battery_nominal_j == aged

    def test_repeated_aging_composes_on_remaining(self):
        injector = make_injector(
            BatteryCellAging(start_s=0.0, fade_fraction=0.5),
            BatteryCellAging(start_s=10.0, fade_fraction=0.5))
        buffers = make_buffers()
        fresh = buffers.battery_nominal_j
        injector.begin_tick(0.0, 1.0, buffers)
        injector.begin_tick(10.0, 1.0, buffers)
        assert buffers.battery_nominal_j == pytest.approx(0.25 * fresh)

    def test_esr_drift_raises_resistance(self):
        injector = make_injector(SupercapESRDrift(start_s=0.0,
                                                  esr_multiplier=3.0))
        buffers = make_buffers()
        base = buffers.sc.esr_ohm
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.sc.esr_ohm == pytest.approx(3.0 * base)

    def test_leakage_drains_sc_only(self):
        injector = make_injector(
            SupercapLeakage(start_s=0.0, duration_s=60.0, leakage_w=20.0))
        buffers = make_buffers()
        sc_before = buffers.sc.stored_energy_j
        battery_before = buffers.battery.stored_energy_j
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.sc.stored_energy_j < sc_before
        assert buffers.battery.stored_energy_j == battery_before

    def test_leakage_counts_as_loss_not_output(self):
        injector = make_injector(
            SupercapLeakage(start_s=0.0, duration_s=60.0, leakage_w=20.0))
        buffers = make_buffers()
        out_before = buffers.energy_out_j()
        injector.begin_tick(0.0, 1.0, buffers)
        assert buffers.energy_out_j() == out_before


class TestObserve:
    def test_noise_flags_and_perturbs(self):
        injector = make_injector(
            SensorNoise(start_s=0.0, duration_s=600.0,
                        sigma_fraction=0.5), seed=3)
        injector.begin_tick(0.0, 1.0, make_buffers())
        obs = injector.observe(observation())
        assert obs.predictor_corrupted
        assert obs.degraded
        assert obs.last_valley_w <= obs.last_peak_w
        assert obs.last_peak_w >= 0.0

    def test_noise_is_seed_deterministic(self):
        def perturbed(seed):
            injector = make_injector(
                SensorNoise(start_s=0.0, duration_s=600.0,
                            sigma_fraction=0.5), seed=seed)
            injector.begin_tick(0.0, 1.0, make_buffers())
            obs = injector.observe(observation())
            return (obs.last_peak_w, obs.last_valley_w)

        assert perturbed(3) == perturbed(3)
        assert perturbed(3) != perturbed(4)

    def test_availability_flags_without_noise(self):
        injector = make_injector(
            ConverterDropout(start_s=0.0, duration_s=600.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        obs = injector.observe(observation())
        assert not obs.sc_available
        assert not obs.battery_available
        assert not obs.predictor_corrupted
        # Telemetry untouched: only the availability flags changed.
        assert obs.last_peak_w == observation().last_peak_w


class TestDowntimeAttribution:
    def test_no_faults_goes_to_baseline(self):
        injector = make_injector()
        injector.begin_tick(0.0, 1.0, make_buffers())
        injector.attribute_downtime(10.0)
        assert injector.downtime_by_class() == {BASELINE_CLASS: 10.0}

    def test_split_evenly_among_active_classes(self):
        injector = make_injector(
            UtilityOutage(start_s=0.0, duration_s=10.0),
            ConverterDropout(start_s=0.0, duration_s=10.0))
        injector.begin_tick(0.0, 1.0, make_buffers())
        injector.attribute_downtime(10.0)
        assert injector.downtime_by_class() == {
            "converter_dropout": 5.0, "outage": 5.0}

    def test_duplicate_kinds_count_once(self):
        injector = make_injector(
            UtilityOutage(start_s=0.0, duration_s=10.0),
            UtilityOutage(start_s=5.0, duration_s=10.0))
        injector.begin_tick(6.0, 1.0, make_buffers())
        injector.attribute_downtime(8.0)
        assert injector.downtime_by_class() == {"outage": 8.0}

    def test_zero_delta_ignored(self):
        injector = make_injector()
        injector.begin_tick(0.0, 1.0, make_buffers())
        injector.attribute_downtime(0.0)
        assert injector.downtime_by_class() == {}

    def test_buckets_sum_to_total(self):
        injector = make_injector(
            UtilityOutage(start_s=5.0, duration_s=10.0))
        buffers = make_buffers()
        total = 0.0
        for now in range(0, 20):
            injector.begin_tick(float(now), 1.0, buffers)
            injector.attribute_downtime(2.0)
            total += 2.0
        assert sum(injector.downtime_by_class().values()) == (
            pytest.approx(total))
