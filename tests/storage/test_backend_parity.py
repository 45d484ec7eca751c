"""Each lane of a batched storage call equals its own device's call.

The batched engine advances N batteries, supercapacitors and lifetime
models through lane arrays (:mod:`repro.storage.batch`); the scalar
engine calls each device on its own.  The two must agree to the bit.
Here hypothesis draws devices with random configurations (edge values
included: zero resistance, zero ESR, a Peukert exponent of 1, a zero
converter cut-off, aging, ESR drift and DoD caps), random states,
powers and step lengths, passes all of them through one ``Batch*``
call and checks every lane against the device's own call: achieved
power, current, wells or charge, and telemetry.  Lanes outside the
call's mask must be left untouched.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import BatteryConfig, SupercapConfig
from repro.storage import (AhThroughputLifetimeModel, DeviceTelemetry,
                           LeadAcidBattery, Supercapacitor)
from repro.storage.batch import BatchBattery, BatchLifetime, BatchSupercap

DT = st.sampled_from((0.5, 1.0, 10.0, 60.0))

FLOWS_PER_TEST = 200


def _with_edges(low, high, *edges):
    """Floats in [low, high], with the given edge values drawn often."""
    return st.one_of(st.sampled_from(edges),
                     st.floats(min_value=low, max_value=high))


battery_config = st.builds(
    BatteryConfig,
    nominal_voltage_v=st.floats(min_value=20.0, max_value=60.0),
    empty_voltage_v=st.floats(min_value=5.0, max_value=19.0),
    capacity_ah=_with_edges(0.5, 200.0, 4.4),
    internal_resistance_ohm=_with_edges(0.0, 0.5, 0.0, 1e-13, 0.15),
    kibam_c=st.floats(min_value=0.05, max_value=0.95),
    kibam_k_per_s=_with_edges(1e-6, 1e-2, 4.5e-4),
    peukert_exponent=_with_edges(1.0, 1.4, 1.0, 1.125),
    reference_current_a=_with_edges(0.05, 20.0, 2.0),
    charge_efficiency=st.floats(min_value=0.5, max_value=1.0),
    discharge_efficiency=st.floats(min_value=0.5, max_value=1.0),
    gassing_soc_threshold=st.floats(min_value=0.05, max_value=0.95),
    gassing_penalty=st.floats(min_value=0.0, max_value=0.9),
    max_charge_current_a=_with_edges(0.05, 50.0, 1.1),
    min_terminal_voltage_v=st.floats(min_value=0.0, max_value=25.0),
)

supercap_config = st.builds(
    SupercapConfig,
    capacitance_f=_with_edges(1.0, 5000.0, 600.0),
    max_voltage_v=st.floats(min_value=10.0, max_value=60.0),
    min_voltage_v=_with_edges(0.0, 9.0, 0.0, 6.0),
    esr_ohm=_with_edges(0.0, 0.5, 0.0, 1e-13, 0.05),
    max_charge_current_a=_with_edges(0.1, 500.0, 200.0),
)

soc = st.one_of(st.sampled_from((0.0, 0.02, 0.6, 1.0)),
                st.floats(min_value=0.0, max_value=1.0))
power = st.one_of(st.sampled_from((0.0, 1e-9, 5.0, 300.0, 1e5)),
                  st.floats(min_value=0.0, max_value=5000.0))


@st.composite
def batteries(draw):
    battery = LeadAcidBattery(draw(battery_config), soc=draw(soc))
    if draw(st.booleans()):
        battery.apply_aging(draw(st.floats(min_value=0.0, max_value=0.9)),
                            draw(st.floats(min_value=1.0, max_value=4.0)))
    if draw(st.booleans()):
        battery.set_depth_of_discharge(
            draw(st.floats(min_value=0.05, max_value=1.0)))
    return battery


@st.composite
def supercaps(draw):
    sc = Supercapacitor(draw(supercap_config), soc=draw(soc))
    if draw(st.booleans()):
        sc.apply_esr_drift(draw(st.floats(min_value=1.0, max_value=4.0)))
    if draw(st.booleans()):
        sc.set_depth_of_discharge(
            draw(st.floats(min_value=0.05, max_value=1.0)))
    return sc


def _lanes(data, devices):
    n = len(devices)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    powers = np.array(data.draw(st.lists(power, min_size=n, max_size=n)),
                      dtype=float)
    return mask, powers


def _telemetry(batch, lane):
    telemetry = DeviceTelemetry()
    batch.telemetry.write_back(lane, telemetry)
    return telemetry


def _assert_battery_lanes(batch, devices):
    for lane, battery in enumerate(devices):
        state = battery.state
        assert batch.y1[lane] == state.available_c, lane
        assert batch.y2[lane] == state.bound_c, lane
        assert _telemetry(batch, lane) == battery.telemetry, lane


def _assert_sc_lanes(batch, devices, originals):
    for lane, (sc, original) in enumerate(zip(devices, originals)):
        if sc is None:
            continue
        written = copy.deepcopy(original)
        batch.write_back(lane, written)
        assert written.voltage == sc.voltage, lane
        assert written.stored_energy_j == sc.stored_energy_j, lane
        assert written.telemetry == sc.telemetry, lane


class TestBatteryParity:
    @given(data=st.data(), devices=st.lists(batteries(), min_size=1,
                                            max_size=5), dt=DT)
    @settings(max_examples=FLOWS_PER_TEST, deadline=None)
    def test_discharge(self, data, devices, dt):
        mask, powers = _lanes(data, devices)
        batch = BatchBattery(devices, dt)
        achieved, current = batch.discharge(mask, powers, dt)
        for lane, battery in enumerate(devices):
            if mask[lane]:
                result = battery.discharge(float(powers[lane]), dt)
                assert achieved[lane] == result.achieved_w, lane
                assert current[lane] == result.current_a, lane
            else:
                assert achieved[lane] == 0.0 and current[lane] == 0.0
        _assert_battery_lanes(batch, devices)

    @given(data=st.data(), devices=st.lists(batteries(), min_size=1,
                                            max_size=5), dt=DT,
           defer=st.booleans())
    @settings(max_examples=FLOWS_PER_TEST, deadline=None)
    def test_charge_then_rest(self, data, devices, dt, defer):
        """Masked lanes charge, the others rest, through the deferred
        or the immediate KiBaM step."""
        mask, powers = _lanes(data, devices)
        batch = BatchBattery(devices, dt)
        achieved = batch.charge(mask, powers, dt, defer_step=defer)
        rest = ~mask
        any_rest = bool(rest.any())
        batch.flush_step(rest, any_rest)
        if any_rest:
            batch.telemetry.record_rest(rest, dt)
        for lane, battery in enumerate(devices):
            if mask[lane]:
                result = battery.charge(float(powers[lane]), dt)
                assert achieved[lane] == result.achieved_w, lane
            else:
                assert achieved[lane] == 0.0
                battery.rest(dt)
        _assert_battery_lanes(batch, devices)


class TestSupercapParity:
    @given(data=st.data(), devices=st.lists(
        st.one_of(supercaps(), st.none()), min_size=1, max_size=5), dt=DT)
    @settings(max_examples=FLOWS_PER_TEST, deadline=None)
    def test_discharge(self, data, devices, dt):
        mask, powers = _lanes(data, devices)
        mask &= np.array([sc is not None for sc in devices])
        originals = copy.deepcopy(devices)
        batch = BatchSupercap(devices)
        achieved = batch.discharge(mask, powers, dt)
        for lane, sc in enumerate(devices):
            if mask[lane]:
                result = sc.discharge(float(powers[lane]), dt)
                assert achieved[lane] == result.achieved_w, lane
            else:
                assert achieved[lane] == 0.0
        _assert_sc_lanes(batch, devices, originals)

    @given(data=st.data(), devices=st.lists(
        st.one_of(supercaps(), st.none()), min_size=1, max_size=5), dt=DT)
    @settings(max_examples=FLOWS_PER_TEST, deadline=None)
    def test_charge_then_rest(self, data, devices, dt):
        mask, powers = _lanes(data, devices)
        present = np.array([sc is not None for sc in devices])
        mask &= present
        originals = copy.deepcopy(devices)
        batch = BatchSupercap(devices)
        achieved = batch.charge(mask, powers, dt)
        batch.rest(present & ~mask, dt)
        for lane, sc in enumerate(devices):
            if mask[lane]:
                result = sc.charge(float(powers[lane]), dt)
                assert achieved[lane] == result.achieved_w, lane
            else:
                assert achieved[lane] == 0.0
                if sc is not None:
                    sc.rest(dt)
        _assert_sc_lanes(batch, devices, originals)

    @given(data=st.data(), devices=st.lists(
        st.one_of(supercaps(), st.none()), min_size=1, max_size=5), dt=DT)
    @settings(max_examples=FLOWS_PER_TEST, deadline=None)
    def test_leakage(self, data, devices, dt):
        mask, powers = _lanes(data, devices)
        mask &= np.array([sc is not None for sc in devices])
        originals = copy.deepcopy(devices)
        batch = BatchSupercap(devices)
        batch.apply_leakage(mask, powers, dt)
        for lane, sc in enumerate(devices):
            if mask[lane]:
                sc.apply_leakage(float(powers[lane]), dt)
        _assert_sc_lanes(batch, devices, originals)


lifetime_model = st.builds(
    AhThroughputLifetimeModel,
    config=st.builds(BatteryConfig,
                     reference_current_a=_with_edges(0.05, 20.0, 2.0)),
    current_stress_exponent=st.one_of(
        st.none(), st.sampled_from((0.0, 0.6)),
        st.floats(min_value=0.0, max_value=2.0)),
    low_soc_stress=st.floats(min_value=0.0, max_value=3.0))


class TestLifetimeParity:
    @given(data=st.data(), models=st.lists(lifetime_model, min_size=1,
                                           max_size=5), dt=DT)
    @settings(max_examples=FLOWS_PER_TEST, deadline=None)
    def test_weight_and_counters(self, data, models, dt):
        n = len(models)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n)), dtype=bool)
        currents = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from((0.0, 2.0)),
                      st.floats(min_value=0.0, max_value=100.0)),
            min_size=n, max_size=n)), dtype=float)
        currents = np.where(mask, currents, 0.0)
        socs = np.array(data.draw(st.lists(soc, min_size=n, max_size=n)),
                        dtype=float)
        originals = copy.deepcopy(models)
        batch = BatchLifetime(models)
        batch.observe_discharge(mask, currents, dt, socs)
        for lane, model in enumerate(models):
            written = copy.deepcopy(originals[lane])
            batch.write_back(lane, written)
            if mask[lane]:
                current = float(currents[lane])
                weight = model.weight(current, float(socs[lane]))
                model.observe_discharge(current, dt, float(socs[lane]))
                assert batch.effective_c[lane] == current * dt * weight
                assert batch.raw_c[lane] == current * dt
            assert written.report() == model.report(), lane


def test_config_value_given_as_int_stays_float():
    """A config field given as an int must not make an integer lane."""
    devices = [LeadAcidBattery(dataclasses.replace(
                   BatteryConfig(), capacity_ah=4, internal_resistance_ohm=0)),
               LeadAcidBattery(BatteryConfig())]
    batch = BatchBattery(devices, 1.0)
    achieved, _ = batch.discharge(np.array([True, True]),
                                  np.array([150.0, 150.0]), 1.0)
    for lane, battery in enumerate(devices):
        assert achieved[lane] == battery.discharge(150.0, 1.0).achieved_w
    _assert_battery_lanes(batch, devices)
