"""Device-protocol conformance: every storage type obeys the same rules.

The engine treats batteries and supercapacitors uniformly through
:class:`EnergyStorageDevice`; this suite runs one set of invariants
against every concrete implementation so interface drift is caught at the
protocol level rather than deep inside a simulation.
"""

import pytest

from repro.config import BatteryConfig, SupercapConfig
from repro.errors import ConfigurationError
from repro.storage import LeadAcidBattery, Supercapacitor


def make_battery():
    return LeadAcidBattery(BatteryConfig())


def make_supercap():
    return Supercapacitor(SupercapConfig())


FACTORIES = {
    "battery": make_battery,
    "supercap": make_supercap,
}


@pytest.fixture(params=list(FACTORIES), ids=list(FACTORIES))
def device(request):
    return FACTORIES[request.param]()


class TestProtocolConformance:
    def test_fresh_device_is_full(self, device):
        assert device.soc == pytest.approx(1.0, abs=0.01)
        assert device.is_full
        assert not device.is_depleted or device.usable_energy_j <= 1e-9

    def test_nominal_positive(self, device):
        assert device.nominal_energy_j > 0
        assert device.stored_energy_j > 0

    def test_voltage_positive(self, device):
        assert device.open_circuit_voltage() > 0

    def test_discharge_returns_truthful_result(self, device):
        result = device.discharge(50.0, 1.0)
        assert 0.0 <= result.achieved_w <= 50.0 + 1e-6
        assert result.energy_j == pytest.approx(result.achieved_w * 1.0,
                                                rel=1e-6)
        assert result.loss_j >= 0.0

    def test_discharge_reduces_stored_energy(self, device):
        before = device.stored_energy_j
        device.discharge(50.0, 10.0)
        assert device.stored_energy_j < before

    def test_charge_when_not_full_accepts_something(self, device):
        device.reset(0.5)
        result = device.charge(20.0, 1.0)
        assert result.achieved_w > 0.0

    def test_charge_when_full_accepts_nothing(self, device):
        result = device.charge(20.0, 1.0)
        assert result.achieved_w == pytest.approx(0.0, abs=1e-6)

    def test_rest_preserves_or_recovers(self, device):
        device.discharge(100.0, 30.0)
        stored = device.stored_energy_j
        device.rest(600.0)
        # Resting never loses energy in these models (no self-discharge).
        assert device.stored_energy_j >= stored - 1e-6

    def test_dod_floor_restricts_usable(self, device):
        device.reset(1.0)
        unrestricted = device.usable_energy_j
        device.set_depth_of_discharge(0.5)
        assert device.usable_energy_j <= unrestricted
        assert device.usable_energy_j == pytest.approx(
            device.stored_energy_j - 0.5 * device.nominal_energy_j,
            rel=0.1)

    def test_reset_restores_soc_and_telemetry(self, device):
        device.discharge(80.0, 10.0)
        device.reset(1.0)
        assert device.soc == pytest.approx(1.0, abs=0.01)
        assert device.telemetry.energy_out_j == 0.0

    def test_validation_shared(self, device):
        with pytest.raises(ConfigurationError):
            device.discharge(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            device.charge(10.0, 0.0)
        with pytest.raises(ConfigurationError):
            device.set_depth_of_discharge(2.0)

    def test_telemetry_accumulates_both_directions(self, device):
        device.reset(0.5)
        device.discharge(30.0, 5.0)
        device.charge(20.0, 5.0)
        assert device.telemetry.energy_out_j > 0.0
        assert device.telemetry.energy_in_j > 0.0

    def test_repeated_discharge_eventually_limits(self, device):
        limited = False
        for _ in range(100000):
            result = device.discharge(200.0, 10.0)
            if result.limited:
                limited = True
                break
        assert limited

    def test_depleted_device_reports_depleted(self, device):
        for _ in range(100000):
            if device.discharge(200.0, 10.0).limited:
                break
        # After hitting the limit at high power the device may still hold
        # usable energy (voltage limits); drain gently to the floor.
        for _ in range(100000):
            if device.discharge(5.0, 60.0).limited:
                break
        assert device.usable_energy_j < 0.1 * device.nominal_energy_j
