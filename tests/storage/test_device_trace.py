"""The storage devices against their frozen call-sequence trace.

``tests/golden/device_trace.txt`` records, as ``float.hex()``, every
flow result, the state after each call and the final telemetry of
fixed call sequences on the edge-case devices no simulation run
builds: a zero-resistance battery, a Peukert-free battery, an aged one,
DoD-capped pools, a zero-ESR, a nearly empty and an ESR-drifted
supercapacitor, each at 0.5, 1 and 10 s steps with long rests and
leakage in between.  Replaying the sequences must reproduce every line
exactly.
"""

from __future__ import annotations

from tests.golden.device_trace import TRACE_PATH, trace_lines


def test_device_trace_replays_bit_for_bit():
    expected = TRACE_PATH.read_text().splitlines()
    actual = trace_lines()
    assert len(actual) == len(expected)
    for number, (got, want) in enumerate(zip(actual, expected), start=1):
        assert got == want, f"device trace line {number} diverged"
