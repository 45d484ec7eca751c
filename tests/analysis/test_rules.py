"""Fixture-driven rule tests: every rule id has a failing + clean fixture."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import PARSE_ERROR_RULE_ID, all_rules, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (failing fixture, clean fixture), both relative to FIXTURES.
RULE_FIXTURES = {
    "RPR000": ("rpr000_fail.py", "rpr000_clean.py"),
    "RPR101": ("rpr101_fail.py", "rpr101_clean.py"),
    "RPR102": ("rpr102_fail.py", "rpr102_clean/units.py"),
    "RPR103": ("rpr103_fail.py", "rpr103_clean.py"),
    "RPR104": ("rpr104_fail/sim/equality.py",
               "rpr104_clean/sim/tolerance.py"),
    "RPR110": ("rpr110_fail.py", "rpr110_clean.py"),
    "RPR111": ("rpr111_fail.py", "rpr111_clean.py"),
    "RPR112": ("rpr112_fail.py", "rpr112_clean.py"),
    "RPR113": ("rpr113_fail.py", "rpr113_clean.py"),
    "RPR201": ("rpr201_fail/sim/clocked.py", "rpr201_clean/sim/seeded.py"),
    "RPR202": ("rpr202_fail/core/setsum.py",
               "rpr202_clean/core/sorted_sets.py"),
    "RPR203": ("rpr203_fail.py", "rpr203_clean.py"),
    "RPR210": ("rpr210_fail.py", "rpr210_clean.py"),
    "RPR211": ("rpr211_fail.py", "rpr211_clean.py"),
    "RPR212": ("rpr212_fail.py", "rpr212_clean.py"),
    "RPR213": ("rpr213_fail.py", "rpr213_clean.py"),
    "RPR301": ("rpr301_fail.py", "rpr301_clean.py"),
    "RPR302": ("rpr302_fail.py", "rpr302_clean.py"),
    "RPR601": ("rpr601_fail.py", "rpr601_clean.py"),
    "RPR602": ("rpr602_fail.py", "rpr602_clean.py"),
    "RPR701": ("rpr701_fail.py", "rpr701_clean.py"),
    "RPR702": ("rpr702_fail.py", "rpr702_clean.py"),
    "RPR703": ("rpr703_fail.py", "rpr703_clean.py"),
    "RPR704": ("rpr704_fail.py", "rpr704_clean.py"),
}

#: Findings each failing fixture must produce (exact count).
EXPECTED_FAIL_COUNTS = {
    "RPR000": 1,
    "RPR101": 2,   # BinOp add + AugAssign subtract
    "RPR102": 3,   # 8760, 3600.0, 86400.0
    "RPR103": 2,   # bare parameter + unsuffixed float-returning function
    "RPR104": 2,   # exact == and != on power/energy names
    "RPR110": 2,   # positional + keyword J-into-W bindings
    "RPR111": 2,   # return-unit mismatch + assignment-unit mismatch
    "RPR112": 2,   # wh_to_joules(J) + joules_to_wh(Wh)
    "RPR113": 2,   # inferred-return mix + same-dimension scale mix
    "RPR201": 4,   # time.time, aliased time, np.random.rand, random.random
    "RPR202": 2,   # for-over-set + sum-over-set-comprehension
    "RPR203": 2,   # positional list default + keyword-only dict default
    "RPR210": 2,   # reachable time.time + reachable random.random
    "RPR211": 2,   # reachable os.getenv + reachable os.cpu_count
    "RPR212": 2,   # reachable for-over-set + reachable sum-over-set
    "RPR213": 2,   # reachable global rebind + reachable dict store
    "RPR301": 2,   # except Exception + bare except
    "RPR302": 2,   # RuntimeError + custom non-ReproError subclass
    "RPR601": 2,   # missing snapshot_state + missing total_energy_j twin
    "RPR602": 2,   # dropped scalar parameter + drifted literal default
    "RPR701": 2,   # lambda + nested def submitted to the pool
    "RPR702": 2,   # global rebind + dict store in a worker
    "RPR703": 2,   # shared module RNG draw + lru_cache on a worker fn
    "RPR704": 3,   # time.sleep + open() + Path.read_text in async def
}


def test_every_registered_rule_has_fixtures():
    registered = set(all_rules()) | {PARSE_ERROR_RULE_ID}
    assert registered == set(RULE_FIXTURES)


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_failing_fixture_flags_exactly_its_rule(rule_id):
    fail_path = FIXTURES / RULE_FIXTURES[rule_id][0]
    report = lint_paths([str(fail_path)])
    assert not report.clean
    assert {f.rule_id for f in report.findings} == {rule_id}
    assert len(report.findings) == EXPECTED_FAIL_COUNTS[rule_id]
    for finding in report.findings:
        assert finding.path == str(fail_path)
        assert finding.line >= 1
        assert finding.col >= 1
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_clean_fixture_produces_no_findings(rule_id):
    clean_path = FIXTURES / RULE_FIXTURES[rule_id][1]
    report = lint_paths([str(clean_path)])
    assert report.clean, [f.render() for f in report.findings]
    assert report.files_scanned == 1


def test_fail_fixtures_are_clean_under_their_noqa():
    report = lint_paths([str(FIXTURES / "noqa_suppressed.py")])
    assert report.clean, [f.render() for f in report.findings]


def test_select_restricts_to_one_rule():
    report = lint_paths([str(FIXTURES / "rpr102_fail.py")],
                        select=["RPR103"])
    assert report.clean
    report = lint_paths([str(FIXTURES / "rpr102_fail.py")],
                        select=["RPR102"])
    assert {f.rule_id for f in report.findings} == {"RPR102"}


def test_ignore_drops_a_rule():
    report = lint_paths([str(FIXTURES / "rpr102_fail.py")],
                        ignore=["RPR102"])
    assert report.clean


def test_findings_are_sorted_and_deterministic():
    paths = [str(FIXTURES / RULE_FIXTURES[r][0])
             for r in ("RPR102", "RPR101")]
    first = lint_paths(paths)
    second = lint_paths(list(reversed(paths)))
    assert first.findings == second.findings
    assert list(first.findings) == sorted(first.findings)
