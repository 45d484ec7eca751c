"""Acceptance tests for twin parity (RPR601/RPR602).

``twinpar_pkg`` plants three defects that each straddle a module
boundary: the scalar contract a batch twin violates lives in
``cluster.py``/``engine.py`` while the findings anchor in the batch
modules.  The tests pin the exact finding set, prove the cross-module
findings vanish when modules lint alone, and cover the
incremental-cache contract for the family.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
PKG = FIXTURES / "twinpar_pkg"

TWIN_FAMILIES = ["RPR6"]

#: rule id -> sorted (file basename, line) the package must produce —
#: exactly these, nothing else.
EXPECTED = {
    # deliberately removed BatchCluster method + unreferenced constant
    "RPR601": [("batch_cluster.py", 10), ("batch_cluster.py", 10)],
    # BatchSimulation.step dropped the scalar demand_w parameter
    "RPR602": [("engine_batch.py", 11)],
}


def _pkg_files():
    return sorted(str(p) for p in PKG.glob("*.py"))


@pytest.fixture(scope="module")
def report():
    return lint_paths(_pkg_files(), select=TWIN_FAMILIES)


def test_package_yields_the_exact_finding_set(report):
    got: dict = {}
    for finding in report.findings:
        got.setdefault(finding.rule_id, []).append(
            (Path(finding.path).name, finding.line))
    assert {k: sorted(v) for k, v in got.items()} == EXPECTED


def test_every_twin_rule_fires_in_the_package(report):
    assert {f.rule_id for f in report.findings} == set(EXPECTED)


def test_findings_carry_positions_and_messages(report):
    for finding in report.findings:
        assert finding.line >= 1 and finding.col >= 1
        assert finding.message


def test_parity_findings_anchor_in_the_batch_modules(report):
    """The defect is *born* in the scalar modules (a method and a
    constant exist there; a parameter is declared there) but must be
    *reported* where the fix belongs: the batch twin."""
    parity = [f for f in report.findings if f.rule_id in ("RPR601",
                                                          "RPR602")]
    assert parity
    for finding in parity:
        assert Path(finding.path).name in ("batch_cluster.py",
                                           "engine_batch.py")
        # every message names the scalar module the contract came from
        assert "twinpar_pkg." in finding.message


def test_missing_method_finding_names_accepted_spellings(report):
    drained = [f for f in report.findings
               if f.rule_id == "RPR601" and "drain_queue" in f.message]
    assert len(drained) == 1
    assert "drain_queue_lane" in drained[0].message


def test_cross_module_facts_vanish_when_modules_lint_alone():
    """Severing the package kills the twin pairing: scalar and batch
    class are never co-resident, so no module alone yields a finding."""
    for path in _pkg_files():
        single = lint_paths([path], select=TWIN_FAMILIES)
        assert not single.findings, path


# ----------------------------------------------------------------------
# Incremental-cache contract for the family
# ----------------------------------------------------------------------

def test_warm_relint_serves_twin_findings_from_cache():
    files = _pkg_files()
    cold = lint_paths(files, select=TWIN_FAMILIES, use_cache=True)
    warm = lint_paths(files, select=TWIN_FAMILIES, use_cache=True)
    assert cold.files_from_cache == 0
    assert warm.files_from_cache == warm.files_scanned
    assert warm.findings == cold.findings


def test_fingerprint_bump_forces_cold_reanalysis(monkeypatch):
    files = _pkg_files()
    first = lint_paths(files, select=TWIN_FAMILIES, use_cache=True)
    assert first.findings

    import repro.analysis.cache as cache_mod

    monkeypatch.setattr(cache_mod, "analysis_fingerprint",
                        lambda: "edited-pass-four")
    second = lint_paths(files, select=TWIN_FAMILIES, use_cache=True)
    assert second.files_from_cache == 0
    assert second.findings == first.findings
    third = lint_paths(files, select=TWIN_FAMILIES, use_cache=True)
    assert third.files_from_cache == third.files_scanned
