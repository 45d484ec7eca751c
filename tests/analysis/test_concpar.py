"""Acceptance tests for the concurrency-safety pass (RPR701-RPR704).

``concpar_pkg`` puts the process-pool boundary in ``service.py`` and
the defects it makes worker-reachable two and three modules away: a
module-global write in ``worker.py``, a shared RNG stream in
``rng.py``, and an ``lru_cache`` in ``memo.py``.  Linting any defect
module alone must not reproduce the pool-reachability findings — only
the boundary-local lambda (RPR701) and the purely syntactic async
defect (RPR704) survive in isolation.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
PKG = FIXTURES / "concpar_pkg"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CONC_FAMILIES = ["RPR7"]

#: rule id -> sorted (file basename, line) the package must produce —
#: exactly these, nothing else.
EXPECTED = {
    # lambda handed to pool.submit() at the boundary itself
    "RPR701": [("service.py", 11)],
    # module-global container written by a worker-reachable helper
    "RPR702": [("worker.py", 15)],
    # shared RNG stream drawn in a worker + worker-reachable lru_cache
    "RPR703": [("memo.py", 7), ("rng.py", 9)],
    # time.sleep inside an async def
    "RPR704": [("async_api.py", 7)],
}


def _pkg_files():
    return sorted(str(p) for p in PKG.glob("*.py"))


@pytest.fixture(scope="module")
def report():
    return lint_paths(_pkg_files(), select=CONC_FAMILIES)


def test_package_yields_the_exact_finding_set(report):
    got: dict = {}
    for finding in report.findings:
        got.setdefault(finding.rule_id, []).append(
            (Path(finding.path).name, finding.line))
    assert {k: sorted(v) for k, v in got.items()} == EXPECTED


def test_every_concurrency_rule_fires_in_the_package(report):
    assert {f.rule_id for f in report.findings} == set(EXPECTED)


def test_findings_carry_positions_and_messages(report):
    for finding in report.findings:
        assert finding.line >= 1 and finding.col >= 1
        assert finding.message


def test_reachability_findings_carry_worker_chains(report):
    """Findings born away from the boundary explain how a worker
    reaches them, tail of the call chain included."""
    chained = {Path(f.path).name: f.message
               for f in report.findings
               if f.rule_id in ("RPR702", "RPR703")}
    assert set(chained) == {"worker.py", "rng.py", "memo.py"}
    for message in chained.values():
        assert "[worker-reachable:" in message
    assert "worker.process -> rng.jitter" in chained["rng.py"]
    assert "worker.process -> worker.record" in chained["worker.py"]


def test_advisory_rng_cache_rule_is_advisory(report):
    from repro.analysis.sarif import _LEVEL_BY_PREFIX

    assert any(f.rule_id == "RPR703" for f in report.findings)
    assert _LEVEL_BY_PREFIX.get("RPR703") == "note"


def test_pool_reachability_vanishes_when_modules_lint_alone():
    """Without ``service.py`` there is no pool boundary, so nothing is
    worker-reachable: the global write, the RNG draw, and the cache
    decoration all go silent.  Only defects that need no cross-module
    fact survive — the boundary-local lambda and the async blocker."""
    allowed_alone = {
        "service.py": {"RPR701"},
        "async_api.py": {"RPR704"},
    }
    for path in _pkg_files():
        single = lint_paths([path], select=CONC_FAMILIES)
        got = {f.rule_id for f in single.findings}
        assert got == allowed_alone.get(Path(path).name, set()), path


# ----------------------------------------------------------------------
# Real-tree acceptance with every pass enabled
# ----------------------------------------------------------------------

def test_src_is_clean_under_the_new_families():
    report = lint_paths([str(REPO_SRC)], select=["RPR6", "RPR7"])
    assert not report.findings


def test_warm_relint_with_pass_four_is_under_quarter_of_cold_time():
    """Acceptance: the whole-program stage now runs four passes, and a
    warm incremental re-lint must still come in under 25% of cold."""
    select = ["RPR11", "RPR2", "RPR6", "RPR7"]
    start = time.perf_counter()
    cold = lint_paths([str(REPO_SRC)], select=select, use_cache=True)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = lint_paths([str(REPO_SRC)], select=select, use_cache=True)
    warm_seconds = time.perf_counter() - start

    assert cold.files_from_cache == 0
    assert warm.files_from_cache == warm.files_scanned
    assert warm.findings == cold.findings
    assert warm_seconds < 0.25 * cold_seconds, (
        f"warm lint took {warm_seconds:.3f}s vs cold {cold_seconds:.3f}s")
