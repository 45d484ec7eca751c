"""SARIF reporter tests: structure always, schema when jsonschema exists.

The vendored schema (``fixtures/sarif-2.1.0.schema.json``) is the
load-bearing subset of the official OASIS 2.1.0 schema — same required
lists, types, and enums for everything the reporter emits — because
the test environment cannot fetch the original.  The structural tests
below run everywhere; the schema validation runs wherever
:mod:`jsonschema` happens to be importable (it is not a project
dependency).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths, render_sarif, sarif_document
from repro.analysis.rules import all_rules
from repro.analysis.sarif import SARIF_VERSION, result_level

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _report(*names, select=None):
    return lint_paths([str(FIXTURES / n) for n in names], select=select)


def test_document_shape_and_versions():
    doc = sarif_document(_report("rpr102_fail.py"))
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert "$schema" in doc
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert driver["version"]
    assert driver["rules"]


def test_results_mirror_findings_one_to_one():
    report = _report("rpr102_fail.py", "rpr703_fail.py")
    doc = sarif_document(report)
    results = doc["runs"][0]["results"]
    assert len(results) == len(report.findings)
    for finding, result in zip(report.findings, results):
        assert result["ruleId"] == finding.rule_id
        assert result["message"]["text"] == finding.message
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"].endswith(
            Path(finding.path).name)
        assert physical["region"]["startLine"] == finding.line
        assert physical["region"]["startColumn"] == finding.col


def test_rule_descriptors_cover_every_enabled_rule():
    report = _report("rpr102_fail.py")
    doc = sarif_document(report)
    descriptor_ids = {r["id"] for r in doc["runs"][0]["tool"]
                      ["driver"]["rules"]}
    assert descriptor_ids == set(report.rule_ids)


def test_serialization_is_stable():
    report = _report("rpr102_fail.py")
    assert render_sarif(report) == render_sarif(report)
    json.loads(render_sarif(report))  # round-trips


def test_empty_report_is_still_a_valid_log():
    doc = sarif_document(_report("rpr102_clean/units.py"))
    assert doc["runs"][0]["results"] == []


def test_batch_audit_reports_as_note_everything_else_warning():
    """The RPR5xx batch-readiness audit is retired, so RPR703 is the
    only advisory (``note``) rule left; every other registered rule,
    and any leftover RPR5 id, reports as ``warning``."""
    for rule_id in all_rules():
        expected = "note" if rule_id == "RPR703" else "warning"
        assert result_level(rule_id) == expected, rule_id
    assert result_level("RPR501") == "warning"
    doc = sarif_document(_report("rpr102_fail.py", "rpr703_fail.py"))
    levels = {(r["ruleId"], r["level"]) for r in doc["runs"][0]["results"]}
    assert levels == {("RPR102", "warning"), ("RPR703", "note")}


def test_cli_format_sarif_emits_parseable_sarif():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "sarif",
         "--no-cache", "--select", "RPR7",
         str(FIXTURES / "rpr703_fail.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"})
    assert proc.returncode == 1  # findings present
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    assert {r["ruleId"] for r in doc["runs"][0]["results"]} == {"RPR703"}


def test_document_validates_against_the_2_1_0_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (FIXTURES / "sarif-2.1.0.schema.json").read_text())
    for report in (
        _report("rpr102_fail.py", "rpr703_fail.py", "rpr301_fail.py"),
        _report("rpr102_clean/units.py"),
    ):
        jsonschema.validate(
            instance=sarif_document(report), schema=schema)


def test_pass_four_advisory_and_blocking_levels():
    """RPR703 is advisory (per-worker caches are a cost, not a bug);
    the rest of Pass 4 blocks like any other correctness rule."""
    assert result_level("RPR703") == "note"
    for rule_id in ("RPR601", "RPR602", "RPR701", "RPR702", "RPR704"):
        assert result_level(rule_id) == "warning"
    doc = sarif_document(_report("rpr703_fail.py", select=["RPR703"]))
    results = doc["runs"][0]["results"]
    assert results
    assert {r["level"] for r in results} == {"note"}


def test_pass_four_results_and_descriptors_round_trip():
    report = _report("rpr601_fail.py", "rpr602_fail.py",
                     "rpr704_fail.py", select=["RPR6", "RPR7"])
    doc = sarif_document(report)
    results = doc["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"RPR601", "RPR602",
                                              "RPR704"}
    descriptor_ids = {r["id"] for r in doc["runs"][0]["tool"]
                      ["driver"]["rules"]}
    assert descriptor_ids == set(report.rule_ids)
    assert {"RPR601", "RPR602", "RPR701", "RPR702", "RPR703",
            "RPR704"} <= descriptor_ids


def test_pass_four_documents_validate_against_the_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (FIXTURES / "sarif-2.1.0.schema.json").read_text())
    report = _report("rpr601_fail.py", "rpr703_fail.py",
                     "rpr704_fail.py", select=["RPR6", "RPR7"])
    assert report.findings
    jsonschema.validate(instance=sarif_document(report), schema=schema)


def test_schema_rejects_malformed_documents():
    """The vendored schema has teeth: missing required members fail."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (FIXTURES / "sarif-2.1.0.schema.json").read_text())
    good = sarif_document(_report("rpr102_fail.py"))

    no_tool = json.loads(json.dumps(good))
    del no_tool["runs"][0]["tool"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(instance=no_tool, schema=schema)

    bad_level = json.loads(json.dumps(good))
    bad_level["runs"][0]["results"][0]["level"] = "catastrophic"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(instance=bad_level, schema=schema)
