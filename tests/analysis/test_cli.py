"""CLI tests for ``python -m repro lint`` (in-process)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.__main__ import main as repro_main
from repro.analysis import all_rules
from repro.analysis.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_lint_src_is_clean():
    """The acceptance criterion: the repo's own tree passes its linter."""
    assert lint_main([str(REPO_ROOT / "src")]) == 0


def test_failing_fixture_exits_nonzero(capsys):
    code = repro_main(["lint", str(FIXTURES / "rpr102_fail.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "RPR102" in out


def test_clean_fixture_exits_zero(capsys):
    code = repro_main(["lint", str(FIXTURES / "rpr101_clean.py")])
    out = capsys.readouterr().out
    assert code == 0
    assert "clean" in out


def test_json_report_is_correct(capsys):
    fixture = FIXTURES / "rpr201_fail" / "sim" / "clocked.py"
    code = repro_main(["lint", str(fixture), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["format"] == 1
    assert payload["files_scanned"] == 1
    rules = {entry["rule"] for entry in payload["findings"]}
    assert rules == {"RPR201"}
    assert all(entry["path"] == str(fixture)
               for entry in payload["findings"])


def test_select_and_ignore_flags(capsys):
    fixture = str(FIXTURES / "rpr102_fail.py")
    assert repro_main(["lint", fixture, "--select", "RPR103"]) == 0
    capsys.readouterr()
    assert repro_main(["lint", fixture, "--ignore", "RPR102"]) == 0
    capsys.readouterr()
    assert repro_main(
        ["lint", fixture, "--select", "RPR102,RPR103"]) == 1


def test_unknown_rule_is_usage_error(capsys):
    code = repro_main(["lint", str(FIXTURES), "--select", "BOGUS"])
    captured = capsys.readouterr()
    assert code == 2
    assert "BOGUS" in captured.err


def test_missing_path_is_usage_error(capsys):
    code = repro_main(["lint", "no/such/dir"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no such file" in captured.err


def test_list_rules(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


def test_syntax_error_fixture_reports_parse_rule(capsys):
    code = repro_main(
        ["lint", str(FIXTURES / "rpr000_fail.py"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [entry["rule"] for entry in payload["findings"]] == ["RPR000"]


def test_list_rules_marks_whole_program_passes(capsys):
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RPR110 *" in out
    assert "RPR210 *" in out
    assert "RPR102  " in out  # per-file rules carry no marker
    assert "(* = whole-program pass)" in out


def test_family_prefix_selection_via_cli(capsys):
    fixture = str(FIXTURES / "rpr301_fail.py")
    assert repro_main(["lint", fixture, "--select", "RPR1"]) == 0
    capsys.readouterr()
    assert repro_main(["lint", fixture, "--select", "RPR3"]) == 1


def test_jobs_flag_reports_identical_findings(capsys):
    fixture = str(FIXTURES / "rpr102_fail.py")
    assert repro_main(
        ["lint", fixture, "--no-cache", "--format", "json"]) == 1
    serial = json.loads(capsys.readouterr().out)
    assert repro_main(
        ["lint", fixture, "--no-cache", "--jobs", "2",
         "--format", "json"]) == 1
    parallel = json.loads(capsys.readouterr().out)
    assert parallel["findings"] == serial["findings"]


def test_json_report_counts_cache_hits(capsys):
    fixture = str(FIXTURES / "rpr101_clean.py")
    assert repro_main(["lint", fixture, "--format", "json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["files_from_cache"] == 0
    assert repro_main(["lint", fixture, "--format", "json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["files_from_cache"] == 1
    assert warm["findings"] == cold["findings"]


def test_cache_dir_flag_overrides_the_environment(tmp_path, capsys):
    store = tmp_path / "explicit-store"
    fixture = str(FIXTURES / "rpr101_clean.py")
    assert repro_main(
        ["lint", fixture, "--cache-dir", str(store)]) == 0
    capsys.readouterr()
    assert any(store.rglob("*.json"))


def test_stats_flag_appends_pass_timing_table(capsys):
    pkg = sorted(str(p) for p in
                 (FIXTURES / "twinpar_pkg").glob("*.py"))
    repro_main(["lint", "--no-cache", "--select", "RPR6", *pkg])
    plain = capsys.readouterr().out
    assert "pass timings:" not in plain

    repro_main(["lint", "--no-cache", "--select", "RPR6", "--stats",
                *pkg])
    out = capsys.readouterr().out
    assert out.startswith(plain.rstrip("\n"))
    assert "pass timings:" in out
    assert "twin-parity (RPR601/602)" in out
    assert "index+callgraph" in out
    assert "findings by family:" in out


def test_stats_json_payload_and_default_omission(capsys):
    fixture = str(FIXTURES / "rpr703_fail.py")
    repro_main(["lint", fixture, "--no-cache", "--select", "RPR7",
                "--format", "json"])
    plain = json.loads(capsys.readouterr().out)
    assert "stats" not in plain

    repro_main(["lint", fixture, "--no-cache", "--select", "RPR7",
                "--format", "json", "--stats"])
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    names = [entry["name"] for entry in stats["passes"]]
    assert "per-file" in names
    assert "concurrency (RPR70x)" in names
    for entry in stats["passes"]:
        assert entry["seconds"] >= 0.0
        assert entry["findings"] >= 0
    assert stats["families"] == {"RPR7": 2}
    assert payload["findings"] == plain["findings"]
