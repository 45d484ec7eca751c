"""Framework-level tests: suppressions, context, registry, reporters."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE_ID,
    Finding,
    LintReport,
    all_rules,
    collect_suppressions,
    iter_python_files,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.rules import FileContext, resolve_rule_ids
from repro.analysis.suppressions import (
    ALL_RULES,
    expand_suppressions,
    is_suppressed,
)
from repro.errors import AnalysisError, ReproError

FIXTURES = Path(__file__).parent / "fixtures"


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def test_noqa_single_rule():
    sup = collect_suppressions("x = 3600  # repro: noqa[RPR102]\n")
    assert is_suppressed(sup, 1, "RPR102")
    assert not is_suppressed(sup, 1, "RPR101")
    assert not is_suppressed(sup, 2, "RPR102")


def test_noqa_multiple_rules_and_whitespace():
    sup = collect_suppressions(
        "y = a + b  #  repro:  noqa[RPR101, rpr102]\n")
    assert is_suppressed(sup, 1, "RPR101")
    assert is_suppressed(sup, 1, "RPR102")


def test_noqa_blanket_suppresses_everything():
    sup = collect_suppressions("z = 8760  # repro: noqa\n")
    assert sup[1] is ALL_RULES
    assert is_suppressed(sup, 1, "RPR102")
    assert is_suppressed(sup, 1, "RPR301")


def test_noqa_inside_string_literal_is_ignored():
    sup = collect_suppressions('text = "# repro: noqa[RPR102]"\n')
    assert sup == {}


def test_plain_noqa_comment_is_not_ours():
    sup = collect_suppressions("x = 1  # noqa: E722\n")
    assert sup == {}


def test_unparseable_source_yields_no_suppressions():
    assert collect_suppressions("def broken(:\n") == {}


def test_noqa_covers_the_whole_multiline_statement():
    source = ("total = (stored_j\n"
              "         + demand_w)  # repro: noqa[RPR101]\n")
    sup = expand_suppressions(collect_suppressions(source),
                              ast.parse(source))
    assert is_suppressed(sup, 1, "RPR101")
    assert is_suppressed(sup, 2, "RPR101")
    # End to end: RPR101 anchors on line 1, the marker sits on line 2.
    rules = [cls() for cls in all_rules().values()]
    assert lint_source(source, "mod.py", rules) == []


def test_noqa_markers_merge_across_a_statement():
    source = ("value = (stored_j  # repro: noqa[RPR101]\n"
              "         + 8760)  # repro: noqa[RPR102]\n")
    sup = expand_suppressions(collect_suppressions(source),
                              ast.parse(source))
    for line in (1, 2):
        assert is_suppressed(sup, line, "RPR101")
        assert is_suppressed(sup, line, "RPR102")


def test_blanket_noqa_survives_expansion():
    source = ("value = (stored_j\n"
              "         + demand_w)  # repro: noqa\n")
    sup = expand_suppressions(collect_suppressions(source),
                              ast.parse(source))
    assert sup[1] is ALL_RULES or is_suppressed(sup, 1, "RPR999")


def test_noqa_on_compound_statement_stays_on_its_line():
    source = ("if flag:  # repro: noqa[RPR102]\n"
              "    seconds = 86400.0\n")
    sup = expand_suppressions(collect_suppressions(source),
                              ast.parse(source))
    assert is_suppressed(sup, 1, "RPR102")
    assert not is_suppressed(sup, 2, "RPR102")
    rules = [cls() for cls in all_rules().values()]
    findings = lint_source(source, "mod.py", rules)
    assert [f.rule_id for f in findings] == ["RPR102"]


def test_every_noqa_marker_in_the_tree_names_a_known_rule():
    """A marker for a retired or misspelt id suppresses nothing, and
    ``collect_suppressions`` accepts any id, so check them all here."""
    repo = Path(__file__).resolve().parents[2]
    fixtures = FIXTURES.resolve()
    known = set(all_rules()) | {PARSE_ERROR_RULE_ID} | ALL_RULES
    dead = []
    for root in ("src", "benchmarks", "tests"):
        for path in iter_python_files([str(repo / root)]):
            if fixtures in path.parents:
                continue
            source = path.read_text(encoding="utf-8")
            for line, ids in collect_suppressions(source).items():
                dead.extend(f"{path}:{line}: {rule_id}"
                            for rule_id in sorted(ids - known))
    assert not dead, dead


# ----------------------------------------------------------------------
# FileContext import resolution
# ----------------------------------------------------------------------

def _ctx(source: str) -> FileContext:
    return FileContext("sim/mod.py", source, ast.parse(source))


def _first_call(ctx: FileContext) -> ast.expr:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            return node.func
    raise AssertionError("no call in source")


def test_resolve_call_through_alias():
    ctx = _ctx("import numpy as np\nnp.random.rand()\n")
    assert ctx.resolve_call(_first_call(ctx)) == "numpy.random.rand"


def test_resolve_call_through_from_import():
    ctx = _ctx("from time import time as now\nnow()\n")
    assert ctx.resolve_call(_first_call(ctx)) == "time.time"


def test_resolve_call_unresolvable_expression():
    ctx = _ctx("(lambda: 1)()\n")
    assert ctx.resolve_call(_first_call(ctx)) is None


def test_deterministic_scope_detection():
    assert _ctx("x = 1\n").is_deterministic_scope
    outside = FileContext("docs/mod.py", "x = 1\n", ast.parse("x = 1\n"))
    assert not outside.is_deterministic_scope
    units = FileContext("pkg/units.py", "x = 1\n", ast.parse("x = 1\n"))
    assert units.is_units_module


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------

def test_registry_is_sorted_and_documented():
    rules = all_rules()
    assert list(rules) == sorted(rules)
    for rule_class in rules.values():
        assert rule_class.summary()


def test_unknown_rule_id_raises_analysis_error():
    with pytest.raises(AnalysisError) as excinfo:
        resolve_rule_ids(["RPR999"])
    assert "RPR999" in str(excinfo.value)
    assert isinstance(excinfo.value, ReproError)


def test_rule_ids_are_case_insensitive():
    assert resolve_rule_ids(["rpr102"]) == ["RPR102"]


def test_family_prefix_expands_to_every_member():
    units_family = resolve_rule_ids(["RPR1"])
    assert set(units_family) == {
        rid for rid in all_rules() if rid.startswith("RPR1")}
    narrow = resolve_rule_ids(["RPR11"])
    assert set(narrow) == {"RPR110", "RPR111", "RPR112", "RPR113"}


def test_exact_id_and_prefix_mix_without_duplicates():
    resolved = resolve_rule_ids(["RPR102", "RPR1"])
    assert resolved.count("RPR102") == 1


def test_unmatched_prefix_raises():
    with pytest.raises(AnalysisError):
        resolve_rule_ids(["RPR9"])


def test_lint_paths_unknown_select_raises():
    with pytest.raises(AnalysisError):
        lint_paths([str(FIXTURES / "rpr102_fail.py")], select=["NOPE"])


def test_lint_paths_missing_path_raises():
    with pytest.raises(AnalysisError):
        lint_paths([str(FIXTURES / "does_not_exist.py")])


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    files = list(iter_python_files([str(tmp_path)]))
    assert [f.name for f in files] == ["real.py"]


# ----------------------------------------------------------------------
# lint_source and reporters
# ----------------------------------------------------------------------

def test_lint_source_flags_magic_constant():
    rules = [cls() for cls in all_rules().values()]
    findings = lint_source("x = 86400\n", "mod.py", rules)
    assert [f.rule_id for f in findings] == ["RPR102"]


def test_finding_render_and_to_dict():
    finding = Finding("a.py", 3, 7, "RPR102", "msg")
    assert finding.render() == "a.py:3:7: RPR102 msg"
    assert finding.to_dict() == {
        "path": "a.py", "line": 3, "col": 7,
        "rule": "RPR102", "message": "msg",
    }


def test_render_text_clean_and_dirty():
    clean = LintReport(findings=(), files_scanned=2)
    assert "clean: 2 files scanned" in render_text(clean)
    dirty = LintReport(
        findings=(Finding("a.py", 1, 1, "RPR102", "msg"),),
        files_scanned=1)
    text = render_text(dirty)
    assert "a.py:1:1: RPR102 msg" in text
    assert "1 finding in 1 file" in text


def test_render_json_schema():
    report = lint_paths([str(FIXTURES / "rpr102_fail.py")])
    payload = json.loads(render_json(report))
    assert payload["format"] == 1
    assert payload["files_scanned"] == 1
    assert set(payload["rules"]) == set(all_rules())
    assert payload["findings"]
    for entry in payload["findings"]:
        assert set(entry) == {"path", "line", "col", "rule", "message"}
        assert entry["rule"] == "RPR102"
