"""Driver for the whole-program passes.

:func:`run_whole_program` is the single entry point the lint engine
calls: it builds the project index and call graph once, runs whichever
interprocedural passes the selected rule ids enable, and applies
``# repro: noqa`` suppressions (expanded to full statement extents) to
the combined findings.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..findings import Finding, PassStat
from ..suppressions import (
    collect_suppressions,
    expand_suppressions,
    is_suppressed,
)
from .callgraph import build_call_graph
from .concurrency import run_concurrency_pass
from .dimensions import run_dimensional_pass
from .purity import run_purity_pass
from .symbols import SourceModule, build_project_index
from .twins import run_twin_pass

#: Rule-id prefixes owned by each interprocedural pass.
DIMENSION_PREFIX = "RPR11"
PURITY_PREFIX = "RPR21"
TWIN_IDS = frozenset({"RPR601", "RPR602"})
CONCURRENCY_PREFIX = "RPR7"


def whole_program_rule_ids() -> List[str]:
    """Ids of every registered whole-program rule."""
    from ..rules import all_rules
    return [rule_id for rule_id, rule in all_rules().items()
            if getattr(rule, "whole_program", False)]


def run_whole_program(modules: Sequence[SourceModule],
                      enabled_ids: Iterable[str],
                      stats: Optional[List[PassStat]] = None,
                      ) -> List[Finding]:
    """Run the enabled interprocedural passes over ``modules``.

    Args:
        modules: Every successfully-parsed module in the lint run; the
            passes see all of them at once (that is the point).
        enabled_ids: Selected rule ids; only the whole-program subsets
            (RPR11x, RPR21x, RPR6xx, RPR7xx) matter here, the rest are
            ignored.
        stats: When given, one :class:`PassStat` per executed pass
            (plus the shared index/call-graph build) is appended, for
            ``lint --stats``.

    Returns:
        Suppression-filtered findings, in (path, line, col, id) order.
    """
    enabled = frozenset(rule_id.upper() for rule_id in enabled_ids)
    want_dimensions = any(rule_id.startswith(DIMENSION_PREFIX)
                          for rule_id in enabled)
    want_purity = any(rule_id.startswith(PURITY_PREFIX)
                      for rule_id in enabled)
    want_twins = bool(enabled & TWIN_IDS)
    want_concurrency = any(rule_id.startswith(CONCURRENCY_PREFIX)
                           for rule_id in enabled)
    if not (want_dimensions or want_purity or want_twins
            or want_concurrency) or not modules:
        return []

    # (index into ``stats``, ids of the findings the pass produced) so
    # the table can be re-counted after suppression filtering below.
    pass_findings: List[tuple] = []

    def timed(name, runner):
        start = time.perf_counter()
        result = runner()
        if stats is not None:
            stats.append(PassStat(name=name,
                                  seconds=time.perf_counter() - start,
                                  findings=len(result)))
            pass_findings.append((len(stats) - 1, {id(f) for f in result}))
        return result

    start = time.perf_counter()
    index = build_project_index(modules)
    graph = build_call_graph(index)
    if stats is not None:
        stats.append(PassStat(name="index+callgraph",
                              seconds=time.perf_counter() - start,
                              findings=0))

    findings: List[Finding] = []
    if want_dimensions:
        findings.extend(timed(
            "dimensions (RPR11x)",
            lambda: run_dimensional_pass(index, graph, enabled)))
    if want_purity:
        findings.extend(timed(
            "purity (RPR21x)",
            lambda: run_purity_pass(index, graph, enabled)))
    if want_twins:
        findings.extend(timed(
            "twin-parity (RPR601/602)",
            lambda: run_twin_pass(index, graph, enabled)))
    if want_concurrency:
        findings.extend(timed(
            "concurrency (RPR70x)",
            lambda: run_concurrency_pass(index, graph, enabled)))

    suppressions_by_path: Dict[str, Dict[int, FrozenSet[str]]] = {}
    for module in modules:
        suppressions = expand_suppressions(
            collect_suppressions(module.source), module.tree)
        suppressions_by_path[module.path] = suppressions
    kept = [finding for finding in findings
            if not is_suppressed(
                suppressions_by_path.get(finding.path, {}),
                finding.line, finding.rule_id)]
    if stats is not None:
        # Report what survives suppression, so the table agrees with
        # the verdict the run actually renders.
        surviving = {id(f) for f in kept}
        for position, produced in pass_findings:
            stat = stats[position]
            stats[position] = PassStat(
                name=stat.name, seconds=stat.seconds,
                findings=len(produced & surviving))
    return sorted(kept)
