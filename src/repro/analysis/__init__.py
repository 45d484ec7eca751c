"""Static analysis for the HEB reproduction (``python -m repro lint``).

A small AST-based lint framework plus a rule pack enforcing this
codebase's three load-bearing conventions:

* **unit discipline** (RPR1xx) — SI units with ``_w``/``_j``/``_c``
  name suffixes, conversions only through :mod:`repro.units`;
* **determinism** (RPR2xx) — code feeding the content-addressed result
  cache must not read clocks, entropy, or unordered containers;
* **exception hygiene** (RPR3xx) — raises stay inside the
  :class:`repro.errors.ReproError` contract, no broad ``except``.

On top of the per-file rules, four *whole-program* passes (see
:mod:`repro.analysis.semantics`) analyze every scanned module at once:
dimensional dataflow (RPR11x) infers physical units across assignments,
returns, and call-site bindings; cache-purity taint (RPR21x) flags
impurities reachable from the cache-feeding entry points; twin parity
(RPR6xx) keeps the batched engine classes in step with their scalar
twins; concurrency safety (RPR7xx) guards the process pool and the
service's event loop.  Reports render as text, JSON, or SARIF 2.1.0
(:mod:`repro.analysis.sarif`) for GitHub code scanning.  Results are
served incrementally from an on-disk cache keyed by content hashes
(:mod:`repro.analysis.cache`).

Suppress a finding in place with ``# repro: noqa[RPR102]`` (or a bare
``# repro: noqa`` for every rule on that line); on a multi-line simple
statement the marker covers the whole statement.  See
``docs/analysis.md`` for how to add a rule.
"""

from __future__ import annotations

from .cache import AnalysisCache, analysis_fingerprint
from .changed import changed_python_files
from .engine import (
    PARSE_ERROR_RULE_ID,
    LintReport,
    iter_python_files,
    lint_paths,
    lint_source,
)
from .findings import Finding
from .reporter import render_json, render_text
from .rules import FileContext, Rule, all_rules, register, resolve_rule_ids
from .sarif import render_sarif, sarif_document
from .suppressions import collect_suppressions, expand_suppressions

__all__ = [
    "AnalysisCache",
    "PARSE_ERROR_RULE_ID",
    "Finding",
    "FileContext",
    "LintReport",
    "Rule",
    "all_rules",
    "analysis_fingerprint",
    "changed_python_files",
    "collect_suppressions",
    "expand_suppressions",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "sarif_document",
    "resolve_rule_ids",
]
