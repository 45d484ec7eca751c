"""SARIF 2.1.0 output for ``python -m repro lint --format sarif``.

SARIF (Static Analysis Results Interchange Format) is the OASIS
standard GitHub code scanning ingests: uploading one run per lint
invocation surfaces findings as inline review annotations.  The
document here is deliberately minimal — one ``run``, one
``reportingDescriptor`` per rule that was enabled for the invocation,
one ``result`` per finding — but schema-complete, so it validates
against the official 2.1.0 JSON schema (``tests/analysis/test_sarif.py``
checks this whenever :mod:`jsonschema` is importable).

Stability contract: like :func:`repro.analysis.reporter.render_json`,
the serialization uses sorted keys and a fixed indent so that repeated
runs over an unchanged tree are byte-identical and diff cleanly.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .. import __version__
from .engine import LintReport
from .findings import Finding
from .rules import all_rules

#: The schema the emitted document declares (and is tested against).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Rule-family prefix -> SARIF ``level`` for its results.  RPR703
#: (RNG/cache state duplicated across pool workers) is advisory
#: (``note``): the pattern can be intended.  Everything else is a
#: correctness convention and reports as ``warning``.
_LEVEL_BY_PREFIX = {
    "RPR703": "note",
}
_DEFAULT_LEVEL = "warning"

#: Informative URI for every rule's help link.
_HELP_URI = "https://example.invalid/repro-heb/docs/analysis.md"


def result_level(rule_id: str) -> str:
    """SARIF severity level for one rule id."""
    for prefix, level in _LEVEL_BY_PREFIX.items():
        if rule_id.startswith(prefix):
            return level
    return _DEFAULT_LEVEL


def _descriptor(rule_id: str, rule_class: type) -> Dict[str, Any]:
    summary = rule_class.summary()
    return {
        "id": rule_id,
        "name": rule_class.__name__,
        "shortDescription": {"text": summary},
        "helpUri": _HELP_URI,
        "defaultConfiguration": {"level": result_level(rule_id)},
    }


def _result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule_id,
        "level": result_level(finding.rule_id),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
    }


def sarif_document(report: LintReport) -> Dict[str, Any]:
    """The report as a SARIF 2.1.0 log object (plain dict)."""
    registry = all_rules()
    descriptors = [
        _descriptor(rule_id, registry[rule_id])
        for rule_id in report.rule_ids
        if rule_id in registry
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": _HELP_URI,
                        "version": __version__,
                        "rules": descriptors,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///"},
                },
                "columnKind": "utf16CodeUnits",
                "results": [_result(f) for f in report.findings],
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    """Stable SARIF serialization (sorted keys, 2-space indent)."""
    return json.dumps(sarif_document(report), sort_keys=True, indent=2)
