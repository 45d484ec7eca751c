"""Run results, serialization, and cross-scheme comparison helpers.

Results are portable: :func:`result_to_dict` / :func:`result_from_dict`
round-trip every field exactly (floats survive via JSON's shortest-repr
encoding), and :func:`dump_results` / :func:`load_results` store whole
result sets as JSON lines — the format the runner's on-disk cache and
any cross-machine result exchange use.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..perf.stats import PerfReport
from ..storage.lifetime import LifetimeReport
from .metrics import RunMetrics

#: Bumped whenever the serialized layout changes incompatibly; stored in
#: every JSON line so stale cache entries are rejected, not misparsed.
#: Version 2 added ``RunMetrics.fault_downtime_s``.
RESULT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class SlotRecord:
    """One control slot's planning and outcome (for analysis/debugging)."""

    index: int
    note: str
    r_lambda: float
    peak_w: float
    valley_w: float
    peak_duration_s: float
    sc_usable_end_j: float
    battery_usable_end_j: float
    downtime_in_slot_s: float


@dataclass(frozen=True)
class RunResult:
    """Everything one simulation run produced."""

    scheme: str
    workload: str
    metrics: RunMetrics
    lifetime: LifetimeReport
    slots: Tuple[SlotRecord, ...]
    #: Wall-clock measurement of this run, present only when the engine
    #: was profiled.  Excluded from equality and serialization — two runs
    #: that differ only in timing are the same result.
    perf: Optional[PerfReport] = field(default=None, compare=False,
                                       repr=False)

    def summary(self) -> Dict[str, float]:
        """Flat dict of the headline numbers (for tabular reports)."""
        m = self.metrics
        row = {
            "energy_efficiency": m.energy_efficiency,
            "server_downtime_s": m.server_downtime_s,
            "battery_lifetime_years": m.battery_lifetime_years,
            "unserved_energy_j": m.unserved_energy_j,
        }
        if m.reu is not None:
            row["reu"] = m.reu
        return row

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON-compatible types (see module docs)."""
        return result_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return result_from_dict(payload)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

#: Field names of the serialized records, in declaration order.  Every
#: field is a scalar except ``RunMetrics.fault_downtime_s``, so a shallow
#: copy plus a copy of that one dict equals ``dataclasses.asdict``.
_METRICS_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))
_LIFETIME_FIELDS = tuple(f.name for f in dataclasses.fields(LifetimeReport))
_SLOT_FIELDS = tuple(f.name for f in dataclasses.fields(SlotRecord))


def _fields_to_dict(record: Any, names: Tuple[str, ...]) -> Dict[str, Any]:
    return {name: getattr(record, name) for name in names}


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Serialize one :class:`RunResult` to JSON-compatible types.

    The returned dict shares no mutable object with ``result``.
    """
    metrics = _fields_to_dict(result.metrics, _METRICS_FIELDS)
    if metrics["fault_downtime_s"] is not None:
        metrics["fault_downtime_s"] = dict(metrics["fault_downtime_s"])
    return {
        "format": RESULT_FORMAT_VERSION,
        "scheme": result.scheme,
        "workload": result.workload,
        "metrics": metrics,
        "lifetime": _fields_to_dict(result.lifetime, _LIFETIME_FIELDS),
        "slots": [_fields_to_dict(slot, _SLOT_FIELDS)
                  for slot in result.slots],
    }


def result_from_dict(payload: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` serialized by :func:`result_to_dict`.

    Raises:
        ValueError: On a missing/unknown format tag or malformed payload.
    """
    version = payload.get("format")
    if version != RESULT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})")
    try:
        return RunResult(
            scheme=payload["scheme"],
            workload=payload["workload"],
            metrics=RunMetrics(**payload["metrics"]),
            lifetime=LifetimeReport(**payload["lifetime"]),
            slots=tuple(SlotRecord(**slot) for slot in payload["slots"]),
        )
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed RunResult payload: {error}") from error


def to_json_line(result: RunResult) -> str:
    """One compact JSON line for a result (JSONL record)."""
    return json.dumps(result_to_dict(result), sort_keys=True,
                      separators=(",", ":"))


def from_json_line(line: str) -> RunResult:
    """Parse one JSONL record back into a :class:`RunResult`."""
    return result_from_dict(json.loads(line))


def dump_results(results: Iterable[RunResult],
                 path: Union[str, Path]) -> int:
    """Write results as JSON lines; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as stream:
        for result in results:
            stream.write(to_json_line(result))
            stream.write("\n")
            count += 1
    return count


def load_results(path: Union[str, Path]) -> List[RunResult]:
    """Read a JSONL file written by :func:`dump_results`."""
    results: List[RunResult] = []
    with Path(path).open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                results.append(from_json_line(line))
    return results


def average_metric(results: Sequence[RunResult],
                   getter: Callable[[RunMetrics], Optional[float]]) -> float:
    """Mean of one metric across runs (ignores None values)."""
    values = [v for v in (getter(r.metrics) for r in results)
              if v is not None]
    if not values:
        raise ValueError("no values to average")
    return sum(values) / len(values)


def compare_schemes(results: Sequence[RunResult],
                    baseline: str = "BaOnly"
                    ) -> Dict[str, Dict[str, float]]:
    """Per-scheme means of the Figure 12 metrics, normalized to a baseline.

    Returns a mapping ``scheme -> row`` where each row carries the raw
    means plus ``*_vs_baseline`` ratios.  Downtime ratios below 1.0 mean
    *less* downtime than the baseline; lifetime ratios above 1.0 mean a
    longer-lived battery — matching how the paper phrases its headline
    numbers ("reduce system downtime by 41%", "extend UPS lifetime 4.7X").
    """
    by_scheme: Dict[str, List[RunResult]] = {}
    for result in results:
        by_scheme.setdefault(result.scheme, []).append(result)
    if baseline not in by_scheme:
        raise ValueError(f"baseline scheme {baseline!r} missing from results")

    def mean(scheme: str,
             getter: Callable[[RunMetrics], float]) -> float:
        values = [getter(r.metrics) for r in by_scheme[scheme]]
        return sum(values) / len(values)

    def mean_optional(scheme: str,
                      getter: Callable[[RunMetrics], Optional[float]],
                      ) -> Optional[float]:
        values = [v for v in (getter(r.metrics) for r in by_scheme[scheme])
                  if v is not None]
        return sum(values) / len(values) if values else None

    table: Dict[str, Dict[str, float]] = {}
    base_ee = mean(baseline, lambda m: m.energy_efficiency)
    base_down = mean(baseline, lambda m: m.server_downtime_s)
    base_life = mean(baseline, lambda m: m.battery_lifetime_years)
    base_reu = mean_optional(baseline, lambda m: m.reu)
    base_capture = mean_optional(baseline, lambda m: m.renewable_capture)

    for scheme, runs in by_scheme.items():
        row: Dict[str, float] = {
            "energy_efficiency": mean(scheme, lambda m: m.energy_efficiency),
            "server_downtime_s": mean(scheme, lambda m: m.server_downtime_s),
            "battery_lifetime_years": mean(
                scheme, lambda m: m.battery_lifetime_years),
            "runs": float(len(runs)),
        }
        reu = mean_optional(scheme, lambda m: m.reu)
        if reu is not None:
            row["reu"] = reu
        capture = mean_optional(scheme, lambda m: m.renewable_capture)
        if capture is not None:
            row["renewable_capture"] = capture
            if base_capture:
                row["renewable_capture_vs_baseline"] = (
                    capture / base_capture)
        if base_ee:
            row["energy_efficiency_vs_baseline"] = (
                row["energy_efficiency"] / base_ee)
        if base_down and base_down > 0:
            row["server_downtime_vs_baseline"] = (
                row["server_downtime_s"] / base_down)
        if base_life and base_life > 0:
            row["battery_lifetime_vs_baseline"] = (
                row["battery_lifetime_years"] / base_life)
        if reu is not None and base_reu:
            row["reu_vs_baseline"] = reu / base_reu
        table[scheme] = row
    return table
