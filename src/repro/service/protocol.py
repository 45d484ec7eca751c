"""Wire format of the scenario service: JSON specs and error bodies.

A submission body is the JSON mirror of a frozen
:class:`~repro.runner.request.RunRequest`::

    {
      "scheme": "HEB-D",
      "workload": "PR",
      "setup": {"duration_h": 0.5, "seed": 3},
      "faults": {"seed": 7, "events": [
          {"kind": "outage", "start_s": 600.0, "duration_s": 60.0}]}
    }

Only ``scheme`` and ``workload`` are required; everything else defaults
exactly as the dataclasses default, so a spec and the request built from
it always content-address to the same cache key.  Parsing is strict —
unknown fields, wrong types, and unknown scheme/workload names raise
:class:`~repro.errors.SpecError` (or :class:`~repro.errors.FaultSpecError`
for a bad fault schedule) *before* anything is enqueued, and the HTTP
layer turns any :class:`~repro.errors.ReproError` into a structured 400
with the exception class name as the machine-readable code.  A malformed
spec can therefore never surface as a 500/traceback.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Dict, Mapping, Optional, Tuple, Type, Union

from ..config import ControllerConfig
from ..core import POLICY_NAMES
from ..errors import ReproError, SpecError
from ..faults import FaultSchedule, schedule_from_dict
from ..runner import ExperimentSetup, RunRequest
from ..workloads import workload_names
from ..workloads.solar import SolarConfig

#: Top-level spec fields, in the order :func:`request_to_spec` emits them.
SPEC_FIELDS: Tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(RunRequest))


def _field_types(cls: Type[Any]) -> Dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name]
            for field in dataclasses.fields(cls)}


#: Resolved field types of every dataclass a spec carries, resolved once
#: at import: the annotations are strings (``from __future__ import
#: annotations``), and each ``typing.get_type_hints`` call evaluates
#: them all again, which costs ten times the rest of parsing a spec.
_FIELD_TYPES: Dict[Type[Any], Dict[str, Any]] = {
    cls: _field_types(cls)
    for cls in (RunRequest, ExperimentSetup, ControllerConfig, SolarConfig)
}


def _type_name(hint: Any) -> str:
    return getattr(hint, "__name__", str(hint))


def _coerce_scalar(value: Any, hint: Any, where: str) -> Any:
    """Validate one non-dataclass field value against its type hint."""
    origin = typing.get_origin(hint)
    if origin is Union:  # Optional[float] is Union[float, None]
        if value is None:
            return None
        for arm in typing.get_args(hint):
            if arm is not type(None):
                return _coerce_scalar(value, arm, where)
    if hint is float:
        # bool is an int subclass; a spec saying ``"duration_h": true``
        # is a mistake, not a number.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(f"{where} must be a number, "
                            f"got {type(value).__name__}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{where} must be an integer, "
                            f"got {type(value).__name__}")
        return value
    if hint is bool:
        if not isinstance(value, bool):
            raise SpecError(f"{where} must be a boolean, "
                            f"got {type(value).__name__}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise SpecError(f"{where} must be a string, "
                            f"got {type(value).__name__}")
        return value
    raise SpecError(f"{where}: unsupported field type "
                    f"{_type_name(hint)}")  # pragma: no cover


def _dataclass_from_spec(cls: Type[Any], payload: Any, where: str) -> Any:
    """Build a config dataclass from its JSON spec, strictly."""
    if not isinstance(payload, Mapping):
        raise SpecError(f"{where} must be a JSON object, "
                        f"got {type(payload).__name__}")
    hints = _FIELD_TYPES[cls]
    unknown = sorted(set(payload) - hints.keys())
    if unknown:
        raise SpecError(f"{where} has unknown field(s) "
                        f"{', '.join(map(repr, unknown))}; "
                        f"known: {', '.join(sorted(hints))}")
    kwargs = {
        name: _coerce_scalar(value, hints[name], f"{where}.{name}")
        for name, value in payload.items()
    }
    return cls(**kwargs)


def _resolve_choice(value: Any, choices: Tuple[str, ...],
                    where: str) -> str:
    """Case-insensitively match ``value`` against ``choices``."""
    if not isinstance(value, str):
        raise SpecError(f"{where} must be a string, "
                        f"got {type(value).__name__}")
    by_lower = {choice.lower(): choice for choice in choices}
    resolved = by_lower.get(value.lower())
    if resolved is None:
        raise SpecError(f"unknown {where} {value!r}; "
                        f"known: {', '.join(choices)}")
    return resolved


def request_from_spec(payload: Any) -> RunRequest:
    """Parse a JSON submission body into a :class:`RunRequest`.

    Raises:
        SpecError: On a non-object payload, unknown/badly-typed fields,
            or an unknown scheme/workload.
        FaultSpecError: On a malformed ``faults`` schedule.
        ConfigurationError: On values the dataclasses themselves reject
            (e.g. a solar config without ``renewable: true``).
    """
    if not isinstance(payload, Mapping):
        raise SpecError(f"run spec must be a JSON object, "
                        f"got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(SPEC_FIELDS))
    if unknown:
        raise SpecError(f"run spec has unknown field(s) "
                        f"{', '.join(map(repr, unknown))}; "
                        f"known: {', '.join(SPEC_FIELDS)}")
    for required in ("scheme", "workload"):
        if required not in payload:
            raise SpecError(f"run spec is missing required field "
                            f"{required!r}")

    scheme = _resolve_choice(payload["scheme"], POLICY_NAMES, "scheme")
    workload = _resolve_choice(payload["workload"],
                               tuple(workload_names()), "workload")

    kwargs: Dict[str, Any] = {"scheme": scheme, "workload": workload}
    if payload.get("setup") is not None:
        kwargs["setup"] = _dataclass_from_spec(
            ExperimentSetup, payload["setup"], "setup")
    if payload.get("controller") is not None:
        kwargs["controller"] = _dataclass_from_spec(
            ControllerConfig, payload["controller"], "controller")
    if payload.get("solar") is not None:
        kwargs["solar"] = _dataclass_from_spec(
            SolarConfig, payload["solar"], "solar")
    if payload.get("faults") is not None:
        faults = payload["faults"]
        if not isinstance(faults, Mapping):
            raise SpecError(f"faults must be a JSON object, "
                            f"got {type(faults).__name__}")
        kwargs["faults"] = schedule_from_dict(dict(faults))

    hints = _FIELD_TYPES[RunRequest]
    for name in ("renewable", "start_hour", "policy_sc_fraction",
                 "policy_total_wh"):
        if name in payload:
            kwargs[name] = _coerce_scalar(payload[name], hints[name], name)
    return RunRequest(**kwargs)


def request_to_spec(request: RunRequest) -> Dict[str, Any]:
    """The JSON spec a request round-trips through (inverse of parse).

    ``request_from_spec(request_to_spec(r)) == r`` for every valid
    request, so clients can re-submit exactly what a server reported.
    """
    spec: Dict[str, Any] = {
        "scheme": request.scheme,
        "workload": request.workload,
        "setup": dataclasses.asdict(request.setup),
        "renewable": request.renewable,
        "start_hour": request.start_hour,
    }
    if request.controller is not None:
        spec["controller"] = dataclasses.asdict(request.controller)
    if request.solar is not None:
        spec["solar"] = dataclasses.asdict(request.solar)
    if request.policy_sc_fraction is not None:
        spec["policy_sc_fraction"] = request.policy_sc_fraction
    if request.policy_total_wh is not None:
        spec["policy_total_wh"] = request.policy_total_wh
    if request.faults is not None:
        spec["faults"] = request.faults.to_dict()
    return spec


def error_payload(error: ReproError,
                  key: Optional[str] = None) -> Dict[str, Any]:
    """The structured JSON body every service error response carries."""
    body: Dict[str, Any] = {
        "error": {
            "code": type(error).__name__,
            "message": str(error),
        },
    }
    if key is not None:
        body["key"] = key
    return body


__all__ = [
    "SPEC_FIELDS",
    "error_payload",
    "request_from_spec",
    "request_to_spec",
]
