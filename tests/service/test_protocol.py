"""Spec parsing: strict on the way in, lossless on the way out.

``request_from_spec(request_to_spec(r)) == r`` for every valid request
(so a client can re-submit exactly what a server reported and hit the
same cache key), and every malformed spec fails with a structured
:class:`SpecError` before anything touches the queue.
"""

from __future__ import annotations

import typing
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.config import ControllerConfig
from repro.core import POLICY_NAMES
from repro.errors import SpecError
from repro.faults import FaultSchedule
from repro.faults.events import UtilityOutage
from repro.runner import ExperimentSetup, RunRequest, cache_key
from repro.service import request_from_spec, request_to_spec
from repro.workloads import workload_names
from repro.workloads.solar import SolarConfig

WORKLOADS = tuple(workload_names())

run_requests = st.builds(
    RunRequest,
    scheme=st.sampled_from(POLICY_NAMES),
    workload=st.sampled_from(WORKLOADS),
    setup=st.builds(
        ExperimentSetup,
        duration_h=st.sampled_from((1.0 / 60.0, 0.25, 1.0, 4.0)),
        budget_w=st.one_of(st.none(),
                           st.floats(min_value=100.0, max_value=500.0,
                                     allow_nan=False)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        sc_fraction=st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False),
    ),
    renewable=st.booleans(),
    start_hour=st.floats(min_value=0.0, max_value=23.0,
                         allow_nan=False),
    faults=st.one_of(
        st.none(),
        st.builds(
            lambda seed, start, duration: FaultSchedule.of(
                UtilityOutage(start_s=start, duration_s=duration),
                seed=seed),
            st.integers(min_value=0, max_value=100),
            st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
            st.floats(min_value=1.0, max_value=600.0, allow_nan=False),
        ),
    ),
)


@settings(max_examples=100, deadline=None)
@given(request=run_requests)
def test_spec_round_trip_is_lossless(request):
    spec = request_to_spec(request)
    rebuilt = request_from_spec(spec)
    assert rebuilt == request
    assert cache_key(rebuilt) == cache_key(request)


def test_minimal_spec_uses_dataclass_defaults():
    request = request_from_spec({"scheme": "HEB-D", "workload": "PR"})
    assert request == RunRequest(scheme="HEB-D", workload="PR")


def test_scheme_and_workload_resolve_case_insensitively():
    request = request_from_spec({"scheme": "heb-d", "workload": "pr"})
    assert request.scheme == "HEB-D"
    assert request.workload == "PR"


@pytest.mark.parametrize("payload, fragment", [
    ([1, 2], "must be a JSON object"),
    ({"workload": "PR"}, "missing required field 'scheme'"),
    ({"scheme": "HEB-D"}, "missing required field 'workload'"),
    ({"scheme": "HEB-D", "workload": "PR", "turbo": True},
     "unknown field"),
    ({"scheme": "HEB-Z", "workload": "PR"}, "unknown scheme"),
    ({"scheme": "HEB-D", "workload": "XX"}, "unknown workload"),
    ({"scheme": 3, "workload": "PR"}, "scheme must be a string"),
    ({"scheme": "HEB-D", "workload": "PR", "setup": "fast"},
     "setup must be a JSON object"),
    ({"scheme": "HEB-D", "workload": "PR",
      "setup": {"duration_h": True}}, "must be a number"),
    ({"scheme": "HEB-D", "workload": "PR",
      "setup": {"seed": 1.5}}, "must be an integer"),
    ({"scheme": "HEB-D", "workload": "PR",
      "setup": {"warp": 9}}, "unknown field"),
    ({"scheme": "HEB-D", "workload": "PR", "renewable": "yes"},
     "must be a boolean"),
])
def test_malformed_specs_raise_spec_error(payload, fragment):
    with pytest.raises(SpecError, match=fragment):
        request_from_spec(payload)


def test_spec_and_request_share_one_cache_key():
    """A spec's key equals the key of the request built in-process with
    the same parameters — the content-addressing contract the service's
    dedup and cache hits both rest on."""
    spec = {"scheme": "SCFirst", "workload": "WC",
            "setup": {"duration_h": 0.5, "seed": 9}}
    direct = RunRequest(scheme="SCFirst", workload="WC",
                        setup=ExperimentSetup(duration_h=0.5, seed=9))
    assert cache_key(request_from_spec(spec)) == cache_key(direct)


def test_parsing_resolves_type_hints_at_most_once_per_dataclass(
        monkeypatch):
    """Type hints are per class, not per spec: resolving the string
    annotations costs ten times the rest of parsing a spec."""
    resolved = Counter()
    real_get_type_hints = typing.get_type_hints

    def counting(obj, *args, **kwargs):
        resolved[obj] += 1
        return real_get_type_hints(obj, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counting)
    for seed in range(20):
        request = RunRequest(
            scheme="HEB-D", workload="PR",
            setup=ExperimentSetup(duration_h=0.5, seed=seed),
            controller=ControllerConfig(), solar=SolarConfig(),
            renewable=True, policy_sc_fraction=0.3)
        assert request_from_spec(request_to_spec(request)) == request
    assert all(count <= 1 for count in resolved.values()), resolved
