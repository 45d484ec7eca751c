"""Parallel, cache-aware experiment runner.

The evaluation grid (schemes x workloads x panels) is embarrassingly
parallel; this package fans it out over worker processes and memoizes
results on disk keyed by request content + code version:

    from repro.runner import ExperimentRunner, ResultCache, using_runner
    from repro.experiments import run_fig12

    runner = ExperimentRunner(jobs=4, cache=ResultCache("~/.cache/repro"))
    with using_runner(runner):
        results = run_fig12(duration_h=1.0)   # parallel + cached

See ``docs/runner.md`` for the cache layout and invalidation rules.
"""

from .batch import (
    execute_request_group,
    group_key,
    plan_units,
)
from .cache import CACHE_DIR_ENV, CacheStats, ResultCache, default_cache_dir
from .keys import cache_key, canonical_json, code_fingerprint, freeze
from .request import (
    DEFAULT_RENEWABLE_SOLAR,
    ExperimentSetup,
    RunRequest,
    build_simulation,
    execute_request,
)
from .runner import (
    ExperimentRunner,
    get_runner,
    run_requests,
    set_runner,
    using_runner,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "DEFAULT_RENEWABLE_SOLAR",
    "ExperimentRunner",
    "ExperimentSetup",
    "ResultCache",
    "RunRequest",
    "build_simulation",
    "cache_key",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "execute_request",
    "execute_request_group",
    "freeze",
    "get_runner",
    "group_key",
    "plan_units",
    "run_requests",
    "set_runner",
    "using_runner",
]
