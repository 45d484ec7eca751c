"""Helpers shared by the benchmark's program-side processes.

A program process (``worker.py`` for the grid workloads, ``serve.py``
for the service) sets itself up, prints ``READY`` on stdout, and then
follows the orchestrator's lead.  Every other message it sends is one
tagged JSON line, so stray library output cannot be mistaken for one.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from typing import Any, Dict, Iterable, Optional


def announce(tag: str, payload: Optional[Dict[str, Any]] = None) -> None:
    """Send one protocol line to the orchestrator."""
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up() -> None:
    """Pay the program's per-process lazy set-up before any timing.

    One batched group and one scalar run over every policy: this seeds
    the HEB policies' memoized pilot-run PAT for the prototype buffer
    configuration (seconds for HEB-D) and touches both engines once.
    """
    from repro.core import POLICY_NAMES
    from repro.runner import (ExperimentRunner, ExperimentSetup,
                              RunRequest, execute_request)

    minute = ExperimentSetup(duration_h=1.0 / 60.0)
    ExperimentRunner(jobs=1).map([RunRequest(scheme, "WS", setup=minute)
                                  for scheme in POLICY_NAMES])
    execute_request(RunRequest("HEB-D", "WS", setup=minute))


def canonical(result: Any) -> Dict[str, Any]:
    """A result as the JSON data the wire and the cache carry."""
    from repro.sim.results import result_to_dict
    return json.loads(json.dumps(result_to_dict(result)))


def digest(results: Iterable[Any]) -> str:
    """SHA-256 over every simulated statistic of ``results``, in order."""
    from repro.sim.results import result_to_dict
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(json.dumps(result_to_dict(result), sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
