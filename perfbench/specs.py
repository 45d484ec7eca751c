"""Seeded inputs for the benchmark's three workloads.

Every generator turns the ``--seed`` argument into plain JSON run specs,
the scenario service's wire format (``repro.service.protocol``).  The
program under test receives only these specs, and the same seed always
yields the same specs.  Buffer sizing never varies with the seed: the
HEB policies seed their PAT once per buffer configuration, and a new
configuration inside the timed region would bill that set-up to the
workload.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed whose result digests are recorded in ``expected.json``.
DEFAULT_SEED = 1
#: Kept out of every run made while the benchmark was tuned; a later
#: gain claim must also hold on it.
HELD_OUT_SEED = 7919

#: The eight Table 1 workloads.
TABLE1 = ("PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS")

#: sweep: every policy x every Table 1 workload x this many trace seeds.
SWEEP_TRACE_SEEDS = 5
SWEEP_DURATION_H = 0.25
#: faulted: every policy x every Table 1 workload, one storm each.
FAULTED_DURATION_H = 0.25
FAULT_INTENSITIES = (0.25, 0.5, 0.75, 1.0)
#: service: 2-minute scenarios, 90% drawn from a pre-populated pool.
SERVICE_DURATION_H = 2.0 / 60.0
HOT_FRACTION = 0.9
SERVICE_CLIENTS = 2

Spec = Dict[str, Any]


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit non-zero.

    The benchmark always measures the program in the checkout it sits
    in, never an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/repro next to the benchmark; "
                         "run it from the root of a repository checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _policies() -> Tuple[str, ...]:
    use_source_tree()
    from repro.core import POLICY_NAMES
    return tuple(POLICY_NAMES)


def _spec(scheme: str, workload: str, duration_h: float,
          trace_seed: int) -> Spec:
    return {"scheme": scheme, "workload": workload,
            "setup": {"duration_h": duration_h, "seed": trace_seed}}


def sweep_specs(seed: int) -> List[Spec]:
    """The evaluation grid: policies x Table 1 workloads x trace seeds."""
    rng = random.Random(f"sweep:{seed}")
    trace_seeds = rng.sample(range(1, 100_000), SWEEP_TRACE_SEEDS)
    return [_spec(scheme, workload, SWEEP_DURATION_H, trace_seed)
            for trace_seed in trace_seeds
            for scheme in _policies()
            for workload in TABLE1]


def faulted_specs(seed: int) -> List[Spec]:
    """The resilience grid: each scenario carries a non-empty storm."""
    use_source_tree()
    from repro.experiments.resilience import fault_schedule_for
    from repro.units import hours

    rng = random.Random(f"faulted:{seed}")
    # Intensities rotate over schemes and workloads alike, so every seed
    # simulates the same mix of storms and seeds differ in detail, not in
    # how much fault handling the grid holds.
    offset = rng.randrange(len(FAULT_INTENSITIES))
    specs = []
    for row, scheme in enumerate(_policies()):
        for column, workload in enumerate(TABLE1):
            spec = _spec(scheme, workload, FAULTED_DURATION_H,
                         rng.randrange(1, 100_000))
            intensity = FAULT_INTENSITIES[
                (row + column + offset) % len(FAULT_INTENSITIES)]
            schedule = fault_schedule_for(
                intensity, hours(FAULTED_DURATION_H),
                seed=rng.randrange(1, 1_000_000))
            spec["faults"] = schedule.to_dict()
            specs.append(spec)
    return specs


def service_pool(seed: int) -> List[Spec]:
    """The hot pool, written to the result cache before timing."""
    rng = random.Random(f"pool:{seed}")
    return [_spec(scheme, workload, SERVICE_DURATION_H,
                  rng.randrange(1, 100_000))
            for scheme in _policies()
            for workload in TABLE1]


def service_draws(seed: int, client: int) -> Iterator[Tuple[str, Spec]]:
    """One client's endless request sequence of ``(kind, spec)`` draws.

    ``kind`` is ``"hot"`` for a pool spec and ``"cold"`` for a spec no
    other draw of the run repeats: cold trace seeds lie above every pool
    seed and are offset per client.
    """
    pool = service_pool(seed)
    policies = _policies()
    rng = random.Random(f"draws:{seed}:{client}")
    cold_base = 1_000_000 + rng.randrange(10**8) + client * 10**7
    cold = 0
    while True:
        if rng.random() < HOT_FRACTION:
            yield "hot", pool[rng.randrange(len(pool))]
        else:
            yield "cold", _spec(rng.choice(policies), rng.choice(TABLE1),
                                SERVICE_DURATION_H, cold_base + cold)
            cold += 1


def sample_indices(seed: int, count: int, size: int) -> List[int]:
    """Which results the benchmark re-derives with a fresh run."""
    return sorted(random.Random(f"sample:{seed}").sample(range(count),
                                                         min(size, count)))
