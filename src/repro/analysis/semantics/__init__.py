"""Whole-program analysis layer (``repro.analysis.semantics``).

The per-file rules in :mod:`repro.analysis.checkers` see one module at a
time; this package builds a *project-wide* view — a symbol table over
every scanned module plus a call graph resolving the common call shapes
(module functions through imports, ``self.method()``, annotated
parameters, ``ClassName(...)`` constructors, ``functools.partial``) —
and runs four interprocedural passes on top of it:

* **dimensional dataflow** (RPR11x, :mod:`.dimensions`) — infers a
  physical unit for every name from suffixes, ``repro.units`` helper
  signatures, and literals, propagates it through assignments, returns,
  and call-site argument binding, and flags cross-function mismatches a
  single-file rule cannot see;
* **cache-purity taint** (RPR21x, :mod:`.purity`) — computes the set of
  functions reachable from the cache-feeding entry points
  (``execute_request``, ``Simulation.run``) and flags any impurity on a
  reachable path (clocks, unseeded RNGs, env/filesystem reads,
  unordered-set iteration, mutable module-global writes), wherever the
  function lives;
* **twin parity** (RPR601/602, :mod:`.twins`) — checks the declared
  scalar↔batched class pairs (``Simulation``↔``BatchSimulation`` and
  friends) for public methods, attributes, and numeric constants with
  no batched counterpart or with drifted signatures/values;
* **concurrency safety** (RPR701–704, :mod:`.concurrency`) — finds the
  process-pool boundaries, closes over the worker-reachable functions,
  and flags unpicklable submissions, worker-side module-global writes,
  shared RNG/cache state, and blocking calls in ``async def`` bodies.

The passes are wired into the lint engine: their rule ids register in
the ordinary registry, and :func:`run_whole_program` is invoked by
:func:`repro.analysis.engine.lint_paths` whenever one of them is
selected.
"""

from __future__ import annotations

from .analyzer import run_whole_program
from .callgraph import CallGraph, CallSite, build_call_graph
from .concurrency import run_concurrency_pass
from .twins import TWIN_REGISTRY, TwinPair, run_twin_pass
from .symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    SourceModule,
    build_project_index,
    module_name_for_path,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "SourceModule",
    "TWIN_REGISTRY",
    "TwinPair",
    "build_call_graph",
    "build_project_index",
    "module_name_for_path",
    "run_concurrency_pass",
    "run_twin_pass",
    "run_whole_program",
]
