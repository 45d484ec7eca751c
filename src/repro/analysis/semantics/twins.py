"""Pass 4a: scalar/batch twin parity over a declared pairing registry (RPR60x).

The batched engine (PR 7) is bit-exact with the scalar oracle because
every scalar structure grew a lane-parallel twin: ``Simulation`` ↔
``BatchSimulation``, ``ServerCluster`` ↔ ``BatchCluster``, scheduler,
buffer, and IPDU twins.  Nothing *structural* enforced that pairing —
the next engine PR can add a scalar method, attribute, or tuning
constant and silently leave the batched twin behind, and the drift only
surfaces when a golden fixture diverges (or worse, doesn't, because the
batched path quietly falls back or misbehaves).

This pass makes the pairing a checked contract.  A **pairing registry**
(:data:`TWIN_REGISTRY`) declares, per twin, the scalar and batch class
*names*, member aliases that intentionally differ (``run`` ↔
``run_all``), and exemptions — scalar members that deliberately have no
batched counterpart, each carrying the reason, so the registry doubles
as documentation of the twin API surface.

For every registered pair present in the scanned module set the pass
checks:

* **RPR601 — missing counterpart.**  Every public scalar method,
  public instance attribute, and class-level numeric constant must have
  a batched counterpart: the same name, a conventional per-lane variant
  (``shed_lru`` → ``shed_lru_lane``, ``total_downtime_s`` →
  ``total_downtime_lane``), a registry alias, or — for constants — a
  read of ``ScalarClass.CONST`` anywhere in the batch module.
* **RPR602 — signature / constant drift.**  Where a counterpart method
  exists, every scalar parameter must be accepted by the batched twin
  (extra lane/mask parameters are expected and ignored), literal
  defaults shared by name must agree, and same-named class constants
  must hold the same numeric value.

Both rules anchor at the *batch* class — the incomplete twin is the
thing to fix — while the message names the scalar definition site, so
the finding reads across the module boundary the defect actually spans.
A pair whose classes are not both in the scanned set is skipped: a
``--changed`` lint of one module must not report the other missing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..findings import Finding
from ..rules import Rule, register
from .callgraph import iter_function_nodes
from .symbols import FUNCTION_NODES, ClassInfo, ProjectIndex

#: Unit suffixes stripped when deriving per-lane counterpart names
#: (``total_downtime_s`` -> ``total_downtime_lane``).
_UNIT_SUFFIXES = ("_s", "_j", "_w", "_wh", "_c")

#: Batch parameter names that are expected extras (the lane selector,
#: masks, and preallocated outputs) and never count as drift.
BATCH_EXTRA_PARAMS = frozenset({
    "lane", "lanes", "mask", "out", "n", "no_pools", "total",
})


@dataclass(frozen=True)
class TwinPair:
    """One declared scalar/batch pairing.

    Attributes:
        scalar: Simple class name of the scalar structure.
        batch: Simple class name of its lane-parallel twin.
        aliases: scalar member name -> batch member name for
            counterparts whose names intentionally differ.
        exempt: scalar member name -> reason, for scalar API surface
            that deliberately has no batched counterpart.  The reason
            string is the documentation; an empty reason is invalid by
            convention (reviewed in ``docs/analysis.md``).
        check_attrs: Set False for twins that wrap whole scalar
            instances (per-lane state lives in the wrapped objects, so
            attribute parity is meaningless).
    """

    scalar: str
    batch: str
    aliases: Mapping[str, str] = field(default_factory=dict)
    exempt: Mapping[str, str] = field(default_factory=dict)
    check_attrs: bool = True


#: The declared pairing registry for this repository.  Exemptions carry
#: their reasons inline — this table *is* the twin contract reviewers
#: audit when the engine grows state (see docs/analysis.md, Pass 4).
#: The storage devices have no pair: each of their flows is one kernel
#: (``repro.storage.kernels``) that both engines run.
TWIN_REGISTRY: Tuple[TwinPair, ...] = (
    TwinPair(
        scalar="Simulation", batch="BatchSimulation",
        aliases={"run": "run_all"},
        # The batch twin consumes whole scalar Simulation objects; all
        # constructor attributes live on the wrapped sims.
        check_attrs=False,
    ),
    TwinPair(
        scalar="ServerCluster", batch="BatchCluster",
        aliases={
            "shed_lru": "shed_lru_lane",
            "restart_offline": "restart_offline_lane",
            "total_downtime_s": "total_downtime_lanes",
            "total_restart_energy_j": "total_restart_energy_lane",
            "total_restarts": "total_restarts_lane",
        },
        exempt={
            "config": "lanes share one ServerConfig; the cluster-level "
                      "config is validated by the batch simulation",
            "servers": "no per-lane Server objects exist; state is the "
                       "(lanes, servers) code arrays",
            "version": "the scalar cache-invalidation counter; batch "
                       "state arrays are rebuilt per tick, not memoized",
            "off_indices": "scalar fast-path index cache; the batch "
                           "loop uses off_mask()",
            "available_servers": "object-level view; batch callers use "
                                 "powered_mask()",
            "offline_servers": "object-level view; batch callers use "
                               "off_mask()",
            "draws_w": "list-based wrapper kept for the scalar API; "
                       "batch callers use draw_array()",
            "draws_by_source": "scalar reporting helper the batched "
                               "engine never needs (draws are grouped "
                               "via source-code masks)",
            "assign_all": "the batch scheduler's read-only all-utility "
                          "template makes the broadcast assignment "
                          "explicit",
            "reset": "batch lanes are single-use (one run per "
                     "BatchSimulation); fresh lanes are new arrays",
        },
    ),
    TwinPair(
        scalar="LoadScheduler", batch="BatchScheduler",
        exempt={
            "calls": "scalar-side telemetry counter; batch groups "
                     "report through BatchAssignment, and a per-lane "
                     "call count would always equal the tick count",
            "within_budget_hits": "counts the scalar all-utility fast "
                                  "path; the batch scheduler takes the "
                                  "equivalent fast path per whole tick "
                                  "(no per-lane decision to count)",
            "order_reuses": "counts scalar order-cache hits; the batch "
                            "scheduler argsorts the (lanes, servers) "
                            "demand slab every call (no cache)",
        },
    ),
    TwinPair(
        scalar="HybridBuffers", batch="BatchBuffers",
        aliases={
            "sc_usable_energy_j": "sc_usable_j",
            "battery_usable_energy_j": "battery_usable_j",
        },
        # The batch twin mirrors the engine-facing charge/discharge
        # surface; sizing/TCO helpers stay scalar-only by design.
        exempt={
            "sc": "per-lane devices live in BatchSupercap arrays",
            "battery": "per-lane devices live in BatchBattery arrays",
            "config": "lanes share one BufferConfig (validated by the "
                      "batch simulation)",
            "reset": "batch lanes are single-use; fresh lanes are new "
                     "arrays",
            "total_capex": "TCO sizing math stays on the scalar object "
                           "(computed before/after a run, never per "
                           "tick)",
            "charge": "decomposed into charge_battery/charge_sc (plus "
                      "settle) in the batch API; the merged scalar "
                      "entry point has no single lane analogue",
            "discharge": "decomposed into discharge_battery/"
                         "discharge_sc in the batch API",
            "pool": "scalar pool-object lookup; batch callers address "
                    "devices through the sc_*/battery_* lane arrays",
            "energy_in_j": "accounting reads come from the wrapped "
                           "scalar buffers after write_back()",
            "energy_out_j": "accounting reads come from the wrapped "
                            "scalar buffers after write_back()",
            "total_stored_j": "accounting reads come from the wrapped "
                              "scalar buffers after write_back()",
            "lifetime_report": "reporting stays on the wrapped scalar "
                               "buffers after write_back()",
        },
        check_attrs=False,
    ),
    TwinPair(
        scalar="IPDU", batch="BatchIPDU",
        aliases={
            "record_array": "record_tick",
            "total_energy_j": "total_energy_lane",
        },
        exempt={
            "record": "scalar-convenience wrapper over record_array; "
                      "the batch path meters whole (lanes, outlets) "
                      "slices",
            "set_outlet": "outlet gating rides the cluster state codes "
                          "in the batched engine",
            "latest": "no result reads meter history, so the batch "
                      "IPDU keeps none",
            "history": "no result reads meter history, so the batch "
                       "IPDU keeps none",
        },
        check_attrs=False,
    ),
    TwinPair(
        scalar="SwitchFabric", batch="BatchFabric",
        aliases={
            "apply": "apply_sources",
            "total_switches": "total_switches_lane",
        },
        exempt={
            "positions": "exposed as the (lanes, relays) code array "
                         "attribute rather than a RelayPosition list",
        },
        check_attrs=False,
    ),
)


@register
class MissingTwinCounterpartRule(Rule):
    """Every public scalar member needs a batched-twin counterpart.

    Whole-program: the scalar and batch classes live in different
    modules; only a project-wide view can see that a scalar method,
    attribute, or tuning constant has no lane-parallel counterpart in
    the registered twin (the registry's aliases/exemptions are the
    sanctioned escape hatches).
    """

    id = "RPR601"
    whole_program = True


@register
class TwinSignatureDriftRule(Rule):
    """Twin counterparts must not drift in signature or constant value.

    Whole-program: a scalar method growing a parameter (or a retuned
    scalar constant) that the batched twin does not mirror makes the
    pair silently diverge; the check compares the definitions across
    their modules.
    """

    id = "RPR602"
    whole_program = True


def _counterpart_names(scalar_name: str,
                       pair: TwinPair) -> List[str]:
    """Accepted batch member names for one scalar member, in order."""
    names = [scalar_name]
    alias = pair.aliases.get(scalar_name)
    if alias:
        names.insert(0, alias)
    names.extend([f"{scalar_name}_lane", f"{scalar_name}_lanes",
                  f"{scalar_name}_all", f"batch_{scalar_name}"])
    for suffix in _UNIT_SUFFIXES:
        if scalar_name.endswith(suffix):
            stem = scalar_name[:-len(suffix)]
            names.extend([f"{stem}_lane", f"{stem}_lanes"])
    seen: Dict[str, None] = {}
    for name in names:
        seen.setdefault(name)
    return list(seen)


def _class_constants(cls: ClassInfo) -> Dict[str, Tuple[float, int]]:
    """Class-level numeric constants: name -> (value, line)."""
    constants: Dict[str, Tuple[float, int]] = {}
    for stmt in cls.node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if (value is not None and isinstance(value, ast.Constant)
                and isinstance(value.value, (int, float))
                and not isinstance(value.value, bool)):
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = (value.value, stmt.lineno)
        elif (value is not None and isinstance(value, ast.UnaryOp)
              and isinstance(value.op, ast.USub)
              and isinstance(value.operand, ast.Constant)
              and isinstance(value.operand.value, (int, float))):
            for target in targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = (-value.operand.value,
                                            stmt.lineno)
    return constants


def _instance_attrs(index: ProjectIndex, cls: ClassInfo) -> List[str]:
    """Public instance-attribute names assigned anywhere in the class."""
    names: Dict[str, None] = {}
    for field_name in cls.fields:
        if not field_name.startswith("_"):
            names.setdefault(field_name)
    for method_qual in cls.methods.values():
        fn = index.functions[method_qual]
        for node in iter_function_nodes(fn.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and not target.attr.startswith("_")):
                    names.setdefault(target.attr)
    return list(names)


def _module_mentions_name(tree: ast.Module, name: str) -> bool:
    """True when ``name`` appears as an identifier anywhere in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


class TwinParityAnalysis:
    """Registry-driven parity check between scalar/batch class pairs."""

    def __init__(self, index: ProjectIndex,
                 registry: Sequence[TwinPair] = TWIN_REGISTRY) -> None:
        self.index = index
        self.registry = registry
        self._by_name: Dict[str, List[ClassInfo]] = {}
        for cls in index.classes.values():
            self._by_name.setdefault(cls.name, []).append(cls)

    # -- pairing --------------------------------------------------------

    def _match(self, scalar: ClassInfo,
               candidates: List[ClassInfo]) -> ClassInfo:
        """Prefer the batch class sharing the scalar's package root."""
        root = scalar.module.split(".")[0]
        for candidate in candidates:
            if candidate.module.split(".")[0] == root:
                return candidate
        return candidates[0]

    def pairs(self) -> Iterator[Tuple[TwinPair, ClassInfo, ClassInfo]]:
        for spec in self.registry:
            scalars = sorted(self._by_name.get(spec.scalar, []),
                             key=lambda c: c.qualname)
            batches = sorted(self._by_name.get(spec.batch, []),
                             key=lambda c: c.qualname)
            if not batches:
                continue  # partial scan (e.g. --changed): not provable
            for scalar in scalars:
                yield spec, scalar, self._match(scalar, batches)

    # -- member surfaces ------------------------------------------------

    def _batch_members(self, batch: ClassInfo) -> Dict[str, str]:
        """Batch member name -> kind (method/attr/constant)."""
        members: Dict[str, str] = {}
        for name in _class_constants(batch):
            members[name] = "constant"
        for name in _instance_attrs(self.index, batch):
            members.setdefault(name, "attr")
        for name in batch.methods:
            members[name] = "method"
        return members

    # -- checks ---------------------------------------------------------

    def check(self, enabled: frozenset) -> List[Finding]:
        findings: List[Finding] = []
        for spec, scalar, batch in self.pairs():
            findings.extend(self._check_pair(spec, scalar, batch,
                                             enabled))
        return findings

    def _finding(self, cls: ClassInfo, line: int, rule_id: str,
                 message: str) -> Finding:
        return Finding(path=cls.path, line=line,
                       col=cls.node.col_offset + 1,
                       rule_id=rule_id, message=message)

    def _check_pair(self, spec: TwinPair, scalar: ClassInfo,
                    batch: ClassInfo,
                    enabled: frozenset) -> Iterator[Finding]:
        batch_members = self._batch_members(batch)
        batch_module = self.index.modules.get(batch.module)

        def resolve(name: str) -> Optional[str]:
            for candidate in _counterpart_names(name, spec):
                if candidate in batch_members:
                    return candidate
            return None

        # Public scalar methods.
        for name in sorted(scalar.methods):
            if name.startswith("_") or name in spec.exempt:
                continue
            counterpart = resolve(name)
            if counterpart is None:
                if "RPR601" in enabled:
                    yield self._finding(
                        batch, batch.node.lineno, "RPR601",
                        f"batched twin {batch.name!r} has no "
                        f"counterpart for scalar method "
                        f"{scalar.name}.{name} "
                        f"({scalar.module}); accepted names: "
                        f"{', '.join(_counterpart_names(name, spec))} "
                        f"— add the lane method or register an "
                        f"exemption with its reason")
                continue
            if "RPR602" in enabled \
                    and batch_members[counterpart] == "method":
                yield from self._check_signature(
                    spec, scalar, batch, name, counterpart)

        # Public scalar instance attributes.
        if spec.check_attrs:
            batch_attr_pool = dict(batch_members)
            for name in sorted(_instance_attrs(self.index, scalar)):
                if name in spec.exempt or name in scalar.methods:
                    continue
                found = None
                for candidate in _counterpart_names(name, spec):
                    if candidate in batch_attr_pool:
                        found = candidate
                        break
                if found is None and "RPR601" in enabled:
                    yield self._finding(
                        batch, batch.node.lineno, "RPR601",
                        f"batched twin {batch.name!r} has no "
                        f"counterpart for scalar attribute "
                        f"{scalar.name}.{name} ({scalar.module}); "
                        f"lane state must grow with the scalar state "
                        f"or be exempted with a reason")

        # Class-level numeric constants.
        scalar_constants = _class_constants(scalar)
        batch_constants = _class_constants(batch)
        for name in sorted(scalar_constants):
            if name.startswith("_") or name in spec.exempt:
                continue
            value, _ = scalar_constants[name]
            if name in batch_constants:
                batch_value, batch_line = batch_constants[name]
                if "RPR602" in enabled and batch_value != value:
                    yield self._finding(
                        batch, batch_line, "RPR602",
                        f"constant {batch.name}.{name} = {batch_value} "
                        f"drifted from scalar {scalar.name}.{name} = "
                        f"{value} ({scalar.module}); twins must share "
                        f"tuning constants")
                continue
            referenced = (batch_module is not None
                          and _module_mentions_name(batch_module.tree,
                                                    name))
            if not referenced and "RPR601" in enabled:
                yield self._finding(
                    batch, batch.node.lineno, "RPR601",
                    f"batched twin {batch.name!r} neither defines nor "
                    f"references scalar constant {scalar.name}.{name} "
                    f"= {value} ({scalar.module}); read it from the "
                    f"scalar class so retuning cannot diverge")

    # -- RPR602 signatures ----------------------------------------------

    def _check_signature(self, spec: TwinPair, scalar: ClassInfo,
                         batch: ClassInfo, scalar_name: str,
                         batch_name: str) -> Iterator[Finding]:
        scalar_fn = self.index.functions[scalar.methods[scalar_name]]
        batch_fn = self.index.functions[batch.methods[batch_name]]
        assert isinstance(scalar_fn.node, FUNCTION_NODES)
        assert isinstance(batch_fn.node, FUNCTION_NODES)
        if scalar_fn.node.args.vararg or scalar_fn.node.args.kwarg \
                or batch_fn.node.args.vararg or batch_fn.node.args.kwarg:
            return  # *args/**kwargs absorb anything; not provable
        scalar_params = [a.arg for a in scalar_fn.keyword_parameters()
                         if a.arg not in ("self", "cls")]
        batch_params = [a.arg for a in batch_fn.keyword_parameters()
                        if a.arg not in ("self", "cls")]
        batch_names = set(batch_params)
        missing = [p for p in scalar_params if p not in batch_names]
        if missing:
            yield self._finding(
                batch, batch_fn.node.lineno, "RPR602",
                f"{batch.name}.{batch_name} drifted from scalar "
                f"{scalar.name}.{scalar_name} ({scalar.module}): "
                f"scalar parameter{'s' if len(missing) != 1 else ''} "
                f"{', '.join(repr(p) for p in missing)} "
                f"{'have' if len(missing) != 1 else 'has'} no batched "
                f"equivalent (lane/mask extras are fine; renames need "
                f"a registry alias)")
            return
        scalar_defaults = _literal_defaults(scalar_fn.node)
        batch_defaults = _literal_defaults(batch_fn.node)
        for param in scalar_params:
            if param in scalar_defaults and param in batch_defaults \
                    and scalar_defaults[param] != batch_defaults[param]:
                yield self._finding(
                    batch, batch_fn.node.lineno, "RPR602",
                    f"{batch.name}.{batch_name} default for "
                    f"{param!r} ({batch_defaults[param]!r}) drifted "
                    f"from scalar {scalar.name}.{scalar_name} "
                    f"({scalar_defaults[param]!r})")


def _literal_defaults(node: ast.AST) -> Dict[str, object]:
    """Parameter name -> literal default value, literals only."""
    assert isinstance(node, FUNCTION_NODES)
    args = node.args
    defaults: Dict[str, object] = {}
    positional = [*args.posonlyargs, *args.args]
    for arg, default in zip(positional[len(positional)
                                       - len(args.defaults):],
                            args.defaults):
        if isinstance(default, ast.Constant):
            defaults[arg.arg] = default.value
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and isinstance(default, ast.Constant):
            defaults[arg.arg] = default.value
    return defaults


def run_twin_pass(index: ProjectIndex, graph: object,
                  enabled: frozenset,
                  registry: Sequence[TwinPair] = TWIN_REGISTRY,
                  ) -> List[Finding]:
    """Check every registered twin pair present in the scanned set."""
    analysis = TwinParityAnalysis(index, registry)
    return analysis.check(enabled)
