"""Project-wide symbol table: modules, classes, functions, imports.

The index is built once per lint run from the already-parsed module
trees.  It answers the questions the interprocedural passes keep asking:

* what fully-qualified name does this local identifier refer to
  (through ``import``/``from``-imports, aliases, relative imports, and
  star imports)?
* what functions and classes does module ``M`` define, and which class
  does ``self.attr`` hold an instance of?
* which classes subclass which (within the project), so method calls
  can be resolved virtually?

Qualified names follow Python's own convention: a dotted module path
followed by the class/function path inside the module, e.g.
``repro.sim.engine.Simulation.run``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: AST node types that define a new function scope.
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Mutable-literal expression types for module-global classification.
_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "defaultdict",
                                   "deque", "OrderedDict", "Counter"})


def module_name_for_path(path: Path) -> str:
    """Dotted module name for ``path``, walking up while packages last.

    ``src/repro/sim/engine.py`` resolves to ``repro.sim.engine`` because
    ``repro`` and ``repro.sim`` carry ``__init__.py`` markers while
    ``src`` does not.  A standalone file is just its stem.
    """
    path = path.resolve()
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class SourceModule:
    """One parsed module handed to the whole-program analyzer."""

    path: str
    source: str
    tree: ast.Module
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = module_name_for_path(Path(self.path))


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    path: str
    class_qualname: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None

    def decorator_names(self) -> Set[str]:
        """Trailing identifiers of the decorator expressions."""
        names: Set[str] = set()
        assert isinstance(self.node, FUNCTION_NODES)
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
        return names

    def binds_instance(self) -> bool:
        """True when the first parameter is ``self``/``cls``."""
        if not self.is_method:
            return False
        return "staticmethod" not in self.decorator_names()

    def parameters(self) -> List[ast.arg]:
        """Positional-capable parameters, instance slot included."""
        assert isinstance(self.node, FUNCTION_NODES)
        args = self.node.args
        return [*args.posonlyargs, *args.args]

    def keyword_parameters(self) -> List[ast.arg]:
        assert isinstance(self.node, FUNCTION_NODES)
        args = self.node.args
        return [*args.posonlyargs, *args.args, *args.kwonlyargs]


@dataclass
class ClassInfo:
    """One class definition, with enough structure to bind arguments."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Raw (unresolved) dotted base-class names.
    base_names: List[str] = field(default_factory=list)
    #: Dataclass-style annotated field names, in declaration order.
    fields: List[str] = field(default_factory=list)
    #: attribute name -> class qualname (from ``self.x = C(...)`` and
    #: annotated assignments), filled in by the index builder.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module symbol information."""

    name: str
    path: str
    tree: ast.Module
    #: local name -> fully-qualified dotted target (project or external).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Modules star-imported by this module (resolved dotted names).
    star_imports: List[str] = field(default_factory=list)
    #: top-level function name -> qualname.
    functions: Dict[str, str] = field(default_factory=dict)
    #: top-level class name -> qualname.
    classes: Dict[str, str] = field(default_factory=dict)
    #: Names assigned at module level (any expression).
    globals: Set[str] = field(default_factory=set)
    #: Module-level names bound to mutable containers.
    mutable_globals: Set[str] = field(default_factory=set)


def _dotted(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string, or None for non-name expressions."""
    chain: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    return ".".join(reversed(chain))


def _collect_module_imports(module_name: str, is_package: bool,
                            tree: ast.Module,
                            ) -> Tuple[Dict[str, str], List[str]]:
    """Local name -> dotted target, resolving relative imports.

    Unlike the per-file collector in :mod:`repro.analysis.rules`, this
    one understands ``from ..units import hours`` because it knows the
    importing module's own dotted name.
    """
    package_parts = module_name.split(".")
    if not is_package:
        package_parts = package_parts[:-1]
    imports: Dict[str, str] = {}
    stars: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = (alias.name if alias.asname
                                  else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - node.level + 1]
                if node.module:
                    base = base + node.module.split(".")
                source = ".".join(base)
            else:
                source = node.module or ""
            if not source:
                continue
            for alias in node.names:
                if alias.name == "*":
                    stars.append(source)
                    continue
                imports[alias.asname or alias.name] = (
                    f"{source}.{alias.name}")
    return imports, stars


def _is_mutable_initializer(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in _MUTABLE_CONSTRUCTORS
    return False


class ProjectIndex:
    """Symbol table over every module in one lint run."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: class qualname -> direct subclasses (project-internal).
        self.subclasses: Dict[str, Set[str]] = {}

    # -- construction ---------------------------------------------------

    def add_module(self, module: SourceModule) -> None:
        is_package = Path(module.path).stem == "__init__"
        imports, stars = _collect_module_imports(
            module.name, is_package, module.tree)
        info = ModuleInfo(name=module.name, path=module.path,
                          tree=module.tree, imports=imports,
                          star_imports=stars)
        self.modules[module.name] = info
        self._index_body(module, info, module.tree.body,
                         prefix=module.name, class_info=None)
        for stmt in module.tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: Optional[ast.expr] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    info.globals.add(target.id)
                    if value is not None and _is_mutable_initializer(value):
                        info.mutable_globals.add(target.id)

    def _index_body(self, module: SourceModule, info: ModuleInfo,
                    body: Sequence[ast.stmt], prefix: str,
                    class_info: Optional[ClassInfo]) -> None:
        for stmt in body:
            if isinstance(stmt, FUNCTION_NODES):
                qualname = f"{prefix}.{stmt.name}"
                function = FunctionInfo(
                    qualname=qualname, module=module.name, name=stmt.name,
                    node=stmt, path=module.path,
                    class_qualname=(class_info.qualname
                                    if class_info else None))
                self.functions[qualname] = function
                if class_info is not None:
                    class_info.methods[stmt.name] = qualname
                elif prefix == module.name:
                    info.functions[stmt.name] = qualname
                # Nested defs are indexed too (callable by local name).
                self._index_body(module, info, stmt.body,
                                 prefix=qualname, class_info=None)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}.{stmt.name}"
                cls = ClassInfo(qualname=qualname, module=module.name,
                                name=stmt.name, node=stmt,
                                path=module.path)
                cls.base_names = [name for base in stmt.bases
                                  if (name := _dotted(base)) is not None]
                for inner in stmt.body:
                    if (isinstance(inner, ast.AnnAssign)
                            and isinstance(inner.target, ast.Name)):
                        cls.fields.append(inner.target.id)
                self.classes[qualname] = cls
                if prefix == module.name:
                    info.classes[stmt.name] = qualname
                self._index_body(module, info, stmt.body,
                                 prefix=qualname, class_info=cls)

    def finalize(self) -> None:
        """Resolve cross-module facts once every module is indexed."""
        for cls in self.classes.values():
            module = self.modules[cls.module]
            for base_name in cls.base_names:
                base_qual = self.resolve_name(module, base_name)
                if base_qual in self.classes:
                    self.subclasses.setdefault(
                        base_qual, set()).add(cls.qualname)
        for cls in self.classes.values():
            self._infer_attr_types(cls)

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        """``self.x = C(...)`` / ``self.x: C`` -> attr_types[x] = C."""
        module = self.modules[cls.module]
        for method_qual in cls.methods.values():
            node = self.functions[method_qual].node
            for stmt in ast.walk(node):
                target: Optional[ast.expr] = None
                type_qual: Optional[str] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    type_qual = self._class_of_value(module, stmt.value)
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    type_qual = self.resolve_annotation(
                        module, stmt.annotation)
                    if type_qual is None and stmt.value is not None:
                        type_qual = self._class_of_value(module, stmt.value)
                if (type_qual and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cls.attr_types.setdefault(target.attr, type_qual)

    def _class_of_value(self, module: ModuleInfo,
                        value: ast.expr) -> Optional[str]:
        """Class qualname when ``value`` is ``SomeClass(...)``."""
        if not isinstance(value, ast.Call):
            return None
        dotted = _dotted(value.func)
        if dotted is None:
            return None
        resolved = self.resolve_name(module, dotted)
        return resolved if resolved in self.classes else None

    # -- queries --------------------------------------------------------

    def resolve_name(self, module: ModuleInfo, dotted: str) -> str:
        """Fully qualify ``dotted`` as seen from ``module``.

        The head segment is resolved through the module's imports, then
        its own top-level definitions, then star imports; unresolvable
        heads come back unchanged (external names keep their dotted
        spelling, which is what the impurity tables match against).
        """
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in module.imports:
            target = module.imports[head]
        elif head in module.functions:
            target = module.functions[head]
        elif head in module.classes:
            target = module.classes[head]
        elif head in module.globals:
            target = f"{module.name}.{head}"
        else:
            for star in module.star_imports:
                starred = self.modules.get(star)
                if starred is None:
                    continue
                if head in starred.functions:
                    target = starred.functions[head]
                    break
                if head in starred.classes:
                    target = starred.classes[head]
                    break
                if head in starred.globals:
                    target = f"{starred.name}.{head}"
                    break
        if target is None:
            target = head
        resolved = f"{target}.{rest}" if rest else target
        # An import may name a module-level symbol of a scanned module
        # indirectly (``import repro.units as u`` -> ``u.hours``).
        return resolved

    def resolve_annotation(self, module: ModuleInfo,
                           annotation: Optional[ast.expr],
                           ) -> Optional[str]:
        """Class qualname an annotation refers to, if in the project."""
        if annotation is None:
            return None
        node: Optional[ast.expr] = annotation
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            base = _dotted(node.value)
            if base in ("Optional", "typing.Optional"):
                node = node.slice
            else:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for side in (node.left, node.right):
                if not (isinstance(side, ast.Constant)
                        and side.value is None):
                    node = side
                    break
        dotted = _dotted(node) if isinstance(node, ast.expr) else None
        if dotted is None:
            return None
        resolved = self.resolve_name(module, dotted)
        return resolved if resolved in self.classes else None

    def lookup_method(self, class_qualname: str,
                      method: str) -> Optional[str]:
        """Resolve ``method`` on a class, walking project base classes."""
        seen: Set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            module = self.modules.get(cls.module)
            if module is not None:
                queue.extend(self.resolve_name(module, base)
                             for base in cls.base_names)
        return None

    def override_methods(self, class_qualname: str,
                         method: str) -> Iterator[str]:
        """Overrides of ``method`` in transitive subclasses."""
        seen: Set[str] = set()
        queue = list(self.subclasses.get(class_qualname, ()))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                yield cls.methods[method]
            queue.extend(self.subclasses.get(current, ()))


def build_project_index(modules: Sequence[SourceModule]) -> ProjectIndex:
    """Index every module and resolve cross-module structure."""
    index = ProjectIndex()
    for module in modules:
        index.add_module(module)
    index.finalize()
    return index
