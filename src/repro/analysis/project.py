"""The model every lint run builds: each analyzed file parsed once.

:class:`ProjectModel` parses the analyzed tree *once* into
:class:`Module` records — the one thing every rule looks at — and
derives two queryable views over them:

* a per-module **symbol table** (functions and methods by qualified
  name, classes, module-level assignments and which of them are mutable
  containers, import bindings);
* the **import graph** (:class:`~repro.analysis.graphs.ImportGraph`)
  over the analyzed modules, with lazy edges (``TYPE_CHECKING`` blocks,
  function bodies) marked.

Per-module checks (:meth:`Rule.check <repro.analysis.rules.Rule.check>`)
read one :class:`Module`; the invariants that span files — what crosses
the coordinator→worker pickle boundary, whether checkpoint
``save``/``restore`` agree on the manifest schema, import cycles —
query the whole model (:meth:`Rule.check_project
<repro.analysis.rules.Rule.check_project>`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .findings import Finding
from .graphs import ImportEdge, ImportGraph
from .layering import module_name_for_path, resolve_unit

#: An in-memory module: ``(source, path, module_name, unit)``; a None
#: name/unit is derived from the path.
SourceEntry = tuple[str, str, str | None, str | None]

# ----------------------------------------------------------------------
# symbols
# ----------------------------------------------------------------------

#: Calls whose module-level result is shared mutable state.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}
)


@dataclass
class FunctionSymbol:
    """One function or method definition."""

    qualname: str  # "f" or "Cls.m"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None


def _is_mutable_literal(value: ast.expr) -> bool:
    """Is this expression certainly a mutable container?"""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in _MUTABLE_FACTORIES
    )


# ----------------------------------------------------------------------
# the module record
# ----------------------------------------------------------------------


def canonical_module_name(module_name: str) -> str:
    """Graph-node identity: ``repro.obs.__init__`` and ``repro.obs`` are
    the same module."""
    return module_name.removesuffix(".__init__")


@dataclass
class Module:
    """One parsed source file plus everything name-shaped it defines or
    binds (its symbol table)."""

    path: str  # display path (as given on the command line)
    module_name: str  # dotted, best effort; ``pkg.__init__`` kept
    canonical: str  # graph-node identity (``pkg``)
    unit: str  # layering unit, e.g. "repro.nnt" or "benchmarks"
    tree: ast.Module
    source: str
    #: top-level functions and the methods of top-level classes, by
    #: qualified name.
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: set[str] = field(default_factory=set)
    #: module-level names bound by assignment.
    global_names: set[str] = field(default_factory=set)
    #: the subset of those bound to mutable containers.
    mutable_globals: set[str] = field(default_factory=set)
    #: local name -> (absolute module, attribute-or-None).  ``import a.b``
    #: binds ``a.b`` -> ("a.b", None); ``from m import f as g`` binds
    #: ``g`` -> ("m", "f").
    import_bindings: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    #: every absolute ``repro.*`` target this module imports, anchored at
    #: the import statement (targets outside the analyzed tree are kept).
    #: ``typing_only`` marks *lazy* imports — inside ``if TYPE_CHECKING:``
    #: or a function body — which do not execute at module init and
    #: therefore do not participate in cycle detection.
    repro_imports: list[ImportEdge] = field(default_factory=list)

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        """A finding anchored at ``node``'s location in this module."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
        )


# ----------------------------------------------------------------------
# model construction
# ----------------------------------------------------------------------


def _is_lazy(node: ast.stmt, parents: dict[ast.AST, ast.AST]) -> bool:
    """Is this statement lexically inside ``if TYPE_CHECKING:`` or a
    function body?  Such imports do not run at module init — a
    function-body import is the canonical way to *break* an import cycle
    and must not be reported as part of one."""
    current: ast.AST | None = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return True
        if isinstance(current, ast.If):
            test = current.test
            if (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            ):
                return True
        current = parents.get(current)
    return False


def _collect_symbols(module: Module) -> None:
    """Fill the symbol table from the module body (one pass)."""
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[stmt.name] = FunctionSymbol(stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            module.classes.add(stmt.name)
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{member.name}"
                    module.functions[qualname] = FunctionSymbol(
                        qualname, member, class_name=stmt.name
                    )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    module.global_names.add(target.id)
                    if _is_mutable_literal(stmt.value):
                        module.mutable_globals.add(target.id)


def resolve_relative(module_name: str, level: int, target: str | None) -> str | None:
    """Absolute dotted name of a relative import, or None if it escapes
    the package tree (``from .. import x`` at the top level)."""
    parts = module_name.split(".")
    # Module "repro.nnt.tree": level 1 is package "repro.nnt", level 2
    # is "repro" — i.e. drop the module stem plus (level - 1) packages
    # (the ``__init__``-suffixed name makes package-local levels work).
    if level >= len(parts):
        return None
    base = parts[: len(parts) - level]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _collect_imports(module: Module) -> None:
    """Record import bindings and absolute ``repro.*`` import targets."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(module.tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    bindings = module.import_bindings

    def record(target: str, node: ast.stmt) -> None:
        if target == "repro" or target.startswith("repro."):
            module.repro_imports.append(
                ImportEdge(
                    source=module.canonical,
                    target=canonical_module_name(target),
                    lineno=node.lineno,
                    column=node.col_offset,
                    typing_only=_is_lazy(node, parents),
                )
            )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name] = (alias.name, None)
                record(alias.name, node)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                base = resolve_relative(module.module_name, node.level, node.module)
            if base is None:
                continue
            if node.module is None:
                # ``from . import x, y`` — each alias is a submodule.
                for alias in node.names:
                    submodule = f"{base}.{alias.name}"
                    bindings[alias.asname or alias.name] = (submodule, None)
                    record(submodule, node)
                continue
            for alias in node.names:
                bindings[alias.asname or alias.name] = (base, alias.name)
            record(base, node)


def flatten_attribute(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: list[str] = []
    current = expr
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return list(reversed(parts))


class ProjectModel:
    """The parsed modules plus the derived symbol and import views.

    Built from in-memory entries, so the fitness tests can model fixture
    files *as if* they lived at declared module paths.  A syntactically
    broken entry degrades to an ``RP000`` finding in :attr:`errors`; the
    model still covers the rest.
    """

    def __init__(self, entries: Sequence[SourceEntry]) -> None:
        self.parsed: list[Module] = []  # every parsed module, in the order given
        self.modules: dict[str, Module] = {}  # canonical name -> module
        self.errors: list[Finding] = []  # one RP000 per unparsable entry
        for source, path, module_name, unit in entries:
            if module_name is None:
                module_name = module_name_for_path(Path(path))
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as error:
                line, column = error.lineno or 1, (error.offset or 0) + 1
                self.errors.append(
                    Finding(path, line, column, "RP000", f"syntax error: {error.msg}")
                )
                continue
            module = Module(
                path=path,
                module_name=module_name,
                canonical=canonical_module_name(module_name),
                unit=unit if unit is not None else resolve_unit(module_name),
                tree=tree,
                source=source,
            )
            _collect_symbols(module)
            _collect_imports(module)
            self.parsed.append(module)
            self.modules[module.canonical] = module
        self.import_graph = ImportGraph(self.modules)
        for module in self.parsed:
            for edge in module.repro_imports:
                self.import_graph.add_edge(edge)

    def resolve_global(self, module: Module, name: str) -> tuple[Module, str] | None:
        """Follow import bindings from ``name`` in ``module`` to the
        module that actually assigns it (bounded hops)."""
        current, current_name = module, name
        for _ in range(8):
            if (
                current_name in current.global_names
                or current_name in current.functions
                or current_name in current.classes
            ):
                return current, current_name
            binding = current.import_bindings.get(current_name)
            if binding is None or binding[1] is None:
                return None
            target = self.modules.get(canonical_module_name(binding[0]))
            if target is None:
                return None
            current, current_name = target, binding[1]
        return None
