"""The cross-file rule pack (RP011, RP012, RP014, RP015, RP018).

These rules implement ``check_project`` over the whole model: they
protect the *inter-component* protocols the sharded runtime depends on
— invariants no single-file check can see:

========  ==========================================================
RP011     pickle-boundary safety: values placed on runtime queues must
          be built from pickle-safe, fork-safe types (no lambdas,
          generator expressions, locally defined functions/classes, or
          references to module-level mutable state — resolved across
          files)
RP012     span coverage: the public functions on the instrumented hot
          paths (the table in ``docs/observability.md``) must open an
          ``obs.span`` themselves or in a method they call on ``self``
          within their own class
RP014     checkpoint round-trip symmetry: every manifest key written
          by checkpoint ``save`` code must be consumed somewhere by
          ``restore``/stats code, and every non-defaulted read must
          have a writer — diffed at the symbol level across files
RP015     whole-graph import layering: module-level import cycles, and
          transitive (multi-hop) reach from a filtering-path module to
          ``repro.isomorphism`` — upgrades RP001's per-file edge check
          to a property of the whole import graph
RP018     metric-catalog membership: every dotted metric-name string
          consumed by the dashboard or the SLO engine must be a key of
          ``repro.obs.catalog.CATALOG`` — a typo'd name silently
          evaluates against no data, so the panel renders empty and
          the SLO reports "ok" forever
========  ==========================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .findings import Finding
from .layering import FILTERING_PATH_UNITS, resolve_unit
from .project import FunctionSymbol, Module, ProjectModel, flatten_attribute
from .rules import Rule, register

# ----------------------------------------------------------------------
# RP011 — pickle-boundary safety for runtime commands
# ----------------------------------------------------------------------

#: Callees whose arguments cross the coordinator<->worker process
#: boundary (queue puts, trace-envelope stamping).
_BOUNDARY_CALLS = frozenset({"put", "put_nowait", "stamp_envelope"})

#: Prefix naming the runtime's command-tuple constants.
_COMMAND_PREFIX = "CMD_"


@register
class PickleBoundaryRule(Rule):
    """Runtime queue commands must be pickle-safe and fork-safe: they
    are pickled on a feeder thread after ``put()`` has returned, so an
    unpicklable payload fails out of the caller's sight, and module-level
    mutable state silently forks into divergent copies."""

    rule_id = "RP011"
    title = "pickle-boundary safety for runtime commands"

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for module in model.parsed:
            if module.unit != "repro.runtime":
                continue
            yield from self._check_module(model, module)

    def _check_module(
        self, model: ProjectModel, module: Module
    ) -> Iterator[Finding]:
        # A CMD_* tuple passed straight into put() is yielded
        # both as a call payload and as a command tuple; dedupe so each
        # offending expression is reported once.
        seen: set[tuple[int, int, str]] = set()
        for symbol in module.functions.values():
            local_defs = self._local_definitions(symbol.node)
            for node in ast.walk(symbol.node):
                for site in self._boundary_payloads(node):
                    for finding in self._check_payload(
                        model, module, site, local_defs
                    ):
                        key = (finding.line, finding.column, finding.message)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield finding

    @staticmethod
    def _local_definitions(fn: ast.AST) -> set[str]:
        """Names bound to functions/classes defined *inside* ``fn``
        (pickle resolves by qualified name and cannot reach these)."""
        names: set[str] = set()
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
        return names

    @staticmethod
    def _boundary_payloads(node: ast.AST) -> Iterator[ast.expr]:
        """Expressions that cross the process boundary at ``node``."""
        if isinstance(node, ast.Call):
            chain = flatten_attribute(node.func)
            if chain and chain[-1] in _BOUNDARY_CALLS:
                yield from node.args
        elif isinstance(node, ast.Tuple):
            first = node.elts[0] if node.elts else None
            if isinstance(first, ast.Name) and first.id.startswith(_COMMAND_PREFIX):
                yield node

    def _check_payload(
        self,
        model: ProjectModel,
        module: Module,
        payload: ast.expr,
        local_defs: set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                yield module.finding(
                    node,
                    self.rule_id,
                    "lambda in a runtime command payload: lambdas cannot be "
                    "pickled across the worker boundary; use a module-level "
                    "function",
                )
            elif isinstance(node, ast.GeneratorExp):
                yield module.finding(
                    node,
                    self.rule_id,
                    "generator expression in a runtime command payload: "
                    "generators cannot be pickled; materialize an explicit "
                    "list/tuple first",
                )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in local_defs:
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"locally defined {node.id!r} in a runtime command "
                        "payload: pickle resolves callables by qualified "
                        "name and cannot reach function-local definitions; "
                        "move it to module level",
                    )
                    continue
                resolved = model.resolve_global(module, node.id)
                if resolved is None:
                    continue
                owner, name = resolved
                if name in owner.mutable_globals:
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"module-level mutable {name!r} (defined in "
                        f"{owner.canonical}) referenced in a runtime command "
                        "payload: each fork gets a divergent copy, so a "
                        "respawned worker reconstructs different state than "
                        "the one that died; pass an immutable snapshot instead",
                    )


# ----------------------------------------------------------------------
# RP012 — span coverage on the instrumented hot paths
# ----------------------------------------------------------------------

#: The instrumented hot paths: the "What is instrumented" table of
#: ``docs/observability.md``, as (canonical module, qualname) pairs.
#: Every entry must open an ``obs.span`` lexically or in a method it
#: calls on ``self`` within its own class; waive a deliberate exception
#: with ``# repro: noqa[RP012]`` on the ``def`` line.
HOT_PATHS: tuple[tuple[str, str], ...] = (
    ("repro.core.monitor", "StreamMonitor.apply"),
    ("repro.core.monitor", "StreamMonitor.matches"),
    ("repro.core.monitor", "StreamMonitor.events"),
    ("repro.core.monitor", "StreamMonitor.verified_matches"),
    ("repro.core.verify", "CachingVerifier.verified_matches"),
    ("repro.core.verify", "PrecisionProbe.sample"),
    ("repro.join.base", "JoinEngine.candidates"),
    ("repro.runtime.coordinator", "ShardedMonitor.apply"),
    ("repro.runtime.coordinator", "ShardedMonitor.matches"),
    ("repro.runtime.coordinator", "ShardedMonitor.events"),
    ("repro.runtime.worker", "ShardState.execute"),
)


def _opens_span(module: Module, symbol: FunctionSymbol) -> bool:
    """Does this function contain a ``with ….span(...)`` — itself, or in
    a method it calls on ``self`` within its own class (transitively)?
    Nothing weaker counts: a span behind another object's method may or
    may not be the one that runs."""
    seen: set[str] = set()
    frontier = [symbol]
    while frontier:
        current = frontier.pop()
        if current.qualname in seen:
            continue
        seen.add(current.qualname)
        for node in ast.walk(current.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if not isinstance(expr, ast.Call):
                        continue
                    chain = flatten_attribute(expr.func)
                    if chain and chain[-1] == "span":
                        return True
            elif isinstance(node, ast.Call) and current.class_name is not None:
                chain = flatten_attribute(node.func)
                if chain and len(chain) == 2 and chain[0] == "self":
                    callee = module.functions.get(
                        f"{current.class_name}.{chain[1]}"
                    )
                    if callee is not None:
                        frontier.append(callee)
    return False


@register
class SpanCoverageRule(Rule):
    """Instrumented hot paths must actually open spans: a refactor that
    drops the ``with obs.span(...)`` silently un-instruments the stage
    while ``repro stats`` and ``repro top`` keep rendering."""

    rule_id = "RP012"
    title = "span coverage on the instrumented hot paths"

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for module_name, qualname in HOT_PATHS:
            module = model.modules.get(module_name)
            if module is None:
                continue  # partial tree (fixtures, single-package runs)
            symbol = module.functions.get(qualname)
            if symbol is None:
                yield module.finding(
                    module.tree,
                    self.rule_id,
                    f"hot-path function {module_name}.{qualname} is listed in "
                    "the span-coverage table but no longer exists; "
                    "update HOT_PATHS in repro/analysis/project_rules.py "
                    "and the docs/observability.md table together",
                )
            elif not _opens_span(module, symbol):
                yield module.finding(
                    symbol.node,
                    self.rule_id,
                    f"hot-path function {qualname}() opens no obs.span "
                    "(itself or in a method it calls on self); every "
                    "instrumented stage in docs/observability.md must feed "
                    "its `<name>.seconds` histogram and the trace tree",
                )


# ----------------------------------------------------------------------
# RP014 — checkpoint manifest round-trip symmetry
# ----------------------------------------------------------------------

#: The manifest convention: checkpoint writers/readers exchange schema
#: through a dict named ``manifest`` (see repro/core/checkpoint.py).
_MANIFEST_NAME = "manifest"

#: Units that participate in the checkpoint protocol.
_CHECKPOINT_UNITS = frozenset({"repro.core", "repro.runtime"})


@register
class CheckpointSymmetryRule(Rule):
    """Manifest fields written by save must be consumed by restore: a
    key written but never read is dead state (and a likely sign the
    restore path forgot it), a key read with ``[]`` but never written
    crashes every load; ``.get(key, default)`` reads are exempt."""

    rule_id = "RP014"
    title = "checkpoint manifest round-trip symmetry"

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        writes: dict[str, list[tuple[Module, ast.AST]]] = {}
        strict_reads: dict[str, list[tuple[Module, ast.AST]]] = {}
        tolerant_reads: set[str] = set()
        for module in model.parsed:
            if module.unit not in _CHECKPOINT_UNITS:
                continue
            self._scan_module(module, writes, strict_reads, tolerant_reads)
        if not writes and not strict_reads:
            return
        read_keys = set(strict_reads) | tolerant_reads
        for key in sorted(set(writes) - read_keys):
            for module, node in writes[key]:
                yield module.finding(
                    node,
                    self.rule_id,
                    f"manifest key {key!r} is written by checkpoint save "
                    "code but never read by any restore/stats path; either "
                    "consume it in load_monitor/checkpoint_stats or stop "
                    "writing dead state into every snapshot",
                )
        for key in sorted(set(strict_reads) - set(writes)):
            for module, node in strict_reads[key]:
                yield module.finding(
                    node,
                    self.rule_id,
                    f"manifest key {key!r} is read with [] but no checkpoint "
                    "save path ever writes it — every restore will raise "
                    "KeyError; write it in save_monitor or use "
                    ".get() with an explicit default",
                )

    @staticmethod
    def _scan_module(
        module: Module,
        writes: dict[str, list[tuple[Module, ast.AST]]],
        strict_reads: dict[str, list[tuple[Module, ast.AST]]],
        tolerant_reads: set[str],
    ) -> None:
        def is_manifest(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Name) and expr.id == _MANIFEST_NAME

        def constant_key(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                return expr.value
            return None

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                for target in targets:
                    # manifest = {"key": ..., ...}
                    if is_manifest(target) and isinstance(value, ast.Dict):
                        for key_node in value.keys:
                            if key_node is None:
                                continue
                            key = constant_key(key_node)
                            if key is not None:
                                writes.setdefault(key, []).append((module, key_node))
                    # manifest["key"] = ...
                    elif (
                        isinstance(target, ast.Subscript)
                        and is_manifest(target.value)
                    ):
                        key = constant_key(target.slice)
                        if key is not None:
                            writes.setdefault(key, []).append((module, target))
            elif isinstance(node, ast.Subscript) and is_manifest(node.value):
                if isinstance(node.ctx, ast.Load):
                    key = constant_key(node.slice)
                    if key is not None:
                        strict_reads.setdefault(key, []).append((module, node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and is_manifest(node.func.value)
                and node.args
            ):
                key = constant_key(node.args[0])
                if key is not None:
                    # Even .get(key) with no default counts as tolerant:
                    # it hides a missing writer behind None, and the
                    # value is checked by the caller.
                    tolerant_reads.add(key)


# ----------------------------------------------------------------------
# RP015 — whole-graph import layering (cycles + transitive reach)
# ----------------------------------------------------------------------


@register
class WholeGraphLayeringRule(Rule):
    """Import cycles and transitive isomorphism reach, on the real graph:
    the two layering properties RP001's per-statement check cannot see
    (cyclic modules meet half-initialized; an intermediary can carry the
    filter to the exact matcher with no single import looking wrong)."""

    rule_id = "RP015"
    title = "whole-graph import layering (cycles, transitive isomorphism)"

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        yield from self._check_cycles(model)
        yield from self._check_transitive_isomorphism(model)

    def _check_cycles(self, model: ProjectModel) -> Iterator[Finding]:
        for cycle in model.import_graph.cycles():
            anchor_module = cycle[0]
            follows = cycle[1] if len(cycle) > 1 else cycle[0]
            edge = model.import_graph.edge_between(anchor_module, follows)
            if edge is None:
                # The SCC guarantees *some* intra-cycle edge from the
                # anchor; find the first one deterministically.
                members = set(cycle)
                for candidate in model.import_graph.edges_from(anchor_module):
                    if candidate.target in members and not candidate.typing_only:
                        edge = candidate
                        break
            module = model.modules.get(anchor_module)
            if module is None or edge is None:
                continue
            path = " -> ".join([*cycle, cycle[0]])
            yield Finding(
                path=module.path,
                line=edge.lineno,
                column=edge.column + 1,
                rule_id=self.rule_id,
                message=(
                    f"import cycle: {path}; cyclic modules observe each "
                    "other half-initialized depending on import order "
                    "(which differs between normal start, checkpoint "
                    "restore and worker fork) — break the cycle or move "
                    "the import under TYPE_CHECKING if it is typing-only"
                ),
            )

    def _check_transitive_isomorphism(
        self, model: ProjectModel
    ) -> Iterator[Finding]:
        # Targets: analyzed isomorphism modules, plus direct edges whose
        # target resolves to the isomorphism unit even when that module
        # is outside the analyzed set.
        iso_nodes = {
            name
            for name in model.import_graph.nodes
            if resolve_unit(name) == "repro.isomorphism"
        }
        for module in model.parsed:
            if module.unit not in FILTERING_PATH_UNITS:
                continue
            # One hop beyond the model: an in-model path to a module
            # whose *raw* imports leave for repro.isomorphism.
            path = model.import_graph.shortest_path(module.canonical, iso_nodes)
            if path is None:
                path = self._path_via_raw_edge(model, module)
            if path is None or len(path) < 2:
                # Direct (len == 2 with iso target is still worth RP015
                # only when RP001 cannot see it; a direct edge is RP001's
                # finding — skip to avoid double-reporting.
                continue
            if len(path) == 2 and resolve_unit(path[1]) == "repro.isomorphism":
                continue  # direct import: RP001 reports this one
            edge = model.import_graph.edge_between(path[0], path[1])
            if edge is None:
                continue
            yield Finding(
                path=module.path,
                line=edge.lineno,
                column=edge.column + 1,
                rule_id=self.rule_id,
                message=(
                    f"filtering-path module {module.canonical} transitively "
                    f"reaches repro.isomorphism: {' -> '.join(path)}; "
                    "completeness must come from NPV dominance alone "
                    "(Lemma 4.2) — no import chain from the filter may end "
                    "at the exact matcher"
                ),
            )

    @staticmethod
    def _path_via_raw_edge(
        model: ProjectModel, module: Module
    ) -> list[str] | None:
        """A path whose final hop is a raw (outside-the-model) import of
        a ``repro.isomorphism`` module."""
        bridging = {
            name
            for name, candidate in model.modules.items()
            if any(
                resolve_unit(edge.target) == "repro.isomorphism"
                and not edge.typing_only
                for edge in candidate.repro_imports
            )
        }
        if not bridging:
            return None
        path = model.import_graph.shortest_path(module.canonical, bridging)
        if path is None:
            return None
        bridge = model.modules[path[-1]]
        for edge in bridge.repro_imports:
            if resolve_unit(edge.target) == "repro.isomorphism" and not edge.typing_only:
                return [*path, edge.target]
        return None


# ----------------------------------------------------------------------
# RP018 — metric names consumed by dashboards/SLOs must be catalogued
# ----------------------------------------------------------------------

#: The single source of metric-name truth (a literal dict; RP018 reads
#: its keys straight out of the AST, never importing the module).
_CATALOG_MODULE = "repro.obs.catalog"

#: Modules that *consume* metric names — where a typo turns into a
#: silently-empty panel or a permanently-"ok" SLO.
_METRIC_CONSUMERS = ("repro.dashboard", "repro.obs.slo")

#: The shape of a dotted metric name: lowercase family, >= 1 dotted
#: segment (``serve.commit.seconds``).  Anchored so label fragments,
#: format strings, and sentence prose never match.
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _docstring_constants(tree: ast.AST) -> set[int]:
    """ids of the Constant nodes that are docstrings (module, class,
    function) — prose routinely names metrics and module paths, which
    would otherwise false-positive against the metric-name regex."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            out.add(id(body[0].value))
    return out


def _catalog_names(module: Module) -> set[str] | None:
    """The literal keys of ``CATALOG`` in the catalog module's AST, or
    None when no literal CATALOG dict is found."""
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if not any(
            isinstance(target, ast.Name) and target.id == "CATALOG"
            for target in targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        names: set[str] = set()
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
        return names
    return None


@register
class MetricCatalogRule(Rule):
    """Dashboard/SLO metric names must exist in the central catalog: a
    typo'd name evaluates against *no data*, so the panel renders empty
    and the SLO reports "ok" forever."""

    rule_id = "RP018"
    title = "metric names consumed by dashboards/SLOs must be catalogued"

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        catalog = model.modules.get(_CATALOG_MODULE)
        if catalog is None:
            return  # partial tree (fixtures, single-package runs)
        names = _catalog_names(catalog)
        if names is None:
            yield catalog.finding(
                catalog.tree,
                self.rule_id,
                "repro.obs.catalog defines no literal CATALOG dict; the "
                "catalog must stay a literal so metric names can be "
                "checked without importing the module",
            )
            return
        for consumer in _METRIC_CONSUMERS:
            module = model.modules.get(consumer)
            if module is None:
                continue
            yield from self._check_consumer(module, names)

    def _check_consumer(
        self, module: Module, names: set[str]
    ) -> Iterator[Finding]:
        docstrings = _docstring_constants(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                continue
            if id(node) in docstrings:
                continue
            text = node.value
            if not _METRIC_NAME.match(text):
                continue
            if text in names:
                continue
            yield module.finding(
                node,
                self.rule_id,
                f"metric name {text!r} is not in repro.obs.catalog.CATALOG; "
                "a name nothing mints evaluates against no data — the "
                "panel renders empty and an SLO over it reports 'ok' "
                "forever.  Fix the spelling, or mint the metric and add "
                "it to the catalog",
            )
