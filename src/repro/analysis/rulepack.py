"""The per-module rule pack (RP001-RP010, RP016-RP017), grounded in the paper.

Each rule protects one invariant the reproduction depends on:

========  ==========================================================
RP001     import layering / no isomorphism in the filtering path
          (Section II problem statement + Lemma 4.2 completeness)
RP002     no unseeded RNG in dataset/experiment code (Section V:
          experiments must be reproducible run-to-run)
RP003     no float ``==``/``!=`` in numeric filtering code
RP004     no mutable default arguments (shared-state corruption of
          long-lived monitor/index objects)
RP005     no set-ordered iteration feeding returned/yielded
          sequences in the filtering path (answer determinism)
RP006     benchmarks must time with ``perf_counter`` (monotonic),
          not wall-clock ``time.time`` (Section V measurements)
RP007     no cross-object ``_private`` attribute access (the
          StreamMonitor/NNTIndex state machines own their caches)
RP008     no process/thread/queue primitives outside ``repro.runtime``
          (the filtering core stays deterministic and single-threaded;
          all parallelism lives behind the runtime facade)
RP009     no direct ``time.*`` timing in the instrumented packages
          (graph/nnt/join/core/runtime) outside ``repro.obs`` and
          ``repro.core.metrics`` — per-stage timing flows through
          spans/instruments so exposition accounts for all of it
RP010     only ``repro.obs.trace`` may mint trace/span ids (no
          ``uuid``/``secrets``/``os.urandom`` id fabrication in the
          instrumented packages) — distributed traces only assemble
          into one tree if every id comes from the single minting
          site and its deterministic pid+counter scheme
RP016     ``multiprocessing.shared_memory`` (and its
          ``resource_tracker``) may only be touched by
          ``repro.runtime.shm`` — segment naming, generation tags
          and crash-orphan cleanup are one protocol with one owner;
          a second allocation site leaks segments past
          ``ShardedMonitor.close()``
RP017     ``asyncio`` is confined to ``repro.serve`` — the serving
          edge owns the one event loop; a second loop in library or
          runtime code would wrap the synchronous coordinator
          request/reply protocol in hidden reentrancy the
          single-writer discipline exists to rule out
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .layering import (
    FILTERING_PATH_UNITS,
    is_import_allowed,
    resolve_unit,
)
from .rules import ModuleContext, Rule, register

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _resolve_relative(module_name: str, level: int, target: str | None) -> str | None:
    """Absolute dotted name of a relative import, or None if it escapes
    the package tree (``from .. import x`` at the top level)."""
    parts = module_name.split(".")
    # Module "repro.nnt.tree": level 1 is package "repro.nnt", level 2
    # is "repro" — i.e. drop the module stem plus (level - 1) packages.
    if level >= len(parts):
        return None
    base = parts[: len(parts) - level]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _imported_repro_modules(
    context: ModuleContext, node: ast.Import | ast.ImportFrom
) -> Iterator[str]:
    """Absolute ``repro.*`` module names referenced by an import node."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                yield alias.name
        return
    if node.level == 0:
        if node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            yield node.module
        return
    base = _resolve_relative(context.module_name, node.level, node.module)
    if base is None:
        return
    if base == "repro" or base.startswith("repro."):
        if node.module is None:
            # ``from . import x, y`` — each name may be a submodule.
            for alias in node.names:
                yield f"{base}.{alias.name}"
        else:
            yield base


def _is_set_expression(node: ast.expr) -> bool:
    """Conservatively: is this expression certainly a ``set``?

    Covers set literals, set comprehensions, ``set(...)``/``frozenset(...)``
    calls, and the set-algebra methods (``union``/``intersection``/
    ``difference``/``symmetric_difference``) — the shapes whose iteration
    order is salted per process.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # ``a | b`` etc. where either side is certainly a set.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _is_float_constant(node: ast.expr) -> bool:
    """A float literal, possibly behind a unary sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


# ----------------------------------------------------------------------
# RP001 — import layering / isomorphism-free filtering path
# ----------------------------------------------------------------------


@register
class LayeringRule(Rule):
    """Imports must follow the declarative layering matrix; in
    particular the filtering path never imports the exact matcher."""

    rule_id = "RP001"
    title = "import layering (isomorphism-free filtering path)"
    rationale = (
        "Lemma 4.2 completeness: the per-timestamp filter must answer "
        "from NPV dominance alone; subgraph isomorphism may only appear "
        "in the optional verification stage (Section II)."
    )
    units = None  # checks everything; the matrix scopes per unit

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        source_unit = context.unit
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported_repro_modules(context, node):
                target_unit = resolve_unit(target)
                if is_import_allowed(source_unit, target_unit):
                    continue
                if (
                    source_unit in FILTERING_PATH_UNITS
                    and target_unit == "repro.isomorphism"
                ):
                    message = (
                        f"filtering-path package {source_unit} must never import "
                        f"{target}: completeness comes from NPV dominance "
                        "(Lemma 4.2), not hidden isomorphism tests"
                    )
                else:
                    message = (
                        f"layering violation: {source_unit} may not import "
                        f"{target} (unit {target_unit}); see the matrix in "
                        "repro/analysis/layering.py"
                    )
                yield context.finding(node, self.rule_id, message)


# ----------------------------------------------------------------------
# RP002 — no unseeded RNG in datasets / experiments
# ----------------------------------------------------------------------

_NUMPY_ALIASES = {"numpy", "np"}
_SEEDABLE_FACTORIES = {"Random", "SystemRandom", "default_rng", "RandomState"}


@register
class UnseededRandomRule(Rule):
    """Dataset and experiment code must draw from explicitly seeded
    generator objects, never the process-global RNG."""

    rule_id = "RP002"
    title = "no unseeded randomness in datasets/experiments"
    rationale = (
        "Section V: figures are reproduced from synthetic datasets; an "
        "unseeded draw anywhere in generation silently changes every "
        "downstream number between runs."
    )
    units = frozenset({"repro.datasets", "repro.experiments"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = func.value
            # random.<fn>(...) — module-level functions use the hidden
            # global Mersenne Twister.
            if isinstance(owner, ast.Name) and owner.id == "random":
                if func.attr in _SEEDABLE_FACTORIES:
                    if not node.args and not node.keywords:
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"random.{func.attr}() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                    continue
                yield context.finding(
                    node,
                    self.rule_id,
                    f"module-level random.{func.attr}() uses the unseeded "
                    "global RNG; draw from an explicitly seeded "
                    "random.Random(seed) instance",
                )
            # numpy.random.<fn>(...) / np.random.<fn>(...)
            elif (
                isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in _NUMPY_ALIASES
            ):
                if func.attr in _SEEDABLE_FACTORIES:
                    if not node.args and not node.keywords:
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"numpy random factory {func.attr}() without a "
                            "seed is nondeterministic; pass an explicit seed",
                        )
                    continue
                yield context.finding(
                    node,
                    self.rule_id,
                    f"numpy.random.{func.attr}() uses the unseeded global "
                    "state; use numpy.random.default_rng(seed)",
                )


# ----------------------------------------------------------------------
# RP003 — no float equality in numeric filtering code
# ----------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    """Float literals must not be compared with ``==`` / ``!=``."""

    rule_id = "RP003"
    title = "no float == / != in numeric code"
    rationale = (
        "NPV projections, dominance counters and skyline scores are "
        "integer-exact in the paper; the moment a float sneaks in, "
        "equality tests silently mis-classify near-ties."
    )
    units = frozenset({"repro.nnt", "repro.join", "repro.core"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_constant(left) or _is_float_constant(right):
                    yield context.finding(
                        node,
                        self.rule_id,
                        "float equality comparison; use math.isclose() or "
                        "an explicit integer representation",
                    )
                    break


# ----------------------------------------------------------------------
# RP004 — no mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


@register
class MutableDefaultRule(Rule):
    """Function defaults must not be mutable objects."""

    rule_id = "RP004"
    title = "no mutable default arguments"
    rationale = (
        "Monitors and NNT indexes are long-lived; a mutable default "
        "shared across calls corrupts per-stream state invisibly."
    )
    units = None

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                mutable = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                )
                if mutable:
                    name = getattr(node, "name", "<lambda>")
                    yield context.finding(
                        default,
                        self.rule_id,
                        f"mutable default argument in {name}(); default to "
                        "None and construct inside the body",
                    )


# ----------------------------------------------------------------------
# RP005 — no set-ordered results in the filtering path
# ----------------------------------------------------------------------


@register
class SetOrderedResultRule(Rule):
    """Returned/yielded sequences must not inherit set iteration order."""

    rule_id = "RP005"
    title = "no set-ordered sequences in filtering-path results"
    rationale = (
        "Match reporting must be deterministic run-to-run (the paper's "
        "answer is a *set* of pairs; any sequence we derive from it must "
        "be explicitly ordered, not hash-ordered)."
    )
    units = frozenset({"repro.nnt", "repro.join"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            value: ast.expr | None
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
            else:
                continue
            if value is None:
                continue
            for finding in self._check_value(context, node, value):
                yield finding

    def _check_value(
        self, context: ModuleContext, node: ast.AST, value: ast.expr
    ) -> Iterator[Finding]:
        # yield from <set-expr>
        if isinstance(node, ast.YieldFrom) and _is_set_expression(value):
            yield context.finding(
                node,
                self.rule_id,
                "yielding directly from a set leaks hash order into the "
                "result stream; yield from sorted(...) instead",
            )
            return
        # return/yield list(<set-expr>) or tuple(<set-expr>)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in {"list", "tuple"}
            and value.args
            and _is_set_expression(value.args[0])
        ):
            yield context.finding(
                value,
                self.rule_id,
                f"{value.func.id}() over a set freezes nondeterministic hash "
                "order into a result sequence; use sorted(...)",
            )
        # return/yield [x for x in <set-expr>]
        if isinstance(value, ast.ListComp) and value.generators:
            first = value.generators[0]
            if _is_set_expression(first.iter):
                yield context.finding(
                    value,
                    self.rule_id,
                    "list comprehension iterating a set produces "
                    "hash-ordered results; iterate sorted(...)",
                )


# ----------------------------------------------------------------------
# RP006 — benchmarks must use a monotonic timer
# ----------------------------------------------------------------------


@register
class WallClockTimingRule(Rule):
    """Benchmark timing must use ``time.perf_counter``."""

    rule_id = "RP006"
    title = "no wall-clock timing in benchmarks"
    rationale = (
        "Section V reports elapsed filtering cost; time.time() is "
        "NTP-adjustable wall clock with coarse resolution — intervals "
        "must come from time.perf_counter()."
    )
    units = frozenset({"benchmarks", "repro.experiments"})

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in {"time", "clock"}
                ):
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"time.{func.attr}() is not a monotonic interval "
                        "timer; use time.perf_counter()",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in {"time", "clock"}:
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"importing time.{alias.name} for timing; import "
                            "perf_counter instead",
                        )


# ----------------------------------------------------------------------
# RP007 — no cross-object private attribute access
# ----------------------------------------------------------------------


@register
class PrivateAccessRule(Rule):
    """``obj._attr`` is only legal on ``self`` / ``cls``."""

    rule_id = "RP007"
    title = "no cross-object _private attribute access"
    rationale = (
        "StreamMonitor and NNTIndex encapsulate per-stream caches whose "
        "consistency the incremental procedures (Figures 4-5, 8) depend "
        "on; foreign code must go through the public API."
    )
    units = frozenset(
        {
            "repro.graph",
            "repro.nnt",
            "repro.join",
            "repro.core",
            "repro.isomorphism",
            "repro.datasets",
            "repro.baselines",
            "repro.experiments",
            "repro.cli",
            "repro.render",
            "repro.analysis",
        }
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        # A class "owns" the private names it touches on self/cls; peer
        # instances of the same class may use them (the copy()/__eq__
        # idiom).  Everything else is a foreign reach.
        yield from self._walk(context, context.tree, owned=frozenset())

    def _walk(
        self, context: ModuleContext, node: ast.AST, owned: frozenset[str]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            owned = owned | self._self_private_names(node)
        for child in ast.iter_child_nodes(node):
            yield from self._walk(context, child, owned)
        if not isinstance(node, ast.Attribute):
            return
        name = node.attr
        if not name.startswith("_") or name.startswith("__"):
            return
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in {"self", "cls"}:
            return
        if name in owned:
            return
        yield context.finding(
            node,
            self.rule_id,
            f"access to private attribute .{name} on a foreign object; "
            "add/extend a public accessor instead",
        )

    @staticmethod
    def _self_private_names(class_node: ast.ClassDef) -> frozenset[str]:
        names = set()
        for node in ast.walk(class_node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in {"self", "cls"}
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                names.add(node.attr)
        return frozenset(names)


# ----------------------------------------------------------------------
# RP008 — concurrency primitives only inside repro.runtime
# ----------------------------------------------------------------------

_CONCURRENCY_TOP_MODULES = {
    "multiprocessing",
    "threading",
    "_thread",
    "queue",
    "concurrent",
}


@register
class ConcurrencyContainmentRule(Rule):
    """Process/thread/queue machinery may only appear in the runtime."""

    rule_id = "RP008"
    title = "no concurrency primitives outside repro.runtime"
    rationale = (
        "The incremental maintenance procedures (Figures 4-5, 8) are "
        "state machines whose correctness argument assumes sequential "
        "application; answers must be deterministic run-to-run.  All "
        "parallelism therefore lives behind the repro.runtime facade, "
        "which shards *whole streams* across single-threaded workers."
    )
    # Everywhere the analyzer looks except the runtime itself; the
    # test/example trees may drive the runtime (and thus reach for
    # process tools) without tripping the core invariant.
    units = None

    _EXEMPT_UNITS = frozenset({"repro.runtime", "tests", "examples"})

    def applies_to(self, context: ModuleContext) -> bool:
        return context.unit not in self._EXEMPT_UNITS

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative imports cannot reach the stdlib
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in _CONCURRENCY_TOP_MODULES:
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"import of {name!r} outside repro.runtime: the "
                        "filtering core is deterministic and "
                        "single-threaded; route parallelism through "
                        "repro.runtime.ShardedMonitor",
                    )
                    break


# ----------------------------------------------------------------------
# RP009 — timing goes through repro.obs, not ad-hoc time.* reads
# ----------------------------------------------------------------------

_CLOCK_FUNCTIONS = {
    "time",
    "clock",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}


@register
class AdHocTimingRule(Rule):
    """Instrumented packages must not read clocks directly."""

    rule_id = "RP009"
    title = "no direct time.* timing in instrumented packages"
    rationale = (
        "The observability layer (repro.obs) is the single source of "
        "timing truth for the filtering and runtime packages: every "
        "measured interval must flow through spans/instruments (or the "
        "Stopwatch in repro.core.metrics) so that exposition accounts "
        "for where each timestamp's milliseconds go.  An ad-hoc "
        "perf_counter pair is invisible to `repro stats` and drifts "
        "out of the merged fleet histograms."
    )
    units = frozenset(
        {"repro.graph", "repro.nnt", "repro.join", "repro.core", "repro.runtime"}
    )

    #: Modules that implement the timing primitives themselves.
    _EXEMPT_MODULES = frozenset({"repro.core.metrics"})

    def applies_to(self, context: ModuleContext) -> bool:
        if context.module_name in self._EXEMPT_MODULES:
            return False
        return super().applies_to(context)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in _CLOCK_FUNCTIONS
                ):
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"direct time.{func.attr}() in an instrumented "
                        "package; time stages with repro.obs.span() / "
                        "histograms (or repro.core.metrics.Stopwatch) so "
                        "the interval reaches exposition",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_FUNCTIONS:
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"importing time.{alias.name} in an instrumented "
                            "package; route timing through repro.obs (or "
                            "repro.core.metrics.Stopwatch)",
                        )


# ----------------------------------------------------------------------
# RP010 — trace/span ids are minted only by repro.obs.trace
# ----------------------------------------------------------------------

_ID_MINTING_MODULES = {"uuid", "secrets"}
_MINT_FUNCTIONS = {"new_trace_id", "new_span_id"}


@register
class TraceIdMintingRule(Rule):
    """Trace identity has exactly one minting site."""

    rule_id = "RP010"
    title = "trace/span ids are minted only by repro.obs.trace"
    rationale = (
        "A distributed trace is one tree only if every span's ids come "
        "from the single minting site: repro.obs.trace derives ids from "
        "pid + a per-process counter, which keeps them unique across "
        "fork, deterministic for replay, and free of entropy reads on "
        "the filtering path.  A second id source (uuid/secrets/"
        "os.urandom, or a re-implemented new_trace_id) silently "
        "produces spans no exporter can attach to their parents."
    )
    units = frozenset(
        {
            "repro.graph",
            "repro.nnt",
            "repro.join",
            "repro.core",
            "repro.runtime",
            "repro.obs",
        }
    )

    #: The minting site itself.
    _EXEMPT_MODULES = frozenset({"repro.obs.trace"})

    def applies_to(self, context: ModuleContext) -> bool:
        if context.module_name in self._EXEMPT_MODULES:
            return False
        return super().applies_to(context)

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ID_MINTING_MODULES:
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"import of {root!r} in an instrumented package; "
                            "trace/span ids come from repro.obs.trace "
                            "(new_trace_id/new_span_id), not ad-hoc entropy",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    root = node.module.split(".")[0]
                    if root in _ID_MINTING_MODULES:
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"import from {root!r} in an instrumented package; "
                            "trace/span ids come from repro.obs.trace",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and func.attr == "urandom"
                ):
                    yield context.finding(
                        node,
                        self.rule_id,
                        "os.urandom() in an instrumented package; trace/span "
                        "ids come from repro.obs.trace, not entropy reads",
                    )
            elif isinstance(node, ast.FunctionDef) and node.name in _MINT_FUNCTIONS:
                yield context.finding(
                    node,
                    self.rule_id,
                    f"re-definition of {node.name}() outside repro.obs.trace; "
                    "there is exactly one trace-id minting site",
                )


# ----------------------------------------------------------------------
# RP016 — shared-memory segments are owned by repro.runtime.shm
# ----------------------------------------------------------------------

_SHM_MODULES = {
    "multiprocessing.shared_memory",
    "multiprocessing.resource_tracker",
}

#: The one module allowed to allocate/attach/unlink segments.
_SHM_HOME = "repro.runtime.shm"


@register
class SharedMemoryContainmentRule(Rule):
    """Shared-memory segment lifecycle has exactly one owner."""

    rule_id = "RP016"
    title = "shared-memory segments are touched only by repro.runtime.shm"
    rationale = (
        "The payload rings' segments carry pid-scoped names and a "
        "crash-orphan sweep; those two only "
        "compose into 'no leaked segments after close()' if every "
        "allocate/attach/unlink goes through repro.runtime.shm.  A "
        "second call site would mint segments the sweep cannot name "
        "and fight the resource_tracker's registration bookkeeping "
        "(Python 3.11 unlink() already unregisters — double "
        "bookkeeping causes tracker KeyError spam or early reclaim)."
    )
    # RP008 already bans multiprocessing outside repro.runtime; this
    # rule tightens the invariant *inside* the runtime (and everywhere
    # else the analyzer looks).  Tests/examples may attach segments to
    # assert on leaks without tripping it.
    units = None

    _EXEMPT_UNITS = frozenset({"tests", "examples"})

    def applies_to(self, context: ModuleContext) -> bool:
        if context.module_name == _SHM_HOME:
            return False
        return context.unit not in self._EXEMPT_UNITS

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative imports cannot reach the stdlib
                module = node.module or ""
                names = [module] + [
                    f"{module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for name in names:
                if name in _SHM_MODULES or any(
                    name.startswith(owned + ".") for owned in _SHM_MODULES
                ):
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"import of {name!r} outside repro.runtime.shm: "
                        "segment allocation, attachment and unlink are "
                        "one protocol with one owner; go through "
                        "repro.runtime.shm (ShmRing/RingReader/"
                        "cleanup_segments)",
                    )
                    break


# ----------------------------------------------------------------------
# RP017 — asyncio is confined to the serving layer
# ----------------------------------------------------------------------

#: The one unit allowed to run an event loop.
_ASYNC_HOME_UNIT = "repro.serve"


@register
class AsyncioContainmentRule(Rule):
    """Event-loop machinery may only appear in ``repro.serve``."""

    rule_id = "RP017"
    title = "asyncio only inside repro.serve"
    rationale = (
        "The serving layer multiplexes sessions on one event loop and "
        "funnels every monitor call through a single writer task; that "
        "discipline is what makes the sharded coordinator's synchronous "
        "request/reply protocol safe without locks.  An asyncio import "
        "anywhere else (filter core, runtime, CLI) would either start a "
        "second loop or re-enter the first, reintroducing exactly the "
        "interleaving hazards RP008 removes — and coroutines in the "
        "filtering path would break the paper's sequential-application "
        "correctness argument (Figures 4-5, 8)."
    )
    # Like RP008/RP016: everywhere the analyzer looks except the owner
    # itself; the test/example trees may drive the server with asyncio
    # clients without tripping the invariant.
    units = None

    _EXEMPT_UNITS = frozenset({"tests", "examples"})

    def applies_to(self, context: ModuleContext) -> bool:
        if context.unit == _ASYNC_HOME_UNIT:
            return False
        return context.unit not in self._EXEMPT_UNITS

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative imports cannot reach the stdlib
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "asyncio":
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"import of {name!r} outside repro.serve: the "
                        "serving layer owns the event loop; expose a "
                        "synchronous entry point (like serve.run_server) "
                        "instead of importing asyncio here",
                    )
                    break
