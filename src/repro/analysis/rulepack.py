"""The per-module rule pack (RP001-RP010, RP013, RP016-RP017).

Each rule protects one invariant the paper's reproduction depends on:

========  ==========================================================
RP001     import layering / no isomorphism in the filtering path
          (Section II problem statement + Lemma 4.2 completeness)
RP002     no unseeded RNG in dataset/experiment code (Section V:
          experiments must be reproducible run-to-run)
RP003     no float ``==``/``!=`` in numeric filtering code (NPVs and
          dominance counters are integer-exact in the paper; float
          equality silently mis-classifies near-ties)
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
RP013     no swallowed exceptions: bare or ``except Exception``/
          ``BaseException`` handlers whose body does nothing, anywhere
          in ``repro.*`` — the runtime's failure model is
          crash-and-recover (a worker dies loudly, the coordinator
          respawns it and re-seeds it from its live graphs), and a
          swallowed error turns that into silent state divergence
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
from .project import Module, flatten_attribute
from .rules import Rule, register

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


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


class ClockReadRule(Rule):
    """Direct reads of the ``clocks`` a subclass bans: ``time.<fn>()``
    calls and ``from time import <fn>``, one finding per call / name.
    The advice templates are formatted with ``{fn}``."""

    clocks: frozenset[str] = frozenset()
    call_advice = ""
    import_advice = ""

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in self.clocks
                ):
                    yield module.finding(
                        node, self.rule_id, self.call_advice.format(fn=func.attr)
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self.clocks:
                        yield module.finding(
                            node, self.rule_id, self.import_advice.format(fn=alias.name)
                        )


class ConfinedImportRule(Rule):
    """The ``confined`` stdlib modules (and their submodules) may be
    imported only by their one owner: a subclass names them, scopes
    itself to everything but the owner (``units`` / ``exempt``) and
    gives the advice, formatted with ``{name}``.  One finding per
    import statement."""

    confined: frozenset[str] = frozenset()
    advice = ""

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative imports cannot reach the stdlib
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                if any(
                    name == owned or name.startswith(owned + ".")
                    for owned in self.confined
                ):
                    yield module.finding(
                        node, self.rule_id, self.advice.format(name=name)
                    )
                    break


# ----------------------------------------------------------------------
# RP001 — import layering / isomorphism-free filtering path
# ----------------------------------------------------------------------


@register
class LayeringRule(Rule):
    """Imports must follow the declarative layering matrix; in
    particular the filtering path never imports the exact matcher."""

    rule_id = "RP001"
    title = "import layering (isomorphism-free filtering path)"
    units = None  # checks everything; the matrix scopes per unit

    def check(self, module: Module) -> Iterator[Finding]:
        source_unit = module.unit
        for edge in module.repro_imports:
            target = edge.target
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
            yield Finding(
                module.path, edge.lineno, edge.column + 1, self.rule_id, message
            )


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
    units = frozenset({"repro.datasets", "repro.experiments"})

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
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
                        yield module.finding(
                            node,
                            self.rule_id,
                            f"random.{func.attr}() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                    continue
                yield module.finding(
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
                        yield module.finding(
                            node,
                            self.rule_id,
                            f"numpy random factory {func.attr}() without a "
                            "seed is nondeterministic; pass an explicit seed",
                        )
                    continue
                yield module.finding(
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
    units = frozenset({"repro.nnt", "repro.join", "repro.core"})

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_constant(left) or _is_float_constant(right):
                    yield module.finding(
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
    units = None

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
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
                    yield module.finding(
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
    units = frozenset({"repro.nnt", "repro.join"})

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            value: ast.expr | None
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
            else:
                continue
            if value is None:
                continue
            for finding in self._check_value(module, node, value):
                yield finding

    def _check_value(
        self, module: Module, node: ast.AST, value: ast.expr
    ) -> Iterator[Finding]:
        # yield from <set-expr>
        if isinstance(node, ast.YieldFrom) and _is_set_expression(value):
            yield module.finding(
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
            yield module.finding(
                value,
                self.rule_id,
                f"{value.func.id}() over a set freezes nondeterministic hash "
                "order into a result sequence; use sorted(...)",
            )
        # return/yield [x for x in <set-expr>]
        if isinstance(value, ast.ListComp) and value.generators:
            first = value.generators[0]
            if _is_set_expression(first.iter):
                yield module.finding(
                    value,
                    self.rule_id,
                    "list comprehension iterating a set produces "
                    "hash-ordered results; iterate sorted(...)",
                )


# ----------------------------------------------------------------------
# RP006 — benchmarks must use a monotonic timer
# ----------------------------------------------------------------------


@register
class WallClockTimingRule(ClockReadRule):
    """Benchmark timing must use ``time.perf_counter``."""

    rule_id = "RP006"
    title = "no wall-clock timing in benchmarks"
    units = frozenset({"benchmarks", "repro.experiments"})
    clocks = frozenset({"time", "clock"})
    call_advice = (
        "time.{fn}() is not a monotonic interval timer; use time.perf_counter()"
    )
    import_advice = "importing time.{fn} for timing; import perf_counter instead"


# ----------------------------------------------------------------------
# RP007 — no cross-object private attribute access
# ----------------------------------------------------------------------


@register
class PrivateAccessRule(Rule):
    """``obj._attr`` is only legal on ``self`` / ``cls``."""

    rule_id = "RP007"
    title = "no cross-object _private attribute access"
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

    def check(self, module: Module) -> Iterator[Finding]:
        # A class "owns" the private names it touches on self/cls; peer
        # instances of the same class may use them (the copy()/__eq__
        # idiom).  Everything else is a foreign reach.
        yield from self._walk(module, module.tree, owned=frozenset())

    def _walk(
        self, module: Module, node: ast.AST, owned: frozenset[str]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ClassDef):
            owned = owned | self._self_private_names(node)
        for child in ast.iter_child_nodes(node):
            yield from self._walk(module, child, owned)
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
        yield module.finding(
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


@register
class ConcurrencyContainmentRule(ConfinedImportRule):
    """Process/thread/queue machinery may only appear in the runtime."""

    rule_id = "RP008"
    title = "no concurrency primitives outside repro.runtime"
    # Everywhere the analyzer looks except the runtime itself; the
    # test/example trees may drive the runtime (and thus reach for
    # process tools) without tripping the core invariant.
    units = None
    exempt = frozenset({"repro.runtime", "tests", "examples"})
    confined = frozenset(
        {"multiprocessing", "threading", "_thread", "queue", "concurrent"}
    )
    advice = (
        "import of {name!r} outside repro.runtime: the filtering core is "
        "deterministic and single-threaded; route parallelism through "
        "repro.runtime.ShardedMonitor"
    )


# ----------------------------------------------------------------------
# RP009 — timing goes through repro.obs, not ad-hoc time.* reads
# ----------------------------------------------------------------------


@register
class AdHocTimingRule(ClockReadRule):
    """Instrumented packages must not read clocks directly."""

    rule_id = "RP009"
    title = "no direct time.* timing in instrumented packages"
    units = frozenset(
        {"repro.graph", "repro.nnt", "repro.join", "repro.core", "repro.runtime"}
    )
    #: The module that implements the timing primitives itself.
    exempt = frozenset({"repro.core.metrics"})
    clocks = frozenset(
        {
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
    )
    call_advice = (
        "direct time.{fn}() in an instrumented package; time stages with "
        "repro.obs.span() / histograms (or repro.core.metrics.Stopwatch) so "
        "the interval reaches exposition"
    )
    import_advice = (
        "importing time.{fn} in an instrumented package; route timing "
        "through repro.obs (or repro.core.metrics.Stopwatch)"
    )


# ----------------------------------------------------------------------
# RP010 — trace/span ids are minted only by repro.obs.trace
# ----------------------------------------------------------------------

_MINT_FUNCTIONS = {"new_trace_id", "new_span_id"}


@register
class TraceIdMintingRule(ConfinedImportRule):
    """Trace identity has exactly one minting site."""

    rule_id = "RP010"
    title = "trace/span ids are minted only by repro.obs.trace"
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
    exempt = frozenset({"repro.obs.trace"})
    confined = frozenset({"uuid", "secrets"})
    advice = (
        "import of {name!r} in an instrumented package; trace/span ids come "
        "from repro.obs.trace (new_trace_id/new_span_id), not ad-hoc entropy"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        yield from super().check(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and func.attr == "urandom"
                ):
                    yield module.finding(
                        node,
                        self.rule_id,
                        "os.urandom() in an instrumented package; trace/span "
                        "ids come from repro.obs.trace, not entropy reads",
                    )
            elif isinstance(node, ast.FunctionDef) and node.name in _MINT_FUNCTIONS:
                yield module.finding(
                    node,
                    self.rule_id,
                    f"re-definition of {node.name}() outside repro.obs.trace; "
                    "there is exactly one trace-id minting site",
                )


# ----------------------------------------------------------------------
# RP013 — no swallowed exceptions
# ----------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:`` or one naming Exception/BaseException."""
    if handler.type is None:
        return True
    candidates: list[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for expr in candidates:
        chain = flatten_attribute(expr)
        if chain and chain[-1] in _BROAD_EXCEPTIONS:
            return True
    return False


def _body_does_nothing(handler: ast.ExceptHandler) -> bool:
    """Only ``pass``, ``...`` or ``continue`` — the caller learns nothing."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Continue):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


@register
class SwallowedExceptionRule(Rule):
    """No broad do-nothing ``except`` anywhere in ``repro.*``; narrow,
    typed handlers (a best-effort close) stay legal."""

    rule_id = "RP013"
    title = "no swallowed exceptions in repro.*"

    def applies_to(self, module: Module) -> bool:
        return module.unit.startswith("repro.")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad_handler(node) and _body_does_nothing(node):
                yield module.finding(
                    node,
                    self.rule_id,
                    "broad do-nothing except: let the error propagate (a "
                    "worker that crashes loudly is respawned and re-seeded "
                    "from the coordinator's live graphs; one that swallows "
                    "it diverges silently), or narrow the handler to the "
                    "specific exceptions being tolerated",
                )


# ----------------------------------------------------------------------
# RP016 — shared-memory segments are owned by repro.runtime.shm
# ----------------------------------------------------------------------


@register
class SharedMemoryContainmentRule(ConfinedImportRule):
    """Shared-memory segment lifecycle has exactly one owner."""

    rule_id = "RP016"
    title = "shared-memory segments are touched only by repro.runtime.shm"
    # RP008 already bans multiprocessing outside repro.runtime; this
    # rule tightens the invariant *inside* the runtime (and everywhere
    # else the analyzer looks).  Tests/examples may attach segments to
    # assert on leaks without tripping it.
    units = None
    exempt = frozenset({"repro.runtime.shm", "tests", "examples"})
    confined = frozenset(
        {"multiprocessing.shared_memory", "multiprocessing.resource_tracker"}
    )
    advice = (
        "import of {name!r} outside repro.runtime.shm: segment allocation, "
        "attachment and unlink are one protocol with one owner; go through "
        "repro.runtime.shm (ShmRing/RingReader/cleanup_segments)"
    )


# ----------------------------------------------------------------------
# RP017 — asyncio is confined to the serving layer
# ----------------------------------------------------------------------


@register
class AsyncioContainmentRule(ConfinedImportRule):
    """Event-loop machinery may only appear in ``repro.serve``."""

    rule_id = "RP017"
    title = "asyncio only inside repro.serve"
    # Like RP008/RP016: everywhere the analyzer looks except the owner
    # itself; the test/example trees may drive the server with asyncio
    # clients without tripping the invariant.
    units = None
    exempt = frozenset({"repro.serve", "tests", "examples"})
    confined = frozenset({"asyncio"})
    advice = (
        "import of {name!r} outside repro.serve: the serving layer owns the "
        "event loop; expose a synchronous entry point (like "
        "serve.run_server) instead of importing asyncio here"
    )
