"""Determinism rules: wall-clock, global randomness, unordered iteration.

Every reported number in this repo — goldens, fast/general byte-equivalence,
the ``report_sha256`` regression gate — rests on the engine being
deterministic *by construction*.  These rules turn the three ways that
property has historically broken (or structurally could) into static
violations:

* **DET001** — wall-clock reads inside the serving package.  The
  discrete-event clock is the only legitimate time source there; a single
  ``time.time()`` makes a report irreproducible.  ``quant/timing.py`` (the
  quantization wall-time meter) and ``benchmarks/`` (which *measure* wall
  time on purpose) are whitelisted scopes.
* **DET002** — global-state randomness anywhere in ``src/``.  ``random.*``
  and the legacy ``np.random.<fn>`` conveniences draw from hidden global
  state that any import can perturb; the only sanctioned idiom is an
  explicitly seeded, explicitly passed ``np.random.Generator``
  (``np.random.default_rng(seed)`` constructs one and is allowed).  The
  rule also flags ``scipy.sparse.linalg`` eigensolvers called without a
  start vector (``svds``/``eigsh``/``eigs`` without ``v0``, ``lobpcg``
  without ``X``) or an ``rng``/``random_state``: ARPACK then draws its
  start vector from numpy's global RNG inside the library, where no call
  site shows it.
* **DET003** — iterating a bare ``set``/``frozenset`` in the serving
  package.  Set iteration order depends on insertion history and hash
  randomization; feeding it into accumulation (``sum``/``list``/``join``/
  a ``for`` loop carrying state) or tie-breaking silently breaks replay.
  The in-tree fix is always ``sorted(...)`` — which this rule recognizes
  and accepts.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .astutil import import_aliases, resolve_call
from .diagnostics import Diagnostic, FileContext, Rule, register_rule

__all__ = ["WallClockRule", "GlobalRandomnessRule", "UnorderedIterationRule"]


#: Wall-clock reading (or wall-clock-coupled) callables, by canonical path.
_WALL_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module attributes that construct *explicit* generators (fine)
#: rather than touching the hidden module-global one (banned).
_RANDOM_ALLOWED: frozenset[str] = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` attributes that construct explicit generators / bit
#: generators; everything else is the legacy global-state convenience API.
_NP_RANDOM_ALLOWED: frozenset[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "MT19937", "Philox", "SFC64"}
)


#: Iterative ``scipy.sparse.linalg`` eigensolvers and the argument that
#: carries their start vector: its keyword and its positional index.
_START_VECTOR_SOLVERS: dict[str, tuple[str, int]] = {
    "svds": ("v0", 5),
    "eigsh": ("v0", 5),
    "eigs": ("v0", 5),
    "lobpcg": ("X", 1),
}
#: Keywords that hand any of those solvers an explicit random source.
_SOLVER_RNG_KEYWORDS: frozenset[str] = frozenset({"rng", "random_state"})


def _solver_start_missing(node: ast.Call, resolved: str) -> str | None:
    """The solver's start-vector argument, if ``node`` passes no start
    vector and no explicit random source; ``None`` otherwise."""
    module, _, name = resolved.rpartition(".")
    if name not in _START_VECTOR_SOLVERS or not (module + ".").startswith(
        "scipy.sparse.linalg."
    ):
        return None
    start, position = _START_VECTOR_SOLVERS[name]
    if len(node.args) > position or any(isinstance(arg, ast.Starred) for arg in node.args):
        return None
    for keyword in node.keywords:
        # A ``**`` splat (``arg`` None) may carry either; give it the benefit.
        if keyword.arg is None or keyword.arg == start or keyword.arg in _SOLVER_RNG_KEYWORDS:
            return None
    return start


@register_rule
class WallClockRule(Rule):
    """DET001: no wall-clock reads where the discrete-event clock rules."""

    code = "DET001"
    description = (
        "no wall-clock (time.time/perf_counter/datetime.now) in repro.serving; "
        "the discrete-event clock is the only time source"
    )
    scope = ("src/repro/serving/*",)
    #: Legitimate wall-time scopes (documented whitelist; benchmarks/ and the
    #: quantization timer measure real elapsed time on purpose).
    exclude = ("src/repro/quant/timing.py", "benchmarks/*")

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(node.func, aliases)
            if resolved in _WALL_CLOCK_CALLS:
                yield context.diagnostic(
                    node,
                    self.code,
                    f"wall-clock call {resolved}() in the serving package; "
                    f"use the engine's simulated clock",
                )


@register_rule
class GlobalRandomnessRule(Rule):
    """DET002: no hidden-global randomness; pass a seeded Generator instead."""

    code = "DET002"
    description = (
        "no global-state randomness (random.*, np.random.<fn>, ARPACK solvers "
        "without a start vector); use an explicitly seeded np.random.Generator "
        "(np.random.default_rng)"
    )
    scope = ("src/*",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(node.func, aliases)
            if resolved is None:
                continue
            if resolved.startswith("random."):
                attr = resolved.split(".", 1)[1]
                if "." not in attr and attr not in _RANDOM_ALLOWED:
                    yield context.diagnostic(
                        node,
                        self.code,
                        f"{resolved}() draws from the random module's hidden "
                        f"global state; pass an explicit seeded generator",
                    )
            elif resolved.startswith("numpy.random."):
                attr = resolved.split("numpy.random.", 1)[1]
                if "." not in attr and attr not in _NP_RANDOM_ALLOWED:
                    yield context.diagnostic(
                        node,
                        self.code,
                        f"np.random.{attr}() uses numpy's legacy global RNG; "
                        f"use np.random.default_rng(seed) and pass the "
                        f"Generator explicitly",
                    )
            else:
                start = _solver_start_missing(node, resolved)
                if start is not None:
                    yield context.diagnostic(
                        node,
                        self.code,
                        f"{resolved}() without {start}= or rng= draws its start "
                        f"vector from numpy's global RNG; pass a deterministic one",
                    )


#: Set-producing call targets (after alias resolution).
_SET_CONSTRUCTORS: frozenset[str] = frozenset({"set", "frozenset"})
#: Set methods that yield another set (order still unordered).
_SET_METHODS: frozenset[str] = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
#: Order-sensitive consumers: materialization / reduction of an iterable
#: where element order reaches the result.
_ORDER_SENSITIVE_CALLS: frozenset[str] = frozenset({"sum", "list", "tuple"})


@register_rule
class UnorderedIterationRule(Rule):
    """DET003: no bare-set iteration feeding accumulation or tie-breaking."""

    code = "DET003"
    description = (
        "no iteration over bare set/frozenset in repro.serving (ordering "
        "hazard); wrap the iterable in sorted(...)"
    )
    scope = ("src/repro/serving/*",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        aliases = import_aliases(context.tree)
        for scope_node, body in _scopes(context.tree):
            set_names = _set_valued_names(body, aliases)

            def is_set(expr: ast.expr) -> bool:
                return _set_valued(expr, set_names, aliases)

            for node in _walk_scope(body):
                if isinstance(node, ast.For) and is_set(node.iter):
                    yield context.diagnostic(
                        node.iter,
                        self.code,
                        "for-loop over an unordered set; iterate "
                        "sorted(...) instead",
                    )
                elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                    # SetComp is exempt: a set built from a set is
                    # order-insensitive by construction.
                    for gen in node.generators:
                        if is_set(gen.iter):
                            yield context.diagnostic(
                                gen.iter,
                                self.code,
                                "comprehension over an unordered set; iterate "
                                "sorted(...) instead",
                            )
                elif isinstance(node, ast.Call):
                    resolved = resolve_call(node.func, aliases)
                    if (
                        resolved in _ORDER_SENSITIVE_CALLS
                        and node.args
                        and is_set(node.args[0])
                    ):
                        yield context.diagnostic(
                            node,
                            self.code,
                            f"{resolved}() over an unordered set accumulates "
                            f"in hash order; wrap the set in sorted(...)",
                        )
                    elif (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                        and node.args
                        and is_set(node.args[0])
                    ):
                        yield context.diagnostic(
                            node,
                            self.code,
                            "str.join() over an unordered set concatenates in "
                            "hash order; wrap the set in sorted(...)",
                        )


def _scopes(tree: ast.Module) -> list[tuple[ast.AST, list[ast.stmt]]]:
    """The module body plus every function body (class bodies fold into
    their enclosing scope's walk, but functions get their own name table)."""
    out: list[tuple[ast.AST, list[ast.stmt]]] = [(tree, tree.body)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node, node.body))
    return out


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements/expressions without descending into nested functions
    (they are separate scopes with their own set-name inference)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # its body is a separate scope, visited by _scopes
        stack.extend(ast.iter_child_nodes(node))


def _set_valued_names(
    body: list[ast.stmt], aliases: dict[str, str]
) -> frozenset[str]:
    """Local names bound *only* to set-valued expressions in this scope.

    Single-pass, conservative: a name ever assigned a non-set value is
    dropped, so re-used temporaries never false-positive.
    """
    candidates: dict[str, bool] = {}
    for node in _walk_scope(body):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                valued = _set_valued(node.value, frozenset(candidates), aliases)
                if target.id in candidates:
                    candidates[target.id] = candidates[target.id] and valued
                else:
                    candidates[target.id] = valued
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                candidates[node.target.id] = _set_valued(
                    node.value, frozenset(candidates), aliases
                )
    return frozenset(name for name, valued in candidates.items() if valued)


def _set_valued(
    expr: ast.expr, set_names: frozenset[str], aliases: dict[str, str]
) -> bool:
    """Whether ``expr`` lexically evaluates to a set/frozenset."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _set_valued(expr.left, set_names, aliases) or _set_valued(
            expr.right, set_names, aliases
        )
    if isinstance(expr, ast.Call):
        resolved = resolve_call(expr.func, aliases)
        if resolved in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _SET_METHODS
            and _set_valued(expr.func.value, set_names, aliases)
        ):
            return True
    return False
