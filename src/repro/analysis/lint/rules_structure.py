"""Structural rules: hot-path ``__slots__`` and report-schema closure.

* **SLOT001** — classes on the engine's per-iteration hot path are
  instantiated tens of thousands of times per replayed trace; a stray
  ``__dict__`` per instance is pure memory/cache waste.  Modules listed in
  :data:`HOT_PATH_MODULES` must slot every class they define; any class
  elsewhere can opt in with a ``# milo: hot-path`` marker comment on (or
  directly above) its ``class`` line.  ``Enum``/exception subclasses and
  typing constructs are exempt — they cannot or should not be slotted.
* **RPT001** — the ``report_sha256`` regression gate hashes the report
  dict, so *any* key added to the report changes the hash.  To make that an
  explicit decision rather than an accident, every string key written in
  the report-building functions must appear in the module's
  ``REPORT_SCHEMA_KEYS`` constant.  Adding a report field is then a
  two-line diff — the write and the schema entry — and the schema diff is
  what review (and the gate's changelog) keys on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .diagnostics import Diagnostic, FileContext, Rule, register_rule

__all__ = ["SlotsRule", "ReportSchemaRule", "HOT_PATH_MODULES"]

#: Modules whose every class is on the engine hot path and must be slotted.
HOT_PATH_MODULES: tuple[str, ...] = (
    "src/repro/serving/request.py",
    "src/repro/serving/cost.py",
)

#: Marker comment opting an individual class into the slots requirement.
HOT_PATH_MARKER = "# milo: hot-path"

#: Base-class names that exempt a class from SLOT001 (slots are impossible,
#: pointless, or actively harmful on these).
_EXEMPT_BASES: frozenset[str] = frozenset(
    {"Protocol", "ABC", "NamedTuple", "TypedDict"}
)
_EXEMPT_BASE_SUFFIXES: tuple[str, ...] = ("Enum", "Exception", "Error", "Warning")


@register_rule
class SlotsRule(Rule):
    """SLOT001: hot-path classes must declare ``__slots__``."""

    code = "SLOT001"
    description = (
        "hot-path classes (hot-path modules or '# milo: hot-path' marked) "
        "must declare __slots__ or use @dataclass(slots=True)"
    )
    scope = ("src/*",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        module_is_hot = context.path in HOT_PATH_MODULES
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            required = module_is_hot or _has_hot_path_marker(node, context)
            if not required or _is_exempt(node) or _is_slotted(node):
                continue
            yield context.diagnostic(
                node,
                self.code,
                f"hot-path class {node.name} lacks __slots__; declare "
                f"__slots__ or use @dataclass(slots=True)",
            )


def _has_hot_path_marker(node: ast.ClassDef, context: FileContext) -> bool:
    """Marker on the ``class`` line itself or the line directly above it."""
    for lineno in (node.lineno, node.lineno - 1):
        if HOT_PATH_MARKER in context.line_text(lineno):
            return True
    return False


def _is_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name in _EXEMPT_BASES or name.endswith(_EXEMPT_BASE_SUFFIXES):
            return True
    return False


def _is_slotted(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


#: Name of the declared report-schema constant RPT001 checks against.
REPORT_SCHEMA_CONSTANT = "REPORT_SCHEMA_KEYS"

#: Functions/methods that build pieces of the serving report: the report
#: itself, ``run`` (which picks its optional sections) and the
#: ``RunTotals`` section builders.
_REPORT_FUNCS: frozenset[str] = frozenset(
    {
        "to_dict", "_build_report", "run",
        "cluster_section", "overlap_section", "migration_section",
    }
)


@register_rule
class ReportSchemaRule(Rule):
    """RPT001: report keys must be declared in ``REPORT_SCHEMA_KEYS``."""

    code = "RPT001"
    description = (
        "report-dict keys written in report builders (to_dict/_build_report/"
        "run and the cluster/overlap/migration_section builders) must appear "
        "in REPORT_SCHEMA_KEYS"
    )
    scope = ("src/repro/serving/engine.py",)

    def check(self, context: FileContext) -> Iterator[Diagnostic]:
        schema = _schema_keys(context.tree)
        report_funcs = [
            node
            for node in ast.walk(context.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in _REPORT_FUNCS
        ]
        if not report_funcs:
            return
        if schema is None:
            yield context.diagnostic(
                context.tree.body[0] if context.tree.body else context.tree,
                self.code,
                f"module defines report builders but no "
                f"{REPORT_SCHEMA_CONSTANT} constant declaring the report "
                f"schema",
            )
            return
        for func in report_funcs:
            for node in ast.walk(func):
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value not in schema
                        ):
                            yield context.diagnostic(
                                key,
                                self.code,
                                f"report key {key.value!r} not declared in "
                                f"{REPORT_SCHEMA_CONSTANT}; the "
                                f"report_sha256 gate would drift silently",
                            )
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.slice, ast.Constant)
                            and isinstance(target.slice.value, str)
                            and target.slice.value not in schema
                        ):
                            yield context.diagnostic(
                                target,
                                self.code,
                                f"report key {target.slice.value!r} not "
                                f"declared in {REPORT_SCHEMA_CONSTANT}; the "
                                f"report_sha256 gate would drift silently",
                            )


def _schema_keys(tree: ast.Module) -> frozenset[str] | None:
    """String keys of the module-level ``REPORT_SCHEMA_KEYS`` constant."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == REPORT_SCHEMA_CONSTANT:
                keys = frozenset(
                    node.value
                    for node in ast.walk(value)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                )
                return keys
    return None
