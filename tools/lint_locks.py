#!/usr/bin/env python3
"""AST lint: translated-code caches are only mutated under their locks.

Three concurrency invariants keep the in-process worker pool sound, and all
are easy to break silently when refactoring:

1. every mutation of :class:`repro.vm.code_cache.CodeCache` state
   (``fragments``/``instructions``) happens inside a ``with self.lock:``
   block -- plain *reads* are deliberately lock-free (an atomic dict read
   with a tolerated racy miss), so only mutations are checked;
2. every access (read or write) to the process-wide compile memo
   ``_CODE_MEMO`` in :mod:`repro.vm.translator` happens inside a
   ``with _CODE_MEMO_LOCK:`` block;
3. in the process-wide image registry :mod:`repro.vm.images`, every access
   to the table ``_RECORDS`` and every write to an ``ImageRecord`` slot
   happens inside ``with _LOCK:``, and nothing slow or re-entrant --
   parsing, analysing, translating, compiling, reading or writing the
   per-user store (file I/O, ``marshal``) -- is called while it is held
   (this is where thread workers really share caches, and a lock held over
   a long call would also be held across a ``fork``).

This checker parses the source with :mod:`ast` -- no imports, no runtime
monkey-patching -- so it runs anywhere Python runs and is wired into CI and
``tests/test_lint_locks.py``.  Exit status 0 means clean; 1 means violations
(printed one per line as ``file:line: message``).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: CodeCache attributes that constitute lock-protected state.
CACHE_STATE = {"fragments", "instructions"}

#: ImageRecord slots written after construction, under the registry lock.
RECORD_STATE = {"_analysed", "_report", "_caches", "_unsaved"}

#: Calls that must not run while the registry lock is held.
SLOW_CALLS = {"parse_executable", "verify_image", "_verify_parsed", "analysis",
              "translate", "compile",
              # repro.vm.store's entry points, what they run, what runs them
              "read", "write", "empty", "loads", "dumps", "save"}

#: Method names that mutate the container they are called on.
MUTATING_METHODS = {
    "clear", "add", "pop", "popitem", "update", "setdefault",
    "append", "extend", "remove", "discard", "insert",
}

#: Methods that may touch cache state without the lock (run before the
#: object can be shared).
EXEMPT_METHODS = {"__init__"}


class _LockTracker(ast.NodeVisitor):
    """Base visitor tracking nesting inside ``with <lock>:`` blocks."""

    def __init__(self, path: pathlib.Path):
        self.path = path
        self.lock_depth = 0
        self.violations: list[tuple[pathlib.Path, int, str]] = []

    def _is_lock_expr(self, node: ast.expr) -> bool:
        raise NotImplementedError

    def visit_With(self, node: ast.With) -> None:
        held = any(self._is_lock_expr(item.context_expr)
                   for item in node.items)
        if held:
            self.lock_depth += 1
        self.generic_visit(node)
        if held:
            self.lock_depth -= 1

    def _report(self, node: ast.AST, message: str) -> None:
        self.violations.append((self.path, node.lineno, message))


class _CacheMethodChecker(_LockTracker):
    """Checks one CodeCache method body for unlocked state mutations."""

    def __init__(self, path: pathlib.Path, method: str):
        super().__init__(path)
        self.method = method
        #: Local names aliasing ``self.<state attr>`` (e.g. the
        #: ``fragments = self.fragments`` idiom in ``store``).
        self.aliases: dict[str, str] = {}

    def _is_lock_expr(self, node: ast.expr) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "lock"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _state_attr(self, node: ast.expr) -> str | None:
        """The cache state attribute ``node`` refers to, if any."""
        if (isinstance(node, ast.Attribute) and node.attr in CACHE_STATE
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        if isinstance(node, ast.Name) and node.id in self.aliases:
            return self.aliases[node.id]
        return None

    def _check_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Subscript):
            target = target.value
        attr = self._state_attr(target)
        if attr is not None and not self.lock_depth:
            self._report(
                node,
                f"CodeCache.{self.method} mutates self.{attr} "
                f"outside `with self.lock`")

    def visit_Assign(self, node: ast.Assign) -> None:
        # Record aliases first so `x = self.fragments` marks x.
        for target in node.targets:
            if isinstance(target, ast.Name):
                attr = self._state_attr(node.value)
                if attr is not None:
                    self.aliases[target.id] = attr
                    continue
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            attr = self._state_attr(func.value)
            if attr is not None and not self.lock_depth:
                self._report(
                    node,
                    f"CodeCache.{self.method} calls "
                    f"self.{attr}.{func.attr}() outside `with self.lock`")
        self.generic_visit(node)


class _MemoChecker(_LockTracker):
    """Checks that every ``_CODE_MEMO`` access is under ``_CODE_MEMO_LOCK``."""

    def _is_lock_expr(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "_CODE_MEMO_LOCK"

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "_CODE_MEMO" and not self.lock_depth:
            # The module-level definition itself is the only legal
            # unlocked mention (nothing else can be running yet).
            if node.col_offset == 0 and isinstance(node.ctx, ast.Store):
                return
            self._report(
                node,
                "_CODE_MEMO accessed outside `with _CODE_MEMO_LOCK`")


class _RegistryChecker(_LockTracker):
    """Checks :mod:`repro.vm.images` against invariant 3."""

    def __init__(self, path: pathlib.Path):
        super().__init__(path)
        self.function = ""

    def _is_lock_expr(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "_LOCK"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Name(self, node: ast.Name) -> None:
        unlocked_definition = node.col_offset == 0 and isinstance(node.ctx, ast.Store)
        if node.id == "_RECORDS" and not self.lock_depth and not unlocked_definition:
            self._report(node, "_RECORDS accessed outside `with _LOCK`")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr in RECORD_STATE and isinstance(node.ctx, (ast.Store, ast.Del))
                and not self.lock_depth and self.function not in EXEMPT_METHODS):
            self._report(node, f"ImageRecord.{self.function} writes "
                               f"self.{node.attr} outside `with _LOCK`")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in SLOW_CALLS and self.lock_depth:
            self._report(node, f"{name}() called while holding _LOCK")
        if (isinstance(func, ast.Attribute) and name in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in RECORD_STATE and not self.lock_depth):
            self._report(node, f"ImageRecord.{self.function} calls "
                               f"self.{func.value.attr}.{name}() outside `with _LOCK`")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        target = node.value
        if (isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(target, ast.Attribute)
                and target.attr in RECORD_STATE and not self.lock_depth):
            self._report(node, f"ImageRecord.{self.function} mutates "
                               f"self.{target.attr} outside `with _LOCK`")
        self.generic_visit(node)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def check_code_cache(path: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    tree = _parse(path)
    violations: list[tuple[pathlib.Path, int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CodeCache":
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in EXEMPT_METHODS:
                    continue
                checker = _CacheMethodChecker(path, item.name)
                checker.visit(item)
                violations.extend(checker.violations)
    return violations


def check_code_memo(path: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    checker = _MemoChecker(path)
    checker.visit(_parse(path))
    return checker.violations


def check_image_registry(path: pathlib.Path) -> list[tuple[pathlib.Path, int, str]]:
    checker = _RegistryChecker(path)
    checker.visit(_parse(path))
    return checker.violations


def run(root: pathlib.Path = REPO_ROOT) -> list[tuple[pathlib.Path, int, str]]:
    violations = []
    violations += check_code_cache(root / "src" / "repro" / "vm" / "code_cache.py")
    violations += check_image_registry(root / "src" / "repro" / "vm" / "images.py")
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        violations += check_code_memo(path)
    return violations


def main() -> int:
    violations = run()
    for path, line, message in violations:
        print(f"{path.relative_to(REPO_ROOT)}:{line}: {message}")
    if violations:
        print(f"{len(violations)} lock violation(s)", file=sys.stderr)
        return 1
    print("lint_locks: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
