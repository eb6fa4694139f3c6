"""The package's public surface is what the package, its benchmark and its
README use.

Every public module-level function, class or constant in
``src/polyspace`` is read by another statement of the package, named by
``perfbench/`` (whose tracer names functions as strings), or named in
backticks in README.md.  No module but ``__init__`` imports a name it
never reads, and no module raises a bare ``ValueError``.  Every error
class is an exit-code base, carries data of its own, is caught by name in
the package or is named by ``perfbench/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted((ROOT / "src" / "polyspace").glob("*.py"))}


def _bound(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _read(node):
    """Names read anywhere under node: loads, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _perfbench_names():
    out = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        out |= _read(tree)
        out.update(part for sub in ast.walk(tree)
                   if isinstance(sub, ast.Constant)
                   and isinstance(sub.value, str)
                   and re.fullmatch(r"[A-Za-z_][\w.]*", sub.value)
                   for part in sub.value.split("."))
    return out


def _readme_names():
    text = (ROOT / "README.md").read_text()
    return {part for name in re.findall(r"`([A-Za-z_][\w.]*)", text)
            for part in name.split(".")}


def _unused(readme_names):
    """Public names that no other statement of the package reads, that
    ``perfbench/`` does not name and that are not in readme_names."""
    used = _perfbench_names() | readme_names
    for name, tree in MODULES.items():
        if name != "__init__":
            for stmt in tree.body:
                used |= _read(stmt) - _bound(stmt)
    return {f"{name}.{public}" for name, tree in MODULES.items()
            for stmt in tree.body for public in _bound(stmt)
            if not public.startswith("_") and public not in used}


def test_every_public_name_is_used():
    unused = _unused(_readme_names())
    assert not unused, ", ".join(sorted(unused))


# Paper statements that only the README keeps alive: the package reads
# none of them and only the tests exercise them. A name leaves this list
# when the package reads it or when it moves to the tests as an oracle,
# and joins it only on purpose.
README_ONLY = {
    "frames.torus_act", "frames.truncated_gram2", "frames.u2_act",
    "polygon.even_diagonals", "polygon.is_lined", "polygon.is_prodigal",
    "polygon.is_proper", "polytope.triangle_slacks",
}


def test_names_only_the_readme_keeps_are_listed():
    assert _unused(set()) == README_ONLY


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        loads = {sub.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Name)
                 and isinstance(sub.ctx, ast.Load)}
        for stmt in ast.walk(tree):
            if (isinstance(stmt, ast.ImportFrom)
                    and stmt.module == "__future__"):
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                unread += [f"{name}: {alias.name}" for alias in stmt.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in loads]
    assert not unread, ", ".join(unread)


def _raised(node):
    """The name a ``raise`` statement raises, called or not, else None."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_module_raises_a_bare_value_error():
    # a refused argument raises errors.InputError, which the CLI maps to
    # exit 1; a bare ValueError would escape it as a traceback
    bare = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and _raised(node) == "ValueError"]
    assert not bare, ", ".join(bare)


def _caught(handler):
    """The names an ``except`` clause catches, one or a tuple."""
    types = handler.type
    types = types.elts if isinstance(types, ast.Tuple) else [types]
    return {t.id if isinstance(t, ast.Name) else t.attr for t in types
            if isinstance(t, (ast.Name, ast.Attribute))}


def test_every_error_class_has_a_reaction():
    # a class nothing tells apart from its base is the base under another
    # name: the CLI maps only InputError/PolyspaceError and Infeasible
    kept = {"PolyspaceError", "InputError", "Infeasible"} | _perfbench_names()
    kept |= {name for tree in MODULES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.type
             for name in _caught(node)}
    idle = [stmt.name for stmt in MODULES["errors"].body
            if isinstance(stmt, ast.ClassDef) and stmt.name not in kept
            and not any(isinstance(sub, ast.FunctionDef)
                        and sub.name == "__init__" for sub in stmt.body)]
    assert not idle, ", ".join(idle)
