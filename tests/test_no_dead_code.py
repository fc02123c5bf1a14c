"""No code that nothing calls: every top-level function and class in
``src/repro`` is referenced somewhere outside its own definition, in the
program, its tests, jobs, benchmarks or perfbench.

A reference is an identifier (a name, an attribute or an imported name) or
a word of a string literal that is not a docstring: ``perfbench/tracing.py``
names the functions it wraps as strings.  Uses inside the definition itself
(recursion) do not count, nor do the names a module lists in ``__all__``.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRS = ["src", "tests", "jobs", "benchmarks", "perfbench"]


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _exports(tree: ast.Module) -> set[int]:
    """ids of the string constants listed in a module's ``__all__``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            out |= {id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return out


def _references(path: Path, tree: ast.Module):
    """``(name, file, line)`` of every identifier and string word in ``tree``."""
    skip = _docstrings(tree) | _exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, path, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], path, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            for word in re.findall(r"\w+", node.value):
                yield word, path, node.lineno


def _parsed():
    for d in DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_every_top_level_definition_is_referenced():
    trees = list(_parsed())
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees:
        for name, p, line in _references(path, tree):
            refs.setdefault(name, []).append((p, line))
    orphans = []
    for path, tree in trees:
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            used = [
                (p, line)
                for p, line in refs.get(node.name, [])
                if not (p == path and first <= line <= node.end_lineno)
            ]
            if not used:
                orphans.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not orphans, "defined but never referenced:\n" + "\n".join(orphans)
