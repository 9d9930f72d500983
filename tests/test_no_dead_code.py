"""Every definition and import in the package has a caller.

A top-level function, class or assignment of a `nucforce` module counts
as used when its own module reads it outside its own definition, or when
another `nucforce` module (the package `__init__` included) imports it.
An import counts as used when its module reads the name it binds.  The
check reads the source with `ast`; nothing is imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nucforce"


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _reads(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _imports(tree: ast.Module) -> list[ast.ImportFrom | ast.Import]:
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
            and not (isinstance(n, ast.ImportFrom) and n.module == "__future__")]


def _imported_from_package(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every `from .module import name` in the package."""
    out = set()
    for tree in modules.values():
        for node in _imports(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out |= {(node.module, alias.name) for alias in node.names}
    return out


def unused_definitions(modules: dict[str, ast.Module]) -> list[str]:
    imported = _imported_from_package(modules)
    out = []
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        reads = [_reads(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            out += [f"{mod}.{name}" for name in _defined(stmt)
                    if (mod, name) not in imported
                    and not any(name in r for k, r in enumerate(reads) if k != i)]
    return out


def unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    out = []
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        reads = _reads(tree)
        for node in _imports(tree):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in reads:
                    out.append(f"{mod}: {bound}")
    return out


def test_every_top_level_definition_has_a_caller():
    assert unused_definitions(_modules()) == []


def test_every_import_is_used():
    assert unused_imports(_modules()) == []


def test_the_check_sees_a_dead_definition_and_an_unused_import():
    modules = {
        "__init__": ast.parse("from .a import exported"),
        "a": ast.parse("import json\nfrom .b import helper as h\n"
                       "LIMIT = 3\n"
                       "def exported():\n    return LIMIT\n"
                       "def orphan():\n    return orphan()\n"),
        "b": ast.parse("def helper():\n    pass\n"),
    }
    assert unused_definitions(modules) == ["a.orphan"]
    assert unused_imports(modules) == ["a: json", "a: h"]
