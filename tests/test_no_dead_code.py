"""Every definition and import in the package has a caller.

A top-level function, class or assignment of a `nucforce` module counts
as used when its own module reads it outside its own definition, when
another `nucforce` module imports it, or when one of the two external
contracts imports it: the acceptance tests and the benchmark workloads.
A re-export from the package `__init__` is not a use.  An import counts
as used when its module reads the name it binds.  A method, property or
annotated field of a package class counts as used when a package module
or a contract reads an attribute of that name; dunder methods are called
by Python itself and always count.  The check reads the source with
`ast`; nothing is imported or run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nucforce"
CONTRACTS = (ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "workloads.py")


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _contracts() -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path)) for path in CONTRACTS]


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


def _imported(modules: dict[str, ast.Module], contracts: list[ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every `from .module import name` in a package
    module other than `__init__`, and every `from nucforce.module import
    name` in a contract."""
    out = set()
    for mod, tree in modules.items():
        if mod == "__init__":
            continue
        for node in _imports(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out |= {(node.module, alias.name) for alias in node.names}
    for tree in contracts:
        for node in _imports(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("nucforce."):
                out |= {(node.module.removeprefix("nucforce."), alias.name) for alias in node.names}
    return out


def unused_definitions(modules: dict[str, ast.Module], contracts: list[ast.Module]) -> list[str]:
    imported = _imported(modules, contracts)
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


def _member_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unused_members(modules: dict[str, ast.Module], contracts: list[ast.Module]) -> list[str]:
    read = {n.attr for tree in [*modules.values(), *contracts] for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = []
    for mod, tree in modules.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            out += [f"{mod}.{cls.name}.{name}" for stmt in cls.body for name in _member_names(stmt)
                    if name not in read and not (name.startswith("__") and name.endswith("__"))]
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
    assert unused_definitions(_modules(), _contracts()) == []


def test_every_class_member_is_read():
    assert unused_members(_modules(), _contracts()) == []


def test_every_import_is_used():
    assert unused_imports(_modules()) == []


def test_the_check_sees_a_dead_definition_and_an_unused_import():
    modules = {
        "__init__": ast.parse("from .a import reexported"),
        "a": ast.parse("import json\nfrom .b import helper as h\n"
                       "LIMIT = 3\n"
                       "def exported():\n    return LIMIT\n"
                       "def reexported():\n    pass\n"
                       "def orphan():\n    return orphan()\n"),
        "b": ast.parse("def helper():\n    pass\n"),
    }
    contracts = [ast.parse("from nucforce.a import exported")]
    # the contract's import keeps `exported`; the `__init__` re-export does not keep `reexported`
    assert unused_definitions(modules, contracts) == ["a.reexported", "a.orphan"]
    assert unused_definitions(modules, []) == ["a.exported", "a.reexported", "a.orphan"]
    assert unused_imports(modules) == ["a: json", "a: h"]


def test_the_check_sees_an_unread_member():
    modules = {"a": ast.parse("class C:\n    size: int\n    note: str = ''\n"
                              "    def __post_init__(self):\n        self.note = 'x'\n"
                              "    def used(self):\n        return self.size\n"
                              "    @property\n    def unused(self):\n        return 1\n")}
    # a write is not a read, and a dunder method always counts
    assert unused_members(modules, []) == ["a.C.note", "a.C.used", "a.C.unused"]
    assert unused_members(modules, [ast.parse("def f(c):\n    return c.used() and c.note")]) == ["a.C.unused"]
