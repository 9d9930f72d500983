"""`formula.read_numeral` is the one place that reads a number from text.

Outside `read_numeral`, no package module calls `int` with one argument,
passes `int` as an argparse `type`, or calls `.isdecimal()`, `.isdigit()`
or `.isnumeric()`.  Each of these has its own idea of a numeral: `int`
takes "+3", " 3", "1_0" and the digits of other scripts, and the three
tests take the digits of other scripts.  The check reads the source with
`ast`; nothing is imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nucforce"
DIGIT_TESTS = ("isdecimal", "isdigit", "isnumeric")


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _calls(mod: str, node: ast.AST):
    """The calls under node, in source order, outside `formula.read_numeral`."""
    for child in ast.iter_child_nodes(node):
        if mod == "formula" and isinstance(child, ast.FunctionDef) and child.name == "read_numeral":
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _calls(mod, child)


def numeral_reads(modules: dict[str, ast.Module]) -> list[str]:
    """`module:line: what` for every number read from text outside
    `formula.read_numeral`."""
    out = []
    for mod, tree in modules.items():
        for call in _calls(mod, tree):
            fn = call.func
            if isinstance(fn, ast.Name) and fn.id == "int" and len(call.args) + len(call.keywords) == 1:
                out.append(f"{mod}:{call.lineno}: int() of one argument")
            if isinstance(fn, ast.Attribute) and fn.attr in DIGIT_TESTS:
                out.append(f"{mod}:{call.lineno}: .{fn.attr}()")
            out += [f"{mod}:{call.lineno}: type=int" for kw in call.keywords
                    if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id == "int"]
    return out


def test_only_read_numeral_reads_a_number_from_text():
    assert numeral_reads(_modules()) == []


def test_the_check_sees_each_way_of_reading_a_number():
    modules = {
        "formula": ast.parse("def read_numeral(text):\n    return int(text) if text.isdigit() else None\n"
                             "def bits(text):\n    return int(text, 2)\n"),
        "cli": ast.parse("def build(p, s):\n    p.add_argument('--n', type=int)\n"
                         "    return s.isdecimal() or s.isnumeric() or int(s) or int(x=s)\n"),
        "nucleus": ast.parse("def read_numeral(s):\n    return s.isdigit()\n"),
    }
    # read_numeral counts only in formula, and int with a base is not a numeral read
    assert numeral_reads(modules) == ["cli:2: type=int", "cli:3: .isdecimal()", "cli:3: .isnumeric()",
                                      "cli:3: int() of one argument", "cli:3: int() of one argument",
                                      "nucleus:2: .isdigit()"]
