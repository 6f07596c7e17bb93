"""The public surface of the package: README's Library block runs and
prints what its comments say, and every public function has a caller in
the package or a line in that block."""

import ast
import math
import pathlib
import re
from collections import Counter

from magneton import magneton, quad

ROOT = pathlib.Path(__file__).parents[1]


def _library_block() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _names(node: ast.AST) -> Counter:
    """How often each name is used below `node`, bare or as an attribute."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_readme_library_block():
    # run the block statement by statement, keeping each expression's value
    src = _library_block()
    scope: dict = {}
    values = {}
    for node in ast.parse(src).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(src, node)] = eval(code, scope)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    # a comment that opens with a decimal is the value, digit for digit
    stated = 0
    for line in src.splitlines():
        code, _, comment = line.partition("#")
        number = re.match(r"\s*(\d+\.\d+)\b", comment)
        if number and code.strip() in values:
            assert repr(values[code.strip()]) == number[1], line
            stated += 1
    assert stated == 4
    closed = values["magneton.phi_closed(2.0)"]
    assert f"{abs(values['quad.phi_numeric(2.0).value'] - closed):.0e}" == "5e-05"
    assert values["quad.phi_numeric_lines([0.5, 2.0])"] == [quad.phi_numeric(0.5), quad.phi_numeric(2.0)]
    assert values["magneton.jump_at_one()"] == 4.0 * math.pi
    assert values["magneton.well_S(1.3)"] == magneton.well_S(0.7)
    slope = values["taylor.rearranged_at_one(coeffs, 13).slope"]
    assert abs(slope - values["magneton.lambda_one()"]) <= 1e-16


def test_public_functions_have_a_caller():
    # a public function that nothing in the package uses and README's
    # Library block does not name is surface only the tests reach
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "magneton").glob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    documented = _names(ast.parse(_library_block()))
    orphans = [
        fn.name
        for tree in trees
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and used[fn.name] == _names(fn)[fn.name] and not documented[fn.name]
    ]
    assert orphans == []
