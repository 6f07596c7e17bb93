"""The public surface of the package: README's Library block runs and
prints what its comments say, every public function has a caller in the
package or a line in that block, every module-level name is read, numpy
and decimal are imported only where the import rule below allows, and
the third-party imports are the declared runtime dependencies."""

import ast
import math
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

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
    assert stated == 7
    closed = values["magneton.phi_closed(2.0)"]
    assert f"{abs(values['quad.phi_numeric(2.0).value'] - closed):.0e}" == "5e-05"
    assert values["quad.phi_numeric_lines([0.5, 2.0])"] == [quad.phi_numeric(0.5), quad.phi_numeric(2.0)]
    assert values["magneton.JUMP_AT_ONE"] == 4.0 * math.pi
    assert values["magneton.well_S(1.3)"] == magneton.well_S(0.7)
    slope = values["taylor.rearranged_at_one(coeffs, 13).slope"]
    assert abs(slope - values["magneton.LAMBDA_ONE"]) <= 1e-16


def _bound(fn: ast.AST) -> set[str]:
    """The names a function binds for itself: parameters, stores, imports
    and nested definitions, those of its nested functions included."""
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, ast.FunctionDef) and node is not fn:
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def _uses(node: ast.AST, stem: str, top=None, shadowed=frozenset()):
    """(kind, name, module, top) for each use of a name below `node` in
    module `stem`: kind "attr" for an attribute read, "import" for a name
    imported from `module` of the package, "bare" for a bare read that no
    enclosing function binds; `top` is the enclosing top-level function."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, (ast.FunctionDef, ast.Lambda)):
            inner = top or getattr(sub, "name", None)
            yield from _uses(sub, stem, inner, shadowed | _bound(sub))
            continue
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield "attr", sub.attr, None, top
        elif isinstance(sub, ast.ImportFrom) and sub.module:  # from .cli or magneton.cli
            yield from (("import", a.name, sub.module.removeprefix("magneton."), top) for a in sub.names)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in shadowed:
            yield "bare", sub.id, stem, top
        yield from _uses(sub, stem, top, shadowed)


def test_public_functions_have_a_caller():
    # a public function that nothing in the package uses and README's
    # Library block does not name is surface only the tests reach.  A use
    # is an attribute read, an import into another module, or a bare read
    # in its own module where no local of that name shadows it; a function
    # does not use itself
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "magneton").glob("*.py"))}
    uses = {(where, *use) for where, tree in trees.items() for use in _uses(tree, where)}
    documented = _names(ast.parse(_library_block()))

    def used(stem: str, fn: str) -> bool:
        return any(
            name == fn and (where, top) != (stem, fn)
            and (kind == "attr" or module == stem and (kind == "bare") == (where == stem))
            for where, kind, name, module, top in uses
        )

    orphans = [
        f"{stem}.{fn.name}"
        for stem, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and not used(stem, fn.name) and not documented[fn.name]
    ]
    assert orphans == []


def test_module_names_are_read():
    # a module-level name that nothing in the package reads, such as a
    # constant left behind by a cut of the code that used it, is dead: each
    # is read in its own module, or elsewhere as an attribute or by import
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "magneton").glob("*.py"))}
    loads = {
        stem: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stem, tree in trees.items()
    }
    shared = set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared |= {a.name for a in node.names if (a.asname or a.name) in loads[stem]}
    dead = [
        f"{stem}.{name.id}"
        for stem, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (top.targets if isinstance(top, ast.Assign) else [top.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id not in loads[stem] | shared
    ]
    assert dead == []


def _imports() -> set[tuple[str, str | None, str]]:
    """(module, the top-level function holding the import or None, the
    module imported, package-relative for the package's own) for every
    import statement in src/magneton."""
    out = set()
    for path in sorted((ROOT / "src" / "magneton").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
                    names = [alias.name for alias in node.names]  # from . import quad
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module.split(".")[0]]
                else:
                    continue
                out |= {(path.stem, where, name) for name in names}
    return out


def test_import_rule():
    # numpy loads with quad and taylor, which only the table and taylor
    # commands import, so figure and constants never load it; specfun's
    # complex kernels and quotient import it when first called.  mpmath is
    # a test and benchmark dependency only: the exact route runs on decimal.
    imports = _imports()

    def sites(name: str) -> set:
        return {(mod, where) for mod, where, imported in imports if imported == name}

    assert {mod for mod, where in sites("numpy") if where is None} == {"quad", "taylor"}
    assert {(mod, where) for mod, where in sites("numpy") if where is not None} == {
        ("specfun", f) for f in ("_cdiv", "_n_trunc", "_n_pow_it", "_reg_lines", "_kernel")
    }
    assert sites("mpmath") == set()
    # decimal loads inside the exact route, after the prime sums
    assert {mod for mod, where in sites("decimal")} == {"taylor"}
    assert ("taylor", None) not in sites("decimal")
    assert sites("quad") | sites("taylor") == {("cli", "cmd_table"), ("cli", "cmd_taylor")}


def test_third_party_imports_are_the_dependencies():
    tomllib = pytest.importorskip("tomllib")
    absolute = set()
    for path in (ROOT / "src" / "magneton").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                absolute |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                absolute.add(node.module.split(".")[0])
    third_party = absolute - set(sys.stdlib_module_names) - {"magneton"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]}
    assert third_party == declared == {"numpy"}


def test_taylor_command_loads_no_mpmath():
    code = (
        "import sys\nfrom magneton import cli\n"
        "cli.main(['taylor', '--order', '20', '--prime-limit', '1000000'])\n"
        "print('mpmath' in sys.modules, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "False"]
