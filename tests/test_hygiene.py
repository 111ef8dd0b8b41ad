"""Source hygiene: every name a module or test file imports is used in
that file, joint-intersection LPs are asked only through the oracle,
and LP systems are built only by the one LP builder. math.gcd is called only
by the one row cut, lp._reduced, which sets.py calls only in its one
elimination routine, _cone, and the simplex does no denominator work:
rationals become int rows before it.
Pipelines make their rows and their oracle only through `_Run`, and a
piercing solution is built and verified by one routine. Every function
and public method in the package is exported or used.

`__init__.py` re-exports by importing, and `from __future__` imports
are directives, so both are exempt from the import check.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pqpierce"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 2)"]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def joint_lp_references(source: str) -> list[int]:
    """Lines that name `intersect_nonempty` other than by defining or
    importing it."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "intersect_nonempty")
        or (isinstance(node, ast.Attribute) and node.attr == "intersect_nonempty")
    )


def test_detector_flags_a_joint_lp_call():
    source = (
        "from .sets import intersect_nonempty\n"
        "def intersect_nonempty(fam, idx): ...\n"
        "ok = intersect_nonempty(fam, [0, 1])[0]\n"
        "also = sets.intersect_nonempty\n"
    )
    assert joint_lp_references(source) == [3, 4]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "piercing.py"], ids=lambda p: p.name
)
def test_joint_intersection_only_through_the_oracle(path):
    # IntersectionOracle in piercing.py is the one caller of the joint LP
    assert joint_lp_references(path.read_text(encoding="utf-8")) == []


def scoped_nodes(source: str) -> list[tuple[ast.AST, str]]:
    """(node, enclosing def or class path) for every node below a def or
    class statement or the module; the path is "" at module level. A def
    or class statement is in the path of the nodes below it, not in its
    own."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            out.append((child, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return out


def unreferenced_functions(
    defining: dict[str, str], referring: dict[str, str], exported: set[str]
) -> list[str]:
    """`module.qualname` of every function and public method of the
    `defining` sources (module -> source) that is not `exported` and
    that no name or attribute of any source, `referring` ones included,
    refers to outside the function's own body."""
    refs: dict[str, list[tuple[str, str]]] = {}  # name -> (module, scope) of each use
    defs = []
    for mod, source in {**defining, **referring}.items():
        nodes = scoped_nodes(source)
        classes = {f"{scope}.{n.name}".lstrip(".") for n, scope in nodes if isinstance(n, ast.ClassDef)}
        for node, scope in nodes:
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                refs.setdefault(name, []).append((mod, scope))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and mod in defining:
                if not (scope in classes and node.name.startswith("_")):
                    defs.append((mod, f"{scope}.{node.name}".lstrip("."), node.name))
    return [
        f"{mod}.{qual}"
        for mod, qual, name in defs
        if qual not in exported
        and all(m == mod and (s == qual or s.startswith(qual + ".")) for m, s in refs.get(name, ()))
    ]


def test_detector_flags_an_unreferenced_function():
    source = (
        "def exported(): ...\n"
        "def unused(): ...\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def used(): ...\n"
        "class C:\n"
        "    def method(self): return self.method()\n"
        "    def called(self): ...\n"
        "    def _private(self): ...\n"
        "    def __len__(self): ...\n"
        "def outer():\n"
        "    def inner(): ...\n"
        "    return used()\n"
    )
    other = "C().called(); outer()\n"
    assert unreferenced_functions({"m": source}, {"o": other}, {"exported"}) == [
        "m.unused", "m.recursive", "m.C.method", "m.outer.inner",
    ]


def test_every_function_is_exported_or_referenced():
    # perfbench calls the package by name, so its uses count; its tracer
    # wraps bindings it finds by walking the modules, and names none
    defining = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    referring = {
        f"perfbench.{p.stem}": p.read_text(encoding="utf-8")
        for p in sorted((SRC.parent.parent / "perfbench").glob("*.py"))
    }
    exported = imported_names(defining["__init__"])
    assert unreferenced_functions(defining, referring, exported) == []


def construction_sites(
    source: str, classes: tuple[str, ...] = ("LinearSystem",)
) -> list[tuple[str, str, int]]:
    """(class, enclosing def or class path, line) for every call that
    constructs one of `classes`, or calls a function of that name."""
    sites = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in classes:
                sites.append((name, scope, node.lineno))
    return sites


def test_detector_flags_a_row_construction():
    source = (
        "def le(c, r): return Constraint(c, r)\n"
        "class Builder:\n"
        "    def system(self):\n"
        "        return lp.LinearSystem(0, ())\n"
        "row = Constraint({}, 0)\n"
    )
    assert construction_sites(source, ("Constraint", "LinearSystem")) == [
        ("Constraint", "le", 1), ("LinearSystem", "Builder.system", 4), ("Constraint", "", 5),
    ]


# the one path of an LP: set blocks through sets._solve, which alone
# makes a LinearSystem, from the sets' own int rows
ROW_BUILDERS = {
    "LinearSystem": ("sets._solve",),
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_lp_rows_built_only_by_the_row_builders(path):
    for cls, scope, line in construction_sites(path.read_text(encoding="utf-8")):
        where = f"{path.stem}.{scope}"
        assert any(where == b or where.startswith(b + ".") for b in ROW_BUILDERS[cls]), (cls, where, line)


def attribute_reads(source: str, attr: str) -> list[tuple[str, int]]:
    """(enclosing def or class path, line) for every `x.<attr>`."""
    return [
        (scope, node.lineno)
        for node, scope in scoped_nodes(source)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_gcd_only_in_the_one_row_cut(path):
    # the simplex, invert_matrix and sets._cone all cut their int rows
    # through lp._reduced
    for _, scope, line in construction_sites(path.read_text(encoding="utf-8"), ("gcd",)):
        assert f"{path.stem}.{scope}" == "lp._reduced", (scope, line)


def test_one_elimination_routine_in_sets():
    # sets.py combines rows or rays only in the double-description
    # routine, _cone: a projection reads the generators it gives
    sites = construction_sites((SRC / "sets.py").read_text(encoding="utf-8"), ("_reduced",))
    assert sites  # _cone's own cuts, so the detector sees the calls
    assert [(scope, line) for _, scope, line in sites if scope != "_cone"] == []


# the steps that turn rationals into int rows; the simplex and the sets'
# LPs receive ints and read no denominator
RATIONALS_TO_INTS = {"lp._int_row", "lp.invert_matrix"}


def test_denominators_only_where_rationals_become_int_rows():
    source = (SRC / "lp.py").read_text(encoding="utf-8")
    sites = [(scope, line) for _, scope, line in construction_sites(source, ("lcm",))]
    sites += attribute_reads(source, "denominator")
    assert sites  # _int_row's own lcm, so the detector sees the calls
    for scope, line in sites:
        assert f"lp.{scope}" in RATIONALS_TO_INTS, (scope, line)


def imported_names(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "rational.py"], ids=lambda p: p.name
)
def test_no_fraction_substitution(path):
    # membership and recession go through sets._holds over int rows,
    # not through Fraction dot products
    assert "dot" not in imported_names(path.read_text(encoding="utf-8"))


def renderer_references(source: str) -> list[int]:
    """Lines that name `rat_str` or import `fields` or `is_dataclass`
    from dataclasses: the pieces of a JSON renderer."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            if {a.name for a in node.names} & {"fields", "is_dataclass"}:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(a.name == "rat_str" for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "rat_str") or (
            isinstance(node, ast.Attribute) and node.attr == "rat_str"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_detector_flags_a_second_renderer():
    source = (
        "from dataclasses import dataclass, fields\n"
        "from dataclasses import is_dataclass as isdc\n"
        "from dataclasses import replace\n"
        "from .rational import rat_str\n"
        "def point_json(p): return [rational.rat_str(c) for c in p]\n"
        "text = rat_str(x)\n"
    )
    assert renderer_references(source) == [1, 2, 4, 5, 6]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "rational.py"], ids=lambda p: p.name
)
def test_one_json_renderer(path):
    # every value reaches JSON through rational.to_json
    assert renderer_references(path.read_text(encoding="utf-8")) == []


def test_the_oracle_keeps_no_row_copies():
    # each set holds its own int rows (HRep.rows, VRep.rows)
    source = (SRC / "piercing.py").read_text(encoding="utf-8")
    assert "_int_rows" not in source and "_scaled_rows" not in source


ONE_ORACLE = ("IntersectionOracle", "Family")


def extra_oracles(source: str) -> list[tuple[str, str, int]]:
    """Every Family construction, and every IntersectionOracle
    construction after the first in the same def."""
    seen: set[str] = set()
    out = []
    for cls, scope, line in construction_sites(source, ONE_ORACLE):
        if cls == "Family" or scope in seen:
            out.append((cls, scope, line))
        seen.add(scope)
    return out


def test_detector_flags_a_second_oracle():
    source = (
        "def run(fam, box):\n"
        "    oracle = IntersectionOracle(fam)\n"
        "    boxed = piercing.IntersectionOracle(Family(fam.dim, fam.sets + (box,)))\n"
        "def other(fam):\n"
        "    return IntersectionOracle(fam)\n"
    )
    assert extra_oracles(source) == [
        ("IntersectionOracle", "run", 3), ("Family", "run", 3),
    ]


def test_one_oracle_per_pipeline_run():
    # a fixed set joins the run's oracle (IntersectionOracle.join), so a
    # pipeline builds neither a second oracle nor an augmented family
    assert extra_oracles((SRC / "pipelines.py").read_text(encoding="utf-8")) == []


def test_pipelines_add_rows_and_ask_queries_only_through_the_run():
    # every pipeline runs through pipelines._Run, which owns the oracle
    # and makes every row
    sites = construction_sites(
        (SRC / "pipelines.py").read_text(encoding="utf-8"), ("HypothesisCheck", "IntersectionOracle")
    )
    assert {cls for cls, _, _ in sites} == {"HypothesisCheck", "IntersectionOracle"}
    assert [s for s in sites if not s[1].startswith("_Run.")] == []


def test_piercing_solutions_built_and_verified_by_one_routine():
    sites = {
        (path.stem, scope)
        for path in SRC.glob("*.py")
        for _, scope, _ in construction_sites(path.read_text(encoding="utf-8"), ("PiercingSolution",))
    }
    assert sites == {("piercing", "_verified_solution")}


def test_fresh_imports_leave_no_stale_module_copies():
    # a benchmark that re-imports the package must be able to free the
    # earlier copies; a typing.Union over package classes, for one, is
    # kept in typing's cache and keeps its module alive
    script = (
        "import gc, importlib, sys\n"
        "for _ in range(9):\n"
        "    for name in [m for m in sys.modules if m.partition('.')[0] == 'pqpierce']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('pqpierce')\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__module__ == 'pqpierce.sets'\n"
        "          and o.__qualname__ == 'ConvexSet' for o in gc.get_objects()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["1"]
