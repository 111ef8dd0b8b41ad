"""Byte-identity gate: pipeline reports, a piercing and CLI outputs on
fixed small inputs must equal the JSON stored under tests/golden/.

A change that is meant to keep every answer (a refactor, a faster LP
path) must leave these files alone. To record new answers on purpose,
run `PYTHONPATH=src python tests/test_golden.py` and commit the diff.
"""
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

import pytest

from pqpierce.cli import cmd_dispatch
from pqpierce.constructions import (
    CounterexampleSpec,
    bounded_member,
    counterexample_family,
    family_A,
    family_B,
    unbounded_member,
)
from pqpierce.lp import completed_basis_matrix, invert_matrix
from pqpierce.piercing import piercing_number
from pqpierce.rational import to_json
from pqpierce.pipelines import (
    pierce_via_free_family,
    pierce_via_projection,
    pierce_via_transversal,
    verify_counterexample,
    verify_projection_equivalence,
)
from pqpierce.sets import (
    change_coordinates,
    change_coordinates_family,
    convex_hull_union,
    family,
    family_to_json,
    hrep_set,
    project_drop_last,
    set_to_json,
    vrep_set,
)

GOLDEN = Path(__file__).parent / "golden"


def box2(label, x0, x1, y0, y1):
    return vrep_set(label, [(x0, y0), (x1, y0), (x0, y1), (x1, y1)])


def plane_family():
    # a far singleton, four nested half-planes, two overlapping squares
    sets = [vrep_set("lone", [(-10, 0)])]
    for n in range(1, 5):
        sets.append(hrep_set(f"hp{n}", [((-1, 0), -n)]))
    sets.append(box2("sq1", 4, 5, 0, 1))
    sets.append(box2("sq2", F(9, 2), F(11, 2), F(1, 2), F(3, 2)))
    return family(sets)


def s1():
    return to_json(pierce_via_transversal(plane_family(), t=1, p=4))


def s2_family():
    sets = [box2("b1", 0, 1, 0, 1), box2("b2", 2, 3, 0, 1)]
    sets += [hrep_set(f"upper{n}", [((0, -1), n)]) for n in range(1, 5)]
    return family(sets)


def s2():
    return to_json(pierce_via_free_family(s2_family(), [0, 1], p=4, q=3))


def s2_failed():
    # the selection's members meet, so the report stops at its first row
    sets = [box2("b1", 0, 1, 0, 1), box2("b2", F(1, 2), 2, 0, 1)]
    sets += [hrep_set(f"upper{n}", [((0, -1), n)]) for n in range(1, 5)]
    return to_json(pierce_via_free_family(family(sets), [0, 1], p=4, q=3))


def main_family():
    sets = [vrep_set("c1", [(0,), (2,)]), vrep_set("c2", [(1,), (3,)])]
    sets += [hrep_set(f"ray{n}", [((-1,), -n)]) for n in range(1, 4)]
    return family(sets)


def main():
    return to_json(pierce_via_projection(main_family(), [0, 1], p=5, q=4))


def counterexample():
    spec = CounterexampleSpec(d=1, n_max=6, n_bounded=3)
    return to_json(verify_counterexample(spec, k_max=1))


def corollary52_inputs():
    spec = CounterexampleSpec(d=1, n_max=5, n_bounded=2)
    box = convex_hull_union(family_B(spec), [0, 1])
    back = completed_basis_matrix((F(1), F(0)))
    forward = invert_matrix(back)
    fam = change_coordinates_family(family_A(spec), forward, back)
    return fam, change_coordinates(box, forward, back)


def corollary52():
    fam, box = corollary52_inputs()
    return to_json(verify_projection_equivalence(fam, box, max_subset=3))


def piercing():
    return to_json(piercing_number(plane_family()))


def analyze_recession(tmp_path):
    # H-reps, a V-rep cone and a V-rep of ten points and two rays, all
    # receding along some of +x, +y, +z
    corners = [(x, y, 0) for x in range(5) for y in range(2)]
    fam = family([
        hrep_set("up", [((0, 0, -1), 0), ((-1, -1, 0), 1)]),
        vrep_set("wedge", [(0, 0, 0)], [(1, 0, 0), (1, 1, 0), (0, 0, 1)]),
        vrep_set("slab", corners, [(1, 1, 1), (2, 1, 1)]),
    ])
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family_to_json(fam)))
    return cmd_dispatch(["analyze", "recession", "--input", str(path)])


# every leaf command, each --format csv leaf, --limit, --budget, the
# exit-1 and exit-3 answers and the usage and file errors, run in a
# directory holding the files below
CLI_ARGV = [
    "construct simplex --d 2 --alphas 1/2,2/3",
    "construct simplex --d 3 --count 4 --seed 7",
    "construct simplex --d 2 --count 5 --max-den 4 --seed 3",
    "construct simplex --d 1 --count 9 --max-den 5 --seed 1",
    "construct simplex --d 2 --count 6 --max-den 4",
    "construct simplex --d 2 --count 0",
    "construct simplex --d 2 --count 1 --max-den 1",
    "construct simplex --d 2",
    "construct simplex --d 2 --alphas 1/2 --count 1",
    "construct counterexample --d 1 --n-max 6 --n-bounded 3",
    "construct counterexample --d 2 --n-max 4 --n-bounded 2 --margin 1/2",
    "construct counterexample --d 1 --n-max 1 --n-bounded 0",
    "construct gruenbaum --n-max 4 --copies 2",
    "construct free-flats --d 2 --k 1 --count 4 --radius 5 --seed 3",
    "check pq --p 4 --q 3 --input fam.json",
    "check pq --p 6 --q 6 --input fam.json",
    "check pq --p 4 --q 3 --input fam.json --format csv",
    "check pq --p 6 --q 6 --input fam.json --format csv",
    "check pq --p 4 --q 3 --input fam.json --budget 2",
    "check pq --p 4 --q 3 --input fam.json --budget 0",
    "check pq --p 2 --q 2 --input missing.json",
    "check pq --p 2 --q 2 --input bad.json",
    "check pq --p 2 --q 2 --input fam.json --format xml",
    "solve pierce --input plane.json",
    "solve pierce --input plane.json --limit 1",
    "solve pierce --input plane.json --limit 0",
    "solve pierce --input plane.json --budget 1",
    "solve pierce --input plane.json --format csv",
    "solve transversal --input tri.json",
    "solve transversal --input tri.json --limit 1",
    "solve transversal --input tri.json --limit -1",
    "solve transversal --input fam.json",
    "analyze recession --input fam.json",
    "analyze recession --input plane.json",
    "analyze project --input fam.json",
    "analyze project --input main.json",
    "analyze gf --input fam.json",
    "analyze gf --input fam.json --budget 1",
    "escape --d 1 --n-max 6 --n-bounded 3 --points pts.json",
    "escape --d 1 --n-max 6 --n-bounded 3 --points far.json --n-cap 50",
    "escape --d 1 --n-max 6 --n-bounded 3 --points bad.json",
    "bounds eta --lam 3 --k 2",
    "bounds eta --lam 5 --k 2",
    "bounds eta --lam 4 --k 3",
    "bounds eta --lam 1 --k 1",
    "bounds eta --lam 1 --k 0",
    "bounds eta --lam x --k 2",
    "bounds xi --p 4 --q 3 --d 2",
    "bounds xi --p 5 --q 3 --d 1",
    "bounds xi --p 7 --q 7 --d 3",
    "bounds xi --p 1 --q 5 --d 1",
    "pipeline s1 --input plane.json --t 1 --p 4",
    "pipeline s1 --input plane.json --t 1 --p 4 --format csv",
    "pipeline s1 --input fam.json --t 0 --p 6",
    "pipeline s1 --input fam.json --t 1 --p 4 --budget 1",
    "pipeline s2 --input s2.json --b-indices 0,1 --p 4 --q 3",
    "pipeline s2 --input s2.json --b-indices 0,1 --p 4 --q 3 --format csv",
    "pipeline s2 --input s2.json --b-indices 0,x --p 4 --q 3",
    "pipeline main --input main.json --compact-indices 0,1 --p 5 --q 4",
    "pipeline main --input main.json --compact-indices 0,1 --p 5 --q 4 --format csv",
    "pipeline counterexample --d 1 --n-max 6 --n-bounded 3 --k-max 1",
    "pipeline counterexample --d 1 --n-max 6 --n-bounded 3 --k-max 0 --format csv",
    "pipeline counterexample --d 1 --n-max 6 --n-bounded 3 --k-max 0 --points pts.json",
    "pipeline counterexample --d 1 --n-max 6 --n-bounded 3 --k-max 0 --points far.json --n-cap 50",
    "pipeline counterexample --d 1 --n-max 6 --n-bounded 3 --k-max 0 --jobs 2",
    "pipeline corollary52 --input c52.json --box box.json --max-subset 3",
    "pipeline corollary52 --input c52.json --box box.json --max-subset 3 --format csv",
    "pipeline corollary52 --input c52.json --box box.json --max-subset 3 --budget 0",
    "construct gruenbaum --n-max 3 -o out.json",
    "bounds eta --lam 3 --k 2 -o missing/out.json",
    "bounds eta --lam 3 --k 2 -o .",
    "",
    "frobnicate",
    "construct",
    "pipeline",
    "check pq --p 2",
    # each leaf with no flags: its required flags, named in order
    "construct simplex",
    "construct counterexample",
    "construct gruenbaum",
    "construct free-flats",
    "check pq",
    "solve pierce",
    "solve transversal",
    "analyze recession",
    "analyze project",
    "analyze gf",
    "escape",
    "bounds eta",
    "bounds xi",
    "pipeline s1",
    "pipeline s2",
    "pipeline main",
    "pipeline counterexample",
    "pipeline corollary52",
]


def cli_files(root):
    c52, box = corollary52_inputs()
    files = {
        "fam.json": family_to_json(counterexample_family(CounterexampleSpec(d=1, n_max=6, n_bounded=3))),
        "plane.json": family_to_json(plane_family()),
        "s2.json": family_to_json(s2_family()),
        "main.json": family_to_json(main_family()),
        "c52.json": family_to_json(c52),
        "box.json": set_to_json(box),
        "tri.json": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        "pts.json": {"points": [[6, 0]]},
        "far.json": {"points": [[100, 0]]},
    }
    for name, obj in files.items():
        (root / name).write_text(json.dumps(obj))
    (root / "bad.json").write_text("{bad")


def cli(root):
    """[exit code, stdout] of each argv in CLI_ARGV."""
    cli_files(root)
    out = {}
    cwd = os.getcwd()
    os.chdir(root)  # file names, and so error messages, stay relative
    try:
        for line in CLI_ARGV:
            buf = StringIO()
            with redirect_stdout(buf):
                code = cmd_dispatch(line.split())
            out[line] = [code, buf.getvalue()]
    finally:
        os.chdir(cwd)
    return out


def facets():
    # pierce-2d-style boxes and triangles (one turned by the rotation
    # (3/5, 4/5)), A_n and B_i for d = 1 and 2, a strip with a lineality
    # direction and a segment, whose rows include its line's equation;
    # then the inverses of shadow-style coordinate changes
    turned = [(F(3 * x - 4 * y, 5) + 1, F(4 * x + 3 * y, 5) - F(1, 3))
              for x, y in ((0, 0), (4, 0), (0, 7), (4, 7))]
    sets = [
        box2("box", 2, 9, 3, 8),
        vrep_set("turned_box", turned),
        vrep_set("triangle", [(3, 1), (11, 4), (5, 9)]),
        vrep_set("thin_triangle", [(F(1, 2), 0), (F(7, 3), F(5, 4)), (-2, F(9, 7))]),
        vrep_set("strip", [(0, 0), (0, 1)], [(1, 0), (-1, 0)]),
        vrep_set("segment", [(0, 0), (2, 1)]),
    ]
    for d in (1, 2):
        sets += [unbounded_member(d, n) for n in (2, 3, 7)]
        sets += [bounded_member(d, i, F(1, 2)) for i in (1, 2)]
    out = {}
    for s in sets:
        out[f"{s.label}/{s.dim}"] = [[*normal, offset] for normal, offset in s.rep.rows]
    mats = [
        ((F(2, 3), F(-1, 2)), (F(1, 3), F(1, 2))),
        ((0, 1, F(-2, 3)), (F(1, 2), F(-1, 3), 2), (-1, 0, F(1, 2))),
        ((F(-1, 2), 0, F(2, 3)), (0, 0, F(1, 3)), (F(-2, 3), F(1, 2), 0)),
    ]
    inverses = [to_json(invert_matrix(m)) for m in mats]
    return {"facets": out, "inverses": inverses}


def project():
    # fractional rows, last coefficients zero, positive and negative,
    # rows equal after scaling (given, and derived), a zero row; an
    # empty shadow, an unbounded one and a V-rep
    sets = [
        hrep_set("mixed", [
            ((F(1, 2), F(1, 3), 1), 2), ((F(-2, 3), 1, F(-1, 2)), F(1, 5)),
            ((3, 0, 0), 4), ((F(-3, 2), 0, 0), F(1, 2)), ((0, 0, 0), 1),
            ((2, 4, -2), 6), ((1, 2, -1), 3), ((0, F(-1, 7), F(1, 3)), 0),
            ((1, 1, 2), F(7, 4)), ((4, 4, 8), 7), ((0, -2, F(-5, 4)), F(-3, 2)),
        ]),
        hrep_set("empty", [((1, 0), 3), ((F(1, 2), F(1, 3)), 0), ((0, 0), 0), ((F(-3, 2), -1), -1)]),
        hrep_set("unbounded", [((F(1, 3), F(2, 5)), 1), ((-1, 0), 2)]),
        hrep_set("whole", [((0, 0, F(1, 4)), F(1, 2)), ((0, 0, 0), 0)]),
        vrep_set("cone", [(1, 2, 3), (1, 2, 5), (0, F(1, 2), 3)], rays=[(0, 0, 1), (1, 0, -1), (1, 0, 2)]),
    ]
    return {s.label: set_to_json(project_drop_last(s)) for s in sets}


CASES = {
    "s1": s1,
    "s2": s2,
    "s2_failed": s2_failed,
    "main": main,
    "counterexample": counterexample,
    "corollary52": corollary52,
    "piercing": piercing,
    "facets": facets,
    "project": project,
}


def _text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert _text(CASES[name]()) == (GOLDEN / f"{name}.json").read_text()


def test_analyze_recession_matches_golden(tmp_path, capsys):
    code = analyze_recession(tmp_path)
    out = capsys.readouterr().out
    assert {"exit": code, "stdout": out} == json.loads((GOLDEN / "analyze_recession.json").read_text())


def test_cli_matches_golden(tmp_path):
    assert _text(cli(tmp_path)) == (GOLDEN / "cli.json").read_text()


if __name__ == "__main__":  # rewrite the golden files from the current code
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        (GOLDEN / f"{name}.json").write_text(_text(case()))
    buf = StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(buf):
        code = analyze_recession(Path(tmp))
    (GOLDEN / "analyze_recession.json").write_text(_text({"exit": code, "stdout": buf.getvalue()}))
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "cli.json").write_text(_text(cli(Path(tmp))))
