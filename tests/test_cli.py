"""Command-line interface: exit codes, schema conformance, and
byte-identical determinism."""
import argparse
import io
import json
import time
from contextlib import redirect_stdout
from importlib import resources
from inspect import signature

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqpierce import cli
from pqpierce.cli import cmd_dispatch
from pqpierce.constructions import MAX_DEN, N_CAP, escape_witness, sample_alphas
from pqpierce.pipelines import verify_counterexample


def run(argv, capsys):
    code = cmd_dispatch(argv)
    return code, capsys.readouterr().out


def load_schema(name):
    text = resources.files("pqpierce.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


# 22 disjoint edges: the cover search deepens to 22 vertices, 2^22 leaves
DISJOINT_PAIRS = {"n": 44, "edges": [[2 * i, 2 * i + 1] for i in range(22)]}


@pytest.fixture()
def counterexample_path(tmp_path, capsys):
    path = tmp_path / "fam.json"
    code = cmd_dispatch(
        ["construct", "counterexample", "--d", "1", "--n-max", "6",
         "--n-bounded", "3", "-o", str(path)]
    )
    assert code == 0
    capsys.readouterr()
    return str(path)


class TestConstruct:
    def test_counterexample_sixteen_sets(self, capsys):
        code, out = run(
            ["construct", "counterexample", "--d", "1", "--n-max", "12",
             "--n-bounded", "5"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "family.json")
        assert len(data["sets"]) == 16
        assert data["dimension"] == 2

    def test_gruenbaum(self, capsys):
        code, out = run(["construct", "gruenbaum", "--n-max", "4"], capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "family.json")
        assert [s["label"] for s in data["sets"]][:2] == ["F0", "F1"]

    def test_simplex_explicit_alphas(self, capsys):
        code, out = run(
            ["construct", "simplex", "--d", "2", "--alphas", "1/2,2/3"], capsys
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "family.json")
        assert len(data["sets"]) == 2
        assert "seed" not in data

    def test_simplex_sampled_records_seed(self, capsys):
        code, out = run(
            ["construct", "simplex", "--d", "2", "--count", "3", "--seed", "7"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "family.json")
        assert data["seed"] == 7
        assert len(data["sets"]) == 3

    def test_simplex_count_up_to_distinct_alphas(self, capsys):
        # denominators <= 3 give exactly the alphas 1/3, 1/2, 2/3
        code, out = run(
            ["construct", "simplex", "--d", "1", "--count", "3", "--max-den", "3"],
            capsys,
        )
        assert code == 0
        assert [s["label"] for s in json.loads(out)["sets"]] == ["S(1/3)", "S(1/2)", "S(2/3)"]

    @pytest.mark.parametrize(
        "count, max_den", [(1, 1), (1, 0), (2, 2), (5, 2), (4, 3), (12, 6)]
    )
    def test_simplex_sampling_rejected_up_front(self, capsys, count, max_den):
        code, out = run(
            ["construct", "simplex", "--d", "2", "--count", str(count),
             "--max-den", str(max_den)],
            capsys,
        )
        assert code == 2
        assert set(json.loads(out)) == {"error"}

    def test_simplex_needs_exactly_one_source(self, capsys):
        code, _ = run(["construct", "simplex", "--d", "2"], capsys)
        assert code == 2
        code, _ = run(
            ["construct", "simplex", "--d", "2", "--alphas", "1/2", "--count", "1"],
            capsys,
        )
        assert code == 2

    def test_free_flats(self, capsys):
        code, out = run(
            ["construct", "free-flats", "--d", "2", "--k", "2", "--count", "4",
             "--radius", "10", "--seed", "0"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "family.json")
        assert len(data["sets"]) == 4


class TestCheckAndSolve:
    def test_pq_holds_exit_zero(self, counterexample_path, capsys):
        code, out = run(
            ["check", "pq", "--p", "4", "--q", "3", "--input", counterexample_path],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "pq_report.json")
        assert data["holds"] is True

    def test_pq_fails_exit_one_with_witness(self, counterexample_path, capsys):
        code, out = run(
            ["check", "pq", "--p", "6", "--q", "6", "--input", counterexample_path],
            capsys,
        )
        assert code == 1
        data = json.loads(out)
        validate(data, "pq_report.json")
        assert data["violating_tuple"] is not None

    def test_pq_csv(self, counterexample_path, capsys):
        code, out = run(
            ["check", "pq", "--p", "4", "--q", "3", "--input", counterexample_path,
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,q,holds,violating_tuple,checked_tuples"
        assert lines[1].startswith("4,3,True,")

    def test_solve_pierce(self, tmp_path, capsys):
        fam = {
            "dimension": 1,
            "sets": [
                {"label": "a", "dim": 1, "vrep": {"points": [[0], [1]], "rays": []}},
                {"label": "b", "dim": 1, "vrep": {"points": [[2], [3]], "rays": []}},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(fam))
        code, out = run(["solve", "pierce", "--input", str(path)], capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "piercing.json")
        assert len(data["points"]) == 2 and data["optimal"] is True
        for limit in ("0", "-1"):  # no partition has fewer than one part
            code, out = run(
                ["solve", "pierce", "--input", str(path), "--limit", limit], capsys
            )
            assert code == 2
            assert "error" in json.loads(out)

    def test_solve_transversal(self, tmp_path, capsys):
        h = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(h))
        code, out = run(["solve", "transversal", "--input", str(path)], capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "transversal.json")
        assert data["beta"] == 2

    def test_transversal_limit_exit_three(self, tmp_path, capsys):
        h = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(h))
        # limit 0 admits only the empty cover; a negative limit is malformed
        for limit, expected in (("1", 3), ("0", 3), ("-1", 2)):
            code, out = run(
                ["solve", "transversal", "--input", str(path), "--limit", limit], capsys
            )
            assert code == expected
            assert "error" in json.loads(out)

    def test_budget_exhaustion_exit_three(self, counterexample_path, capsys):
        for argv, budget in ((["check", "pq", "--p", "4", "--q", "3"], "2"), (["solve", "pierce"], "1"),
                             (["analyze", "gf"], "1"), (["pipeline", "s1", "--t", "1", "--p", "4"], "1")):
            code, out = run(argv + ["--input", counterexample_path, "--budget", budget], capsys)
            assert code == 3, argv
            assert "error" in json.loads(out)


class TestAnalyze:
    def test_recession(self, counterexample_path, capsys):
        code, out = run(["analyze", "recession", "--input", counterexample_path], capsys)
        # bounded boxes kill any common direction
        assert code == 1
        data = json.loads(out)
        validate(data, "recession.json")
        assert data["direction"] is None

    def test_recession_found(self, tmp_path, capsys):
        fam = {
            "dimension": 2,
            "sets": [
                {"label": "up", "dim": 2, "hrep": [{"normal": [0, -1], "offset": 0}]},
                {"label": "right", "dim": 2,
                 "vrep": {"points": [[0, 0]], "rays": [[1, 0], [0, 1]]}},
            ],
        }
        path = tmp_path / "rc.json"
        path.write_text(json.dumps(fam))
        code, out = run(["analyze", "recession", "--input", str(path)], capsys)
        assert code == 0
        # +x is probed before +y and lies in both recession cones
        assert json.loads(out)["direction"] == [1, 0]
        # {x >= 1, x <= 0} is empty and has no recession cone
        fam["sets"].append({"label": "empty", "dim": 2, "hrep": [
            {"normal": [-1, 0], "offset": -1}, {"normal": [1, 0], "offset": 0}]})
        path.write_text(json.dumps(fam))
        code, out = run(["analyze", "recession", "--input", str(path)], capsys)
        assert (code, set(json.loads(out))) == (2, {"error"})

    def test_project(self, counterexample_path, capsys):
        code, out = run(["analyze", "project", "--input", counterexample_path], capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "family.json")
        assert data["dimension"] == 1

    def test_project_dimension_one_exit_two(self, tmp_path, capsys):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"dimension": 1, "sets": [
            {"label": "I", "dim": 1, "hrep": [{"normal": [1], "offset": 1}]}]}))
        code, out = run(["analyze", "project", "--input", str(path)], capsys)
        assert (code, set(json.loads(out))) == (2, {"error"})

    def test_gf(self, counterexample_path, capsys):
        code, out = run(["analyze", "gf", "--input", counterexample_path], capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "hypergraph.json")
        assert data["n"] == 8


class TestEscapeAndBounds:
    def test_escape_found(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[6, 0]]}))
        code, out = run(
            ["escape", "--d", "1", "--n-max", "6", "--n-bounded", "3",
             "--points", str(pts)],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "escape.json")
        assert data["witness"] == 7

    def test_escape_cap_exit_three(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[100, 0]]}))
        code, out = run(
            ["escape", "--d", "1", "--n-max", "6", "--n-bounded", "3",
             "--points", str(pts), "--n-cap", "50"],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["witness"] is None

    def test_bounds_eta(self, capsys):
        code, out = run(["bounds", "eta", "--lam", "3", "--k", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "bounds.json")
        assert data["entry"]["value"] == 6
        assert data["entry"]["kind"] == "exact"
        code, out = run(["bounds", "eta", "--lam", "1", "--k", "0"], capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_bounds_eta_too_large_to_print_exit_two(self, capsys):
        # these Tuza bounds pass the 4,300 digits an int may print; the
        # second ran for over a minute before it was checked up front
        for n in ("10000", "1000000", "10101010101010101010"):
            start = time.perf_counter()
            code, out = run(["bounds", "eta", "--lam", n, "--k", n], capsys)
            assert (code, set(json.loads(out))) == (2, {"error"}), n
            assert time.perf_counter() - start < 5
        code, out = run(["bounds", "eta", "--lam", "2", "--k", "20000"], capsys)
        assert (code, json.loads(out)["entry"]["value"]) == (0, 40000)

    def test_bounds_xi_miss_exit_one(self, capsys):
        code, out = run(["bounds", "xi", "--p", "7", "--q", "7", "--d", "3"], capsys)
        assert code == 1
        validate(json.loads(out), "bounds.json")
        # arguments outside p >= q >= 1, d >= 1 are malformed, not misses
        for p, q, d in (("1", "5", "1"), ("5", "0", "1"), ("2", "2", "0")):
            code, out = run(["bounds", "xi", "--p", p, "--q", q, "--d", d], capsys)
            assert code == 2
            assert "error" in json.loads(out)


class TestPipelines:
    def test_counterexample_pipeline(self, capsys):
        argv = ["pipeline", "counterexample", "--d", "1", "--n-max", "6",
                "--n-bounded", "3", "--k-max", "1"]
        code, out = run(argv, capsys)
        assert code == 0
        data = json.loads(out)
        validate(data, "pipeline_report.json")
        assert data["exhaustive"] is True

    def test_counterexample_byte_identical_across_runs(self, capsys):
        argv = ["pipeline", "counterexample", "--d", "1", "--n-max", "7",
                "--n-bounded", "3", "--k-max", "1"]
        _, out1 = run(argv, capsys)
        _, out2 = run(argv, capsys)
        assert out1 == out2

    def test_jobs_is_an_unknown_flag(self, capsys):
        argv = ["pipeline", "counterexample", "--d", "1", "--n-max", "6",
                "--n-bounded", "3", "--k-max", "0", "--jobs", "2"]
        assert cmd_dispatch(argv) == 2

    def test_counterexample_csv_rows(self, capsys):
        argv = ["pipeline", "counterexample", "--d", "1", "--n-max", "6",
                "--n-bounded", "3", "--k-max", "0", "--format", "csv"]
        code, out = run(argv, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,index,description,passed,witness"
        assert len(lines) >= 4  # property, case, escape rows

    def test_counterexample_cap_exit_three(self, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[100, 0]]}))
        argv = ["pipeline", "counterexample", "--d", "1", "--n-max", "6",
                "--n-bounded", "3", "--k-max", "0", "--points", str(pts),
                "--n-cap", "50"]
        code, out = run(argv, capsys)
        assert code == 3
        data = json.loads(out)
        validate(data, "pipeline_report.json")
        assert data["exhaustive"] is False

    def test_s1_on_file(self, tmp_path, capsys):
        fam = {
            "dimension": 2,
            "sets": (
                [{"label": "lone", "dim": 2, "vrep": {"points": [[-10, 0]], "rays": []}}]
                + [
                    {"label": f"hp{n}", "dim": 2,
                     "hrep": [{"normal": [-1, 0], "offset": -n}]}
                    for n in range(1, 5)
                ]
                + [
                    {"label": "sq1", "dim": 2,
                     "vrep": {"points": [[4, 0], [5, 0], [4, 1], [5, 1]], "rays": []}},
                    {"label": "sq2", "dim": 2,
                     "vrep": {"points": [["9/2", "1/2"], ["11/2", "1/2"],
                                          ["9/2", "3/2"], ["11/2", "3/2"]],
                              "rays": []}},
                ]
            ),
        }
        path = tmp_path / "s1.json"
        path.write_text(json.dumps(fam))
        code, out = run(
            ["pipeline", "s1", "--input", str(path), "--t", "1", "--p", "4"], capsys
        )
        assert code == 0
        data = json.loads(out)
        validate(data, "pipeline_report.json")
        assert len(data["piercing"]["points"]) <= 2

    def test_s1_hypothesis_failure_exit_one(self, counterexample_path, capsys):
        code, out = run(
            ["pipeline", "s1", "--input", counterexample_path, "--t", "0", "--p", "6"],
            capsys,
        )
        assert code == 1
        data = json.loads(out)
        validate(data, "pipeline_report.json")
        assert data["piercing"] is None

    def test_corollary52_on_rotated_file(self, tmp_path, capsys):
        # two slabs receding along the last axis, truncated by a box
        fam = {
            "dimension": 2,
            "sets": [
                {"label": "s1", "dim": 2,
                 "hrep": [{"normal": [-1, 0], "offset": -1},
                          {"normal": [1, 0], "offset": 2}]},
                {"label": "s2", "dim": 2,
                 "hrep": [{"normal": [-1, 0], "offset": -2},
                          {"normal": [1, 0], "offset": 3}]},
            ],
        }
        box = {"label": "w", "dim": 2,
               "vrep": {"points": [[0, 0], [5, 0], [0, 5], [5, 5]], "rays": []}}
        fpath = tmp_path / "fam.json"
        bpath = tmp_path / "box.json"
        fpath.write_text(json.dumps(fam))
        bpath.write_text(json.dumps(box))
        code, out = run(
            ["pipeline", "corollary52", "--input", str(fpath), "--box", str(bpath),
             "--max-subset", "2"],
            capsys,
        )
        assert code == 0
        validate(json.loads(out), "pipeline_report.json")


class TestPlumbing:
    def test_unknown_subcommand_exit_two(self, capsys):
        # usage errors: JSON on stdout, argparse's usage text on stderr
        for argv in (["frobnicate"],
                     ["construct", "simplex", "--d", "3", "--alphas", "1/2", "1/3"],
                     ["check", "pq", "--p", "2"]):
            assert cmd_dispatch(argv) == 2
            captured = capsys.readouterr()
            assert set(json.loads(captured.out)) == {"error"}, argv
            assert captured.err.startswith("usage:"), argv
        assert cmd_dispatch(["construct", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    @pytest.mark.parametrize("argv", [
        ["construct", "gruenbaum", "--n-max", "100000000"],
        ["construct", "counterexample", "--d", "1", "--n-max", "100000000", "--n-bounded", "1"],
        ["pipeline", "counterexample", "--d", "1", "--n-max", "100000000", "--n-bounded", "1",
         "--k-max", "0"],
        ["construct", "counterexample", "--d", "20", "--n-max", "3", "--n-bounded", "1"],
        ["construct", "simplex", "--d", "100000000", "--alphas", "1/2"],
        ["construct", "simplex", "--d", "2", "--count", "2000000000", "--max-den", "1000000000"],
        ["construct", "free-flats", "--d", "60", "--k", "60", "--count", "2"],
        ["construct", "free-flats", "--d", str(10**18), "--k", str(10**18), "--count", "2"],
        # work after building: the k-freeness scan and the escape search
        ["construct", "free-flats", "--d", "6", "--k", "6", "--count", "500"],
        ["escape", "--d", "1", "--n-max", "3", "--n-bounded", "0", "--n-cap", "100000000",
         "--points", "PTS"],
        ["pipeline", "counterexample", "--d", "1", "--n-max", "3", "--n-bounded", "0",
         "--k-max", "0", "--n-cap", "100000000", "--points", "PTS"],
    ])
    def test_oversized_construction_rejected_before_building(self, tmp_path, capsys, argv):
        pts = tmp_path / "pts.json"  # a point inside every A_n up to n = 10^9
        pts.write_text(json.dumps({"points": [[10**9, 0]]}))
        code, out = run([str(pts) if a == "PTS" else a for a in argv], capsys)
        assert (code, set(json.loads(out))) == (2, {"error"})

    def test_missing_file_exit_two(self, capsys):
        code, out = run(["check", "pq", "--p", "2", "--q", "2",
                         "--input", "/nonexistent.json"], capsys)
        assert code == 2
        assert "error" in json.loads(out)

    def test_malformed_family_exit_two(self, tmp_path, capsys):
        families = [
            {"dimension": 1.5, "sets": []},
            {"dimension": 1, "sets": [{"label": "H", "dim": 1, "hrep": 5}]},
            {"dimension": 1, "sets": [{"label": "H", "dim": 1, "hrep": [{"normal": 1, "offset": 0}]}]},
            {"dimension": 1, "sets": [{"label": "V", "dim": 1, "vrep": {"points": [[0]], "rays": 3}}]},
            {"dimension": 1, "sets": [{"label": "V", "dim": 1, "vrep": {"points": 0}}]},
            {"dimension": 1, "sets": [{"label": "V", "dim": 1, "vrep": {"points": [0]}}]},
            {"dimension": 1, "sets": [{"label": "V", "dim": 1, "vrep": {"points": ["12"]}}]},
            {"dimension": 2, "sets": []},
            {"dimension": 2, "sets": {"label": "V"}},
            {"dimension": 10**8, "sets": [{"label": "A", "dim": 10**8, "hrep": []}]},  # 10^8 LP columns
            # a zero normal with a negative offset, int and fractional
            {"dimension": 2, "sets": [{"label": "Z", "dim": 2, "hrep": [{"normal": [0, 0], "offset": -1}]}]},
            {"dimension": 2, "sets": [{"label": "Z", "dim": 2, "hrep": [{"normal": [0, 0], "offset": "-1/2"}]}]},
            # rationals over the int() digit limit
            {"dimension": 1, "sets": [{"label": "H", "dim": 1, "hrep": [{"normal": [1], "offset": "9" * 5000}]}]},
            {"dimension": 1, "sets": [{"label": "H", "dim": 1, "hrep": [{"normal": [1], "offset": "1/" + "9" * 5000}]}]},
        ]
        contents = [json.dumps(fam).encode() for fam in families]
        contents.append(b"\xff\xfe{bad")  # not UTF-8
        contents.append(b'{"dimension": ' + b"1" * 5000 + b', "sets": []}')  # int too long
        path = tmp_path / "bad.json"
        for content in contents:
            path.write_bytes(content)
            for command in (["check", "pq", "--p", "1", "--q", "1"], ["solve", "pierce"]):
                code, out = run(command + ["--input", str(path)], capsys)
                assert (code, set(json.loads(out))) == (2, {"error"}), (content, command)

    def test_vrep_over_the_conversion_cap_exit_two(self, tmp_path, capsys):
        # the cross-polytope in R^14 has 2^14 facets: its rows pass the
        # double-description work cap, and the run stops early
        d = 14
        points = [[s * (i == j) for j in range(d)] for i in range(d) for s in (1, -1)]
        path = tmp_path / "cross.json"
        path.write_text(json.dumps({"dimension": d, "sets": [
            {"label": "X", "dim": d, "vrep": {"points": points}},
        ]}))
        for command in (["check", "pq", "--p", "1", "--q", "1"], ["solve", "pierce"]):
            start = time.perf_counter()
            code, out = run(command + ["--input", str(path)], capsys)
            assert (code, set(json.loads(out))) == (2, {"error"})
            assert "work cap" in json.loads(out)["error"]
            assert time.perf_counter() - start < 10

    def test_projection_over_the_work_cap_exit_two(self, tmp_path, capsys):
        # the 13-cube, 26 rows in R^13: its 8,192 vertices pass the
        # double-description work cap before its shadow is read
        d = 13
        rows = [{"normal": [s * (i == j) for j in range(d)], "offset": 1} for i in range(d) for s in (1, -1)]
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"dimension": d, "sets": [{"label": "C", "dim": d, "hrep": rows}]}))
        code, out = run(["analyze", "project", "--input", str(path)], capsys)
        assert (code, set(json.loads(out))) == (2, {"error"})
        assert "work cap" in json.loads(out)["error"]

    def test_projection_of_many_rows_gets_the_facets_alone(self, tmp_path, capsys):
        # 1,700 rows with a positive last coefficient and 1,700 with a
        # negative one in R^3, whose pairs would combine to 2.9 M rows:
        # the shadow has the two facets y <= 1 and 1699 x + y <= 1
        rows = [{"normal": [i, 1, s], "offset": 1} for i in range(1700) for s in (1, -1)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dimension": 3, "sets": [{"label": "W", "dim": 3, "hrep": rows}]}))
        code, out = run(["analyze", "project", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["sets"][0]["hrep"] == [
            {"normal": [0, 1], "offset": 1}, {"normal": [1699, 1], "offset": 1},
        ]

    def test_scans_over_the_tuple_cap_exit_two(self, tmp_path, capsys):
        # on the 34-member escaping family, the (6,4) scan of k = 2 would
        # visit C(34, 6) * 15 = 20 M subsets and the (17,2) scan
        # C(34, 17) * 136 = 317 G; 100 points in R^3 have C(100, 4) = 3.9 M
        # quadruples for the empty-tuple hypergraph; a 15-free selection of
        # 30 points on a line has C(30, 16) = 145 M subsets to walk; 30
        # vertical rays have 614 M subsets of up to 15 members
        spec = ["--d", "1", "--n-max", "30", "--n-bounded", "5"]
        family = tmp_path / "fam.json"
        assert run(["construct", "counterexample", *spec, "-o", str(family)], capsys)[0] == 0
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"dimension": 3, "sets": [
            {"label": f"x{i}", "dim": 3, "vrep": {"points": [[i, i * i, 0]]}} for i in range(100)
        ]}))
        line = tmp_path / "line.json"
        line.write_text(json.dumps({"dimension": 1, "sets": [
            {"label": f"x{i}", "dim": 1, "vrep": {"points": [[i]]}} for i in range(31)
        ]}))
        rays, box = tmp_path / "rays.json", tmp_path / "box.json"
        rays.write_text(json.dumps({"dimension": 2, "sets": [
            {"label": f"r{i}", "dim": 2, "vrep": {"points": [[i, 0]], "rays": [[0, 1]]}} for i in range(30)
        ]}))
        box.write_text(json.dumps({"label": "w", "dim": 2,
                                   "vrep": {"points": [[0, 0], [30, 0], [0, 30], [30, 30]]}}))
        corollary52 = ["pipeline", "corollary52", "--input", str(rays), "--box", str(box)]
        for command in (["pipeline", "counterexample", *spec, "--k-max", "8"],
                        ["check", "pq", "--p", "17", "--q", "2", "--input", str(family)],
                        ["analyze", "gf", "--input", str(points)],
                        ["pipeline", "s2", "--b-indices", ",".join(map(str, range(30))),
                         "--p", "31", "--q", "16", "--input", str(line)],
                        [*corollary52, "--max-subset", "15"]):
            start = time.perf_counter()
            code, out = run(command, capsys)
            assert (code, set(json.loads(out))) == (2, {"error"}), command
            assert "tuple cap" in json.loads(out)["error"]
            assert time.perf_counter() - start < 10
        # the rays' 4,525 subsets of up to 3 members are under the cap
        code, out = run([*corollary52, "--max-subset", "3"], capsys)
        assert (code, json.loads(out)["extras"]) == (0, {"subsets_checked": 4525})

    def test_cover_searches_over_the_edge_scan_cap_exit_three(self, tmp_path, capsys):
        # 22 disjoint pairs have a least cover of 22 vertices; 40 points of
        # R^1 make all 780 pairs edges of the empty-pair hypergraph, whose
        # least cover has 39, but s1 stops at its (2,2) row, which fails at
        # its first tuple, before it builds that hypergraph
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps(DISJOINT_PAIRS))
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"dimension": 1, "sets": [
            {"label": f"x{i}", "dim": 1, "vrep": {"points": [[i]]}} for i in range(40)
        ]}))
        start = time.perf_counter()
        code, out = run(["solve", "transversal", "--input", str(pairs)], capsys)
        assert (code, set(json.loads(out))) == (3, {"error"})
        assert "edge scan cap" in json.loads(out)["error"]
        assert time.perf_counter() - start < 10
        start = time.perf_counter()
        code, out = run(["pipeline", "s1", "--t", "0", "--p", "2", "--input", str(points)], capsys)
        data = json.loads(out)
        assert code == 1
        assert [c["description"] for c in data["hypothesis_checks"]] == ["at least 1 bounded members", "(2,2)-property"]
        assert data["hypothesis_checks"][-1]["witness"] == {"violating": ["x0", "x1"]}
        assert time.perf_counter() - start < 10

    def test_pierce_of_many_members_exit_zero(self, tmp_path, capsys):
        # the partition search places 1,200 members on its own stack, not
        # one interpreter frame each
        path = tmp_path / "segments.json"
        path.write_text(json.dumps({"dimension": 1, "sets": [
            {"label": f"s{i}", "dim": 1, "vrep": {"points": [[0], [1]]}} for i in range(1200)
        ]}))
        code, out = run(["solve", "pierce", "--input", str(path)], capsys)
        data = json.loads(out)
        assert (code, len(data["points"]), data["optimal"]) == (0, 1, True)

    def test_overlong_margin_exit_two(self, capsys):
        code, out = run(["construct", "counterexample", "--d", "1", "--n-max", "4",
                         "--n-bounded", "1", "--margin", "9" * 5000], capsys)
        assert (code, set(json.loads(out))) == (2, {"error"})

    def test_internal_error_exit_four(self, monkeypatch, capsys):
        def broken(name, args):
            raise AssertionError("solver invariant broken")

        monkeypatch.setattr(cli, "catalog_lookup", broken)
        assert cmd_dispatch(["bounds", "eta", "--lam", "3", "--k", "2"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": "internal error: AssertionError('solver invariant broken')"}
        assert captured.err.startswith("Traceback")
        assert "AssertionError: solver invariant broken" in captured.err

    def test_malformed_point_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [3]}))
        code, out = run(["escape", "--d", "1", "--n-max", "4", "--n-bounded", "1",
                         "--points", str(path)], capsys)
        assert code == 2
        assert set(json.loads(out)) == {"error"}

    def test_construct_determinism(self, capsys):
        argv = ["construct", "free-flats", "--d", "2", "--k", "2", "--count", "4",
                "--radius", "10", "--seed", "3"]
        _, out1 = run(argv, capsys)
        _, out2 = run(argv, capsys)
        assert out1 == out2

    def test_one_parser_carries_nothing_between_commands(self, counterexample_path, tmp_path, capsys):
        # the parser is built once; a command with other flags, a budget,
        # an output file and a usage error between two runs of the first
        # leaves the first's code and stdout as they were
        first = ["check", "pq", "--p", "6", "--q", "6", "--input", counterexample_path]
        code, out = run(first, capsys)
        assert run(["check", "pq", "--p", "4", "--q", "3", "--input", counterexample_path,
                    "--format", "csv", "--budget", "50", "-o", str(tmp_path / "pq.csv")], capsys)[0] == 0
        assert run(["check", "pq", "--p", "6", "--input", counterexample_path], capsys)[0] == 2
        assert run(first, capsys) == (code, out)
        assert cli._build_parser() is cli._build_parser()

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        for target in (tmp_path / "missing" / "out.json", tmp_path):
            code, out = run(["bounds", "eta", "--lam", "3", "--k", "2", "-o", str(target)], capsys)
            assert (code, set(json.loads(out))) == (2, {"error"}), target

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        argv = ["construct", "gruenbaum", "--n-max", "3"]
        _, out = run(argv, capsys)
        path = tmp_path / "g.json"
        assert cmd_dispatch(argv + ["-o", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == out

    def test_csv_rejected_outside_supported_commands(self, capsys):
        # --format is not defined for solve pierce, so argparse rejects it
        code = cmd_dispatch(["solve", "pierce", "--input", "x.json",
                             "--format", "csv"])
        assert code == 2


# --- the LP budget, read once for every command that takes it ----------------

def leaf_commands(parser=None, path=()) -> dict[tuple, argparse.ArgumentParser]:
    """Every leaf command's parser, by its argv path."""
    parser = parser or cli._build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {leaf: p for name, sub in subs[0].choices.items()
            for leaf, p in leaf_commands(sub, path + (name,)).items()}


def budget_commands() -> dict[str, list[str]]:
    """Every leaf command with a --budget flag, by name, with an argv
    that parses: 1 for each required int flag, a missing file for the
    other required flags."""
    return {
        " ".join(path): [*path] + [
            arg for a in parser._actions if a.required
            for arg in (a.option_strings[-1], "1" if a.type is int else "/nonexistent.json")
        ]
        for path, parser in leaf_commands().items()
        if any("--budget" in a.option_strings for a in parser._actions)
    }


def test_cli_defaults_are_the_library_constants():
    # one owner per default: each site holds the very object of the
    # constants module, not an equal literal of its own
    defaults = {" ".join(path): {a.dest: a.default for a in parser._actions}
                for path, parser in leaf_commands().items()}
    assert defaults["escape"]["n_cap"] is N_CAP
    assert defaults["pipeline counterexample"]["n_cap"] is N_CAP
    assert signature(escape_witness).parameters["n_cap"].default is N_CAP
    assert signature(verify_counterexample).parameters["n_cap"].default is N_CAP
    assert defaults["construct simplex"]["max_den"] is MAX_DEN
    assert signature(sample_alphas).parameters["max_den"].default is MAX_DEN


def test_budget_commands_cover_every_lp_command():
    assert sorted(budget_commands()) == [
        "analyze gf", "analyze project", "analyze recession", "check pq", "escape",
        "pipeline corollary52", "pipeline counterexample", "pipeline main", "pipeline s1",
        "pipeline s2", "solve pierce",
    ]


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("name", sorted(budget_commands()))
def test_nonpositive_budget_exit_two_before_any_file(name, budget, capsys):
    # the budget is read once, around the whole command
    code, out = run(budget_commands()[name] + ["--budget", budget], capsys)
    assert (code, json.loads(out)) == (2, {"error": "budget must be positive"})


# --- every input file gets an exit code and JSON -----------------------------

_KEYS = st.sampled_from(["dimension", "sets", "label", "dim", "hrep", "vrep",
                         "normal", "offset", "points", "rays"]) | st.text(max_size=3)
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats()
    | st.sampled_from(["1/2", "-2/3", "1/0", "x", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)
_RAT = st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3"])


@st.composite
def _family_like(draw):
    """Family files that load more often than not: a shared dimension,
    vectors of that arity, possibly repeated labels and zero rays."""
    d = draw(st.integers(1, 3))
    vectors = st.lists(st.lists(_RAT, min_size=d, max_size=d), max_size=3)
    sets = []
    for label in draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4)):
        if draw(st.booleans()):
            rep = {"hrep": [{"normal": n, "offset": draw(_RAT)} for n in draw(vectors)]}
        else:
            rep = {"vrep": {"points": draw(vectors), "rays": draw(vectors)}}
        sets.append({"label": label, "dim": d, **rep})
    return {"dimension": d, "sets": sets}


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "family.json"


@pytest.fixture(scope="module")
def box_file(tmp_path_factory):
    # a planar box: families of another dimension must exit 2 against it
    path = tmp_path_factory.mktemp("property") / "box.json"
    path.write_text(json.dumps({"label": "w", "dim": 2,
                                "vrep": {"points": [[-3, -3], [3, -3], [-3, 3], [3, 3]]}}))
    return path


# a line family on which every pipeline but corollary52 (planar only)
# ends in a report: a box, a segment, a ray, and a far point that
# breaks the (2,2)-property
_LINE = [
    {"label": "a", "dim": 1, "hrep": [{"normal": [1], "offset": 1}, {"normal": [-1], "offset": 0}]},
    {"label": "b", "dim": 1, "vrep": {"points": [[0], [2]]}},
    {"label": "c", "dim": 1, "vrep": {"points": [["1/2"]], "rays": [[1]]}},
]
_FAR = {"label": "d", "dim": 1, "vrep": {"points": [[5]]}}

# one file per check of a set or hypergraph file; every command exits 2
# with {"error": ...} on each
_MALFORMED = [json.dumps(obj).encode() for obj in [
    *({"dimension": 1, "sets": [s]} for s in [
        {"label": "", "dim": 1, "vrep": {"points": [[0]]}},
        {"label": 7, "dim": 1, "vrep": {"points": [[0]]}},
        {"label": "a", "dim": 0, "vrep": {"points": [[]]}},
        {"label": "a", "dim": 1, "vrep": {"points": [[0, 1]]}},  # generator arity
        [1],  # a set that is not an object
        {"label": "a", "vrep": {"points": [[0]]}},  # no dim
        {"label": "a", "dim": 1, "vrep": {"rays": [[1]]}},  # no points
        {"label": "a", "dim": 1, "hrep": [{"normal": [1]}]},  # no offset
    ]),
    {"n": 2, "edges": 5},
]]


@settings(max_examples=200, deadline=None)
@given(
    content=st.one_of(_family_like(), _JSON_LIKE).map(lambda obj: json.dumps(obj).encode())
    | st.binary(max_size=40),
    pq=st.sampled_from([("1", "1"), ("2", "2"), ("3", "2")]),
)
@example(content=json.dumps({"dimension": 1, "sets": _LINE}).encode(), pq=("2", "2"))  # exit 0
@example(content=json.dumps({"dimension": 1, "sets": _LINE + [_FAR]}).encode(), pq=("2", "2"))  # exit 1
@example(content=_MALFORMED[0], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[1], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[2], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[3], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[4], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[5], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[6], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[7], pq=("2", "2"))  # exit 2
@example(content=_MALFORMED[8], pq=("2", "2"))  # exit 2
def test_every_family_file_gets_exit_code_and_json(family_file, box_file, content, pq):
    family_file.write_bytes(content)
    # one selected member and p = q: s2 and main accept dims p - 1 and below
    p_p = ["--p", pq[0], "--q", pq[0]]
    for command in (["check", "pq", "--p", pq[0], "--q", pq[1]], ["solve", "pierce"], ["solve", "transversal"],
                    ["analyze", "recession"], ["analyze", "project"], ["analyze", "gf"],
                    ["pipeline", "s1", "--t", "0", "--p", pq[0]],
                    ["pipeline", "s2", "--b-indices", "0", *p_p],
                    ["pipeline", "main", "--compact-indices", "0", *p_p],
                    ["pipeline", "corollary52", "--box", str(box_file), "--max-subset", "2"]):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cmd_dispatch(command + ["--input", str(family_file)])
        assert code in (0, 1, 2, 3), (command, content)
        data = json.loads(out.getvalue())
        if content in _MALFORMED:
            assert (code, set(data)) == (2, {"error"}), (command, content)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 2), n_max=st.integers(2, 6), n_bounded=st.integers(0, 3), k_max=st.integers(0, 2),
    margin=st.sampled_from(["0", "1/2", "3", "-1", "1/0", "x", ""]) | st.text(max_size=6),
)
def test_every_counterexample_spec_gets_exit_code_and_json(d, n_max, n_bounded, k_max, margin):
    argv = ["pipeline", "counterexample", "--d", str(d), "--n-max", str(n_max),
            "--n-bounded", str(n_bounded), "--k-max", str(k_max), f"--margin={margin}"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cmd_dispatch(argv)
    assert code in (0, 1, 2, 3), argv
    json.loads(out.getvalue())


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_RAT_FLAG = st.sampled_from(["1/2", "3", "2/3", "10"])
_BAD_FLAG = st.sampled_from(["0", "-1", "x", "", "1/2", "1/0", "10" * 10]) | st.text(max_size=4)
_SPEC_FLAGS = {
    "--d": _ints(1, 2), "--n-max": _ints(2, 6), "--n-bounded": _ints(0, 3), "--margin": st.none() | _RAT_FLAG,
}
# the valid flags of each command, None for an optional flag left out
_FLAGGED_COMMANDS = {
    ("construct", "simplex"): {
        "--d": _ints(1, 4),
        "--alphas": st.none()
        | st.lists(st.sampled_from(["1/2", "1/3", "1", "2/3"]), min_size=1, max_size=3).map(",".join),
        "--count": st.none() | _ints(1, 6), "--seed": st.none() | _ints(0, 9),
        "--max-den": st.none() | _ints(2, 8),
    },
    ("construct", "counterexample"): _SPEC_FLAGS,
    ("construct", "gruenbaum"): {"--n-max": _ints(1, 6), "--copies": st.none() | _ints(1, 3)},
    ("construct", "free-flats"): {
        "--d": _ints(1, 3), "--k": _ints(1, 3), "--count": _ints(1, 6),
        "--radius": st.none() | _RAT_FLAG, "--seed": st.none() | _ints(0, 9),
    },
    ("bounds", "eta"): {"--lam": _ints(1, 5), "--k": _ints(1, 5)},
    ("bounds", "xi"): {"--p": _ints(1, 6), "--q": _ints(1, 6), "--d": _ints(1, 3)},
    ("escape",): {**_SPEC_FLAGS, "--n-cap": st.none() | _ints(2, 9), "--points": st.just("PTS")},
}


@pytest.fixture(scope="module")
def points_file(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "points.json"


@st.composite
def _flagged_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGGED_COMMANDS)))
    flags = _FLAGGED_COMMANDS[command]
    # in half the runs, one flag left out or malformed
    odd = draw(st.sampled_from([None] * len(flags) + list(flags)))
    argv = list(command)
    for flag, values in flags.items():
        value = draw(st.none() | _BAD_FLAG if flag == odd else values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


@settings(max_examples=200, deadline=None)
@given(
    argv=_flagged_argv(),
    points=st.lists(st.lists(_RAT, min_size=2, max_size=3), max_size=3).map(lambda p: {"points": p})
    | _JSON_LIKE,
)
def test_every_construct_bounds_and_escape_flag_set_gets_exit_code_and_json(points_file, argv, points):
    points_file.write_text(json.dumps(points))
    argv = [f"--points={points_file}" if a == "--points=PTS" else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cmd_dispatch(argv)
    assert code in (0, 1, 2, 3), argv
    json.loads(out.getvalue())


# --- arbitrary argv: any leaf, its own flags dropped, malformed or joined by an unknown one

@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Fixed files for the file flags: good ones of each kind, a file
    that is not JSON, a missing file and a directory; and the -o target."""
    root = tmp_path_factory.mktemp("argv")
    files = {
        "line.json": {"dimension": 1, "sets": _LINE + [_FAR]},
        "plane.json": {"dimension": 2, "sets": [
            {"label": "a", "dim": 2, "vrep": {"points": [[0, 0], [2, 0], [0, 2]]}},
            {"label": "b", "dim": 2, "hrep": [{"normal": [-1, 0], "offset": -1}]},
            {"label": "c", "dim": 2, "vrep": {"points": [[1, 1]], "rays": [[0, 1]]}},
        ]},
        "tri.json": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
        "pairs.json": DISJOINT_PAIRS,
        "points.json": {"points": [[3, 0], ["1/2", "1/3"]]},
        "points3.json": {"points": [[3, 0, 0]]},
        "box.json": {"label": "w", "dim": 2, "vrep": {"points": [[-3, -3], [3, -3], [-3, 3], [3, 3]]}},
    }
    for name, obj in files.items():
        (root / name).write_text(json.dumps(obj))
    (root / "bad.json").write_text("{bad")
    return root


# valid values of the flags that take neither an int nor a file
_STRINGS = {"--alphas": ["1/2", "2/3,1/3"], "--margin": ["0", "1/2"], "--radius": ["10", "1/2"],
            "--b-indices": ["0", "0,1"], "--compact-indices": ["0", "0,1"]}
_FILES = {"--input": ["line.json", "plane.json", "tri.json", "pairs.json"],
          "--points": ["points.json", "points3.json"], "--box": ["box.json"]}
_BAD_FILES = ["bad.json", "missing.json", "."]
_PATH_FLAGS = ("--input=", "--points=", "--box=", "--output=")


@st.composite
def _any_argv(draw):
    """A leaf and its own flags, each valid, left out or malformed, and
    maybe an unknown flag; file flags name the files of `argv_files`,
    -o its output file or a directory, all relative to that directory."""
    leaves = leaf_commands()
    path = draw(st.sampled_from(sorted(leaves)))
    argv = list(path)
    for action in leaves[path]._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in (None, "--help"):
            continue
        how = draw(st.sampled_from(["valid"] * 9 + ["drop", "malformed"] if action.required
                                   else ["valid"] * 4 + ["drop"] * 4 + ["malformed"]))
        if how == "drop":
            continue
        if flag == "--output":  # any name is well-formed: a directory is unwritable
            value = "out.json" if how == "valid" else "."
        elif flag in _FILES:
            value = draw(st.sampled_from(_FILES[flag] if how == "valid" else _BAD_FILES))
        elif how == "malformed":
            value = draw(_BAD_FLAG)
        elif action.choices:
            value = draw(st.sampled_from(action.choices))
        elif action.type is int:
            value = draw(_ints(-2, 6))
        else:
            value = draw(st.sampled_from(_STRINGS[flag]))
        argv.append(f"{flag}={value}")
    if draw(st.integers(0, 5)) == 0:
        unknown = draw(st.sampled_from(["--jobs=2", "--frobnicate", "x"]))
        argv.insert(draw(st.integers(0, len(argv))), unknown)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_any_argv())
def test_any_argv_gets_exit_code_and_json(argv_files, argv):
    (argv_files / "out.json").unlink(missing_ok=True)
    argv = [a.replace("=", f"={argv_files}/", 1) if a.startswith(_PATH_FLAGS) else a for a in argv]
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cmd_dispatch(argv)
    assert code in (0, 1, 2, 3), argv
    assert time.perf_counter() - start < 10, argv  # every search ends, under a cap if need be
    text = out.getvalue() or (argv_files / "out.json").read_text()
    if "--format=csv" in argv and not text.startswith("{"):
        assert text.startswith(("p,q,", "name,index,")), argv
    else:
        json.loads(text)
