"""Command-line interface.

Each leaf command is declared once, in `_build_parser`: its flags, its
handler and, for `check pq` and the `pipeline` commands, a CSV
renderer. A handler returns its exit code and the library's values (a
report, a solution, a point); `cmd_dispatch` renders that data once with
`rational.to_json` (a Fraction as an int or "p/q", a dataclass as its
fields), then prints it as JSON or, under `--format csv`, with the
leaf's renderer. Outcomes map onto five exit codes:

    0  success, including "the property holds"
    1  the property or a pipeline hypothesis fails (witness in output)
    2  malformed input or usage error
    3  a resource cap was exhausted (LP budget, search limit, escape cap)
    4  internal error: any other exception (traceback on stderr)

Identical argv, seed, and input files produce byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from typing import Optional

from .bounds import catalog_lookup
from .constructions import (
    CounterexampleSpec,
    check_family_size,
    counterexample_family,
    escape_witness,
    free_flats_family,
    gruenbaum_line,
    sample_alphas,
    simplex_S,
)
from .errors import (
    BudgetExhaustedError,
    CatalogError,
    EmptySetError,
    MalformedInputError,
    SearchLimitError,
)
from .hypergraph import hypergraph_from_json, hypergraph_to_json, transversal_number
from .lp import lp_budget
from .piercing import PqReport, build_GF, has_pq_property, piercing_number
from .pipelines import (
    PipelineReport,
    pierce_via_free_family,
    pierce_via_projection,
    pierce_via_transversal,
    verify_counterexample,
    verify_projection_equivalence,
)
from .rational import rat, to_json
from .sets import (
    Family,
    _json_points,
    common_recession_direction,
    family_from_json,
    family_to_json,
    project_drop_last,
    set_from_json,
)


def _parse_rat_list(text: str) -> list[Fraction]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise MalformedInputError("empty rational list")
    return [rat(t) for t in items]


def _parse_index_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise MalformedInputError(f"bad index list {text!r}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, non-UTF-8 bytes, an int too long to parse
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def _load_family(path: str) -> Family:
    return family_from_json(_load_json(path))


def _load_points(path: str) -> list[tuple]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "points" not in obj:
        raise MalformedInputError("point file needs a 'points' key")
    return list(_json_points(obj["points"], "'points'"))


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _pq_csv(report_json: dict) -> str:
    viol = report_json["violating_tuple"]
    return _csv_text(
        ["p", "q", "holds", "violating_tuple", "checked_tuples"],
        [[
            report_json["p"],
            report_json["q"],
            report_json["holds"],
            "" if viol is None else " ".join(map(str, viol)),
            report_json["checked_tuples"],
        ]],
    )


def _pipeline_csv(report_json: dict) -> str:
    rows = [
        [
            report_json["name"],
            i,
            row["description"],
            row["passed"],
            json.dumps(row["witness"], sort_keys=True),
        ]
        for i, row in enumerate(report_json["hypothesis_checks"])
    ]
    return _csv_text(["name", "index", "description", "passed", "witness"], rows)


def _budget_context(args):
    budget = getattr(args, "budget", None)
    if budget is None:
        return nullcontext()
    if budget <= 0:
        raise MalformedInputError("budget must be positive")
    return lp_budget(budget)


def _spec(args) -> CounterexampleSpec:
    return CounterexampleSpec(args.d, args.n_max, args.n_bounded, rat(args.margin))


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, data)

def _family(fam: Family, **extra) -> tuple[int, dict]:
    return 0, {**family_to_json(fam), **extra}


def _report(report: PipelineReport) -> tuple[int, PipelineReport]:
    """A pipeline's exit code: 3 when its run was not exhaustive, else 0
    when every hypothesis row passed, else 1."""
    code = 3 if not report.exhaustive else 0 if report.all_passed else 1
    return code, report


def _simplex(args) -> tuple[int, dict]:
    if (args.alphas is None) == (args.count is None):
        raise MalformedInputError("give exactly one of --alphas or --count")
    if args.alphas is not None:
        alphas = _parse_rat_list(args.alphas)
        check_family_size(len(alphas) * args.d, args.d)
        extra = {}
    else:
        check_family_size(args.count * args.d, args.d)  # bounds the sampler's sieve too
        alphas = sample_alphas(random.Random(args.seed), args.count, args.max_den)
        extra = {"seed": args.seed}
    return _family(Family(args.d, tuple(simplex_S(a, args.d) for a in alphas)), **extra)


def _check_pq(args) -> tuple[int, PqReport]:
    report = has_pq_property(_load_family(args.input), args.p, args.q)
    return (0 if report.holds else 1), report


def _transversal(args) -> tuple[int, dict]:
    beta, cover = transversal_number(hypergraph_from_json(_load_json(args.input)), limit=args.limit)
    return 0, {"beta": beta, "cover": cover}


def _recession(args) -> tuple[int, dict]:
    v = common_recession_direction(_load_family(args.input))
    return (0 if v is not None else 1), {"direction": v}


def _project(args) -> tuple[int, dict]:
    fam = _load_family(args.input)
    return _family(Family(fam.dim - 1, tuple(project_drop_last(s) for s in fam.sets)))


def _escape(args) -> tuple[int, dict]:
    w = escape_witness(_spec(args), _load_points(args.points), args.n_cap)
    return (0 if w is not None else 3), {"witness": w, "n_cap": args.n_cap}


def _entry(entry) -> tuple[int, dict]:
    return (0 if entry is not None else 1), {"entry": entry}


def _eta(args) -> tuple[int, dict]:
    if args.lam < 1 or args.k < 1:
        raise MalformedInputError("need lam >= 1 and k >= 1")
    return _entry(catalog_lookup("eta", (args.lam, args.k)))


def _xi(args) -> tuple[int, dict]:
    if not 1 <= args.q <= args.p or args.d < 1:
        raise MalformedInputError("need p >= q >= 1 and d >= 1")
    return _entry(catalog_lookup("xi", (args.p, args.q, args.d)))


def _counterexample(args):
    candidates = None if args.points is None else [_load_points(args.points)]
    return verify_counterexample(
        _spec(args), args.k_max, candidate_point_sets=candidates, n_cap=args.n_cap
    )


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    """Turns a usage error into MalformedInputError, after printing the
    usage text to stderr; subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise MalformedInputError(f"{self.prog}: {message}")


def _flag(*names, **kwargs):
    return names, kwargs


def _ints(*names):
    """Required int flags."""
    return tuple(_flag(name, type=int, required=True) for name in names)


# flags shared by several leaves; a leaf lists its flags in the order of
# its usage text and of argparse's "arguments are required" error
_FAMILY = _flag("--input", required=True, help="family JSON file")
_BUDGET = _flag("--budget", type=int, help="max LP calls")
_LIMIT = _flag("--limit", type=int)
_N_CAP = _flag("--n-cap", type=int, default=1000)
_SPEC = (*_ints("--d", "--n-max", "--n-bounded"), _flag("--margin", default="0"))  # CounterexampleSpec
_PQ = _ints("--p", "--q")
_FORMAT = _flag("--format", choices=["json", "csv"], default="json")
_OUTPUT = _flag("-o", "--output", help="write to file instead of stdout")


def _leaf(sub, name, run, *flags, csv=None, **kwargs) -> None:
    """A leaf command: its flags, then --format if it has a CSV
    renderer, then -o; `cmd_dispatch` calls `run` and renders its data."""
    parser = sub.add_parser(name, **kwargs)
    for names, options in (*flags, *([_FORMAT] if csv else []), _OUTPUT):
        parser.add_argument(*names, **options)
    parser.set_defaults(run=run, csv=csv)


@cache  # parse_args reads the parser and leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqpierce",
        description="Exact rational toolkit for intersection properties and "
        "piercing numbers of convex polyhedral families.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return top.add_parser(name, help=help).add_subparsers(dest="what", required=True)

    construct = group("construct", "emit a family as JSON")
    _leaf(construct, "simplex", _simplex, *_ints("--d"),
          _flag("--alphas", help="comma-separated rationals in (0,1]"),
          _flag("--count", type=int, help="sample this many alphas"),
          _flag("--seed", type=int, default=0), _flag("--max-den", type=int, default=1000))
    _leaf(construct, "counterexample", lambda a: _family(counterexample_family(_spec(a))), *_SPEC)
    _leaf(construct, "gruenbaum", lambda a: _family(gruenbaum_line(a.n_max, a.copies)),
          *_ints("--n-max"), _flag("--copies", type=int, default=1))
    _leaf(construct, "free-flats",
          lambda a: _family(free_flats_family(a.d, a.k, a.count, rat(a.radius), a.seed), seed=a.seed),
          *_ints("--d", "--k", "--count"), _flag("--radius", default="10"),
          _flag("--seed", type=int, default=0))

    check = group("check", "verify an intersection property")
    _leaf(check, "pq", _check_pq, *_PQ, _FAMILY, _BUDGET, csv=_pq_csv)

    solve = group("solve", "exact solvers")
    _leaf(solve, "pierce",
          lambda a: (0, piercing_number(_load_family(a.input), limit=a.limit)),
          _FAMILY, _LIMIT, _BUDGET)
    _leaf(solve, "transversal", _transversal,
          _flag("--input", required=True, help="hypergraph JSON file"), _LIMIT)

    analyze = group("analyze", "structure extraction")
    _leaf(analyze, "recession", _recession, _FAMILY, _BUDGET)
    _leaf(analyze, "project", _project, _FAMILY, _BUDGET)
    _leaf(analyze, "gf", lambda a: (0, hypergraph_to_json(build_GF(_load_family(a.input)))),
          _FAMILY, _BUDGET)

    _leaf(top, "escape", _escape, *_SPEC, _flag("--points", required=True, help="point-list JSON file"),
          _N_CAP, _BUDGET, help="smallest member avoiding a point set")

    bounds = group("bounds", "catalog of classical bounds")
    _leaf(bounds, "eta", _eta, *_ints("--lam", "--k"))
    _leaf(bounds, "xi", _xi, *_PQ, *_ints("--d"))

    pipeline = group("pipeline", "verified piercing arguments")

    def verified(name, run, *flags):
        _leaf(pipeline, name, lambda a: _report(run(a)), *flags, _BUDGET, csv=_pipeline_csv)

    verified("s1", lambda a: pierce_via_transversal(_load_family(a.input), a.t, a.p),
             _FAMILY, *_ints("--t", "--p"))
    verified("s2", lambda a: pierce_via_free_family(
        _load_family(a.input), _parse_index_list(a.b_indices), a.p, a.q),
        _FAMILY, _flag("--b-indices", required=True, help="comma-separated indices"), *_PQ)
    verified("main", lambda a: pierce_via_projection(
        _load_family(a.input), _parse_index_list(a.compact_indices), a.p, a.q),
        _FAMILY, _flag("--compact-indices", required=True, help="comma-separated indices"), *_PQ)
    verified("counterexample", _counterexample, *_SPEC, *_ints("--k-max"),
             _flag("--points", help="candidate point-list JSON file"), _N_CAP)
    verified("corollary52", lambda a: verify_projection_equivalence(
        _load_family(a.input), set_from_json(_load_json(a.box)), a.max_subset),
        _FAMILY, _flag("--box", required=True, help="set JSON file"), *_ints("--max-subset"))
    return parser


def cmd_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except MalformedInputError as exc:  # a usage error, its usage text on stderr
        _emit(_json_text({"error": str(exc)}), None)
        return 2
    try:
        with _budget_context(args):  # every LP of the command, file loading included
            code, data = args.run(args)
        data = to_json(data)
        text = args.csv(data) if args.csv and args.format == "csv" else _json_text(data)
    except (MalformedInputError, EmptySetError, CatalogError) as exc:
        code, text = 2, _json_text({"error": str(exc)})
    except (BudgetExhaustedError, SearchLimitError) as exc:
        code, text = 3, _json_text({"error": str(exc)})
    except Exception as exc:  # a fault of this program, whatever the input
        import traceback  # imported here: it costs 250 KB of RSS, and only a fault needs it
        traceback.print_exc()
        code, text = 4, _json_text({"error": f"internal error: {exc!r}"})
    try:
        _emit(text, args.output)
    except OSError as exc:
        if args.output is None:
            raise
        _emit(_json_text({"error": f"cannot write {args.output}: {exc}"}), None)
        return 2
    return code


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))
