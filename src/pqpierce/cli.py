"""Command-line interface.

Every command prints machine-readable JSON (or CSV where supported) and
maps outcomes onto five exit codes:

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
from typing import Optional

from .bounds import catalog_lookup, entry_to_json
from .constructions import (
    CounterexampleSpec,
    check_family_size,
    counterexample_family,
    escape_witness,
    free_flats_family,
    gruenbaum_line,
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
from .piercing import (
    build_GF,
    has_pq_property,
    piercing_number,
    piercing_to_json,
    pq_report_to_json,
)
from .pipelines import (
    pierce_via_free_family,
    pierce_via_projection,
    pierce_via_transversal,
    report_to_json,
    verify_counterexample,
    verify_projection_equivalence,
)
from .rational import point_json, rat
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


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    """The flags read by _spec: the fields of CounterexampleSpec."""
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--n-bounded", type=int, required=True)
    parser.add_argument("--margin", default="0")


def _spec(args) -> CounterexampleSpec:
    return CounterexampleSpec(args.d, args.n_max, args.n_bounded, rat(args.margin))


def _fractions_in_unit(max_den: int) -> int:
    """Reduced fractions in (0,1) with denominator <= max_den: the sum
    of Euler's totient over 2..max_den, by sieve."""
    phi = list(range(max_den + 1))
    for k in range(2, max_den + 1):
        if phi[k] == k:  # k is prime
            for m in range(k, max_den + 1, k):
                phi[m] -= phi[m] // k
    return sum(phi[2:])


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, output_text)

def _cmd_construct(args) -> tuple[int, str]:
    if args.what == "simplex":
        if (args.alphas is None) == (args.count is None):
            raise MalformedInputError("give exactly one of --alphas or --count")
        extra = {}
        if args.alphas is not None:
            alphas = _parse_rat_list(args.alphas)
            check_family_size(len(alphas) * args.d, args.d)
        else:
            if args.count < 1:
                raise MalformedInputError("need --count >= 1")
            if args.max_den < 2:
                raise MalformedInputError("need --max-den >= 2")
            check_family_size(args.count * args.d, args.d)  # bounds the sieve too
            # the max_den - 1 fractions 1/n always exist; count the rest only if needed
            if args.count >= args.max_den and args.count > _fractions_in_unit(args.max_den):
                raise MalformedInputError(
                    f"--count {args.count} exceeds the number of distinct alphas"
                    f" with denominator <= {args.max_den}"
                )
            rng = random.Random(args.seed)
            chosen: set[Fraction] = set()
            while len(chosen) < args.count:
                den = rng.randint(2, args.max_den)
                chosen.add(Fraction(rng.randint(1, den - 1), den))
            alphas = sorted(chosen)
            extra = {"seed": args.seed}
        sets = [simplex_S(a, args.d) for a in alphas]
        fam = Family(args.d, tuple(sets))
        return 0, _json_text({**family_to_json(fam), **extra})
    if args.what == "counterexample":
        return 0, _json_text(family_to_json(counterexample_family(_spec(args))))
    if args.what == "gruenbaum":
        fam = gruenbaum_line(args.n_max, args.copies)
        return 0, _json_text(family_to_json(fam))
    fam = free_flats_family(args.d, args.k, args.count, rat(args.radius), args.seed)
    return 0, _json_text({**family_to_json(fam), "seed": args.seed})


def _cmd_check_pq(args) -> tuple[int, str]:
    report = has_pq_property(_load_family(args.input), args.p, args.q)
    data = pq_report_to_json(report)
    text = _pq_csv(data) if args.format == "csv" else _json_text(data)
    return (0 if report.holds else 1), text


def _cmd_solve(args) -> tuple[int, str]:
    if args.what == "pierce":
        sol = piercing_number(_load_family(args.input), limit=args.limit)
        return 0, _json_text(piercing_to_json(sol))
    h = hypergraph_from_json(_load_json(args.input))
    beta, cover = transversal_number(h, limit=args.limit)
    return 0, _json_text({"beta": beta, "cover": list(cover)})


def _cmd_analyze(args) -> tuple[int, str]:
    fam = _load_family(args.input)
    if args.what == "recession":
        v = common_recession_direction(fam)
        data = {"direction": None if v is None else point_json(v)}
        return (0 if v is not None else 1), _json_text(data)
    if args.what == "project":
        shadows = Family(fam.dim - 1, tuple(project_drop_last(s) for s in fam.sets))
        return 0, _json_text(family_to_json(shadows))
    gf = build_GF(fam)
    return 0, _json_text(hypergraph_to_json(gf))


def _cmd_escape(args) -> tuple[int, str]:
    w = escape_witness(_spec(args), _load_points(args.points), args.n_cap)
    data = {"witness": w, "n_cap": args.n_cap}
    return (0 if w is not None else 3), _json_text(data)


def _cmd_bounds(args) -> tuple[int, str]:
    if args.what == "eta":
        if args.lam < 1 or args.k < 1:
            raise MalformedInputError("need lam >= 1 and k >= 1")
        entry = catalog_lookup("eta", (args.lam, args.k))
    else:
        if not 1 <= args.q <= args.p or args.d < 1:
            raise MalformedInputError("need p >= q >= 1 and d >= 1")
        entry = catalog_lookup("xi", (args.p, args.q, args.d))
    data = {"entry": None if entry is None else entry_to_json(entry)}
    return (0 if entry is not None else 1), _json_text(data)


def _cmd_pipeline(args) -> tuple[int, str]:
    if args.what == "s1":
        report = pierce_via_transversal(_load_family(args.input), args.t, args.p)
    elif args.what == "s2":
        report = pierce_via_free_family(
            _load_family(args.input), _parse_index_list(args.b_indices),
            args.p, args.q,
        )
    elif args.what == "main":
        report = pierce_via_projection(
            _load_family(args.input), _parse_index_list(args.compact_indices),
            args.p, args.q,
        )
    elif args.what == "counterexample":
        spec = _spec(args)
        candidates = None
        if args.points is not None:
            candidates = [_load_points(args.points)]
        report = verify_counterexample(
            spec, args.k_max, candidate_point_sets=candidates, n_cap=args.n_cap
        )
    else:
        fam = _load_family(args.input)
        box = set_from_json(_load_json(args.box))
        report = verify_projection_equivalence(fam, box, args.max_subset)
    data = report_to_json(report)
    text = _pipeline_csv(data) if args.format == "csv" else _json_text(data)
    if not report.exhaustive:
        return 3, text
    return (0 if report.all_passed else 1), text


# ---------------------------------------------------------------------------
# parser assembly

class _Parser(argparse.ArgumentParser):
    """Turns a usage error into MalformedInputError, after printing the
    usage text to stderr; subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise MalformedInputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pqpierce",
        description="Exact rational toolkit for intersection properties and "
        "piercing numbers of convex polyhedral families.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None, help="max LP calls")

    def add_format(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")

    construct = top.add_parser("construct", help="emit a family as JSON")
    csub = construct.add_subparsers(dest="what", required=True)
    p = csub.add_parser("simplex")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alphas", default=None, help="comma-separated rationals in (0,1]")
    p.add_argument("--count", type=int, default=None, help="sample this many alphas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-den", type=int, default=1000)
    add_output(p)
    p = csub.add_parser("counterexample")
    _add_spec_args(p)
    add_output(p)
    p = csub.add_parser("gruenbaum")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--copies", type=int, default=1)
    add_output(p)
    p = csub.add_parser("free-flats")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--radius", default="10")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    check = top.add_parser("check", help="verify an intersection property")
    ksub = check.add_subparsers(dest="what", required=True)
    p = ksub.add_parser("pq")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--input", required=True, help="family JSON file")
    add_budget(p)
    add_format(p)
    add_output(p)

    solve = top.add_parser("solve", help="exact solvers")
    ssub = solve.add_subparsers(dest="what", required=True)
    p = ssub.add_parser("pierce")
    p.add_argument("--input", required=True, help="family JSON file")
    p.add_argument("--limit", type=int, default=None)
    add_budget(p)
    add_output(p)
    p = ssub.add_parser("transversal")
    p.add_argument("--input", required=True, help="hypergraph JSON file")
    p.add_argument("--limit", type=int, default=None)
    add_output(p)

    analyze = top.add_parser("analyze", help="structure extraction")
    asub = analyze.add_subparsers(dest="what", required=True)
    for name in ("recession", "project", "gf"):
        p = asub.add_parser(name)
        p.add_argument("--input", required=True, help="family JSON file")
        add_budget(p)
        add_output(p)

    p = top.add_parser("escape", help="smallest member avoiding a point set")
    _add_spec_args(p)
    p.add_argument("--points", required=True, help="point-list JSON file")
    p.add_argument("--n-cap", type=int, default=1000)
    add_budget(p)
    add_output(p)

    bounds = top.add_parser("bounds", help="catalog of classical bounds")
    bsub = bounds.add_subparsers(dest="what", required=True)
    p = bsub.add_parser("eta")
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_output(p)
    p = bsub.add_parser("xi")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_output(p)

    pipeline = top.add_parser("pipeline", help="verified piercing arguments")
    psub = pipeline.add_subparsers(dest="what", required=True)
    p = psub.add_parser("s1")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    add_budget(p)
    add_format(p)
    add_output(p)
    p = psub.add_parser("s2")
    p.add_argument("--input", required=True)
    p.add_argument("--b-indices", required=True, help="comma-separated indices")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_budget(p)
    add_format(p)
    add_output(p)
    p = psub.add_parser("main")
    p.add_argument("--input", required=True)
    p.add_argument("--compact-indices", required=True, help="comma-separated indices")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_budget(p)
    add_format(p)
    add_output(p)
    p = psub.add_parser("counterexample")
    _add_spec_args(p)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--points", default=None, help="candidate point-list JSON file")
    p.add_argument("--n-cap", type=int, default=1000)
    add_budget(p)
    add_format(p)
    add_output(p)
    p = psub.add_parser("corollary52")
    p.add_argument("--input", required=True)
    p.add_argument("--box", required=True, help="set JSON file")
    p.add_argument("--max-subset", type=int, required=True)
    add_budget(p)
    add_format(p)
    add_output(p)
    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "check": _cmd_check_pq,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "escape": _cmd_escape,
    "bounds": _cmd_bounds,
    "pipeline": _cmd_pipeline,
}


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
            code, text = _HANDLERS[args.command](args)
    except (MalformedInputError, EmptySetError, CatalogError) as exc:
        code, text = 2, _json_text({"error": str(exc)})
    except (BudgetExhaustedError, SearchLimitError) as exc:
        code, text = 3, _json_text({"error": str(exc)})
    except Exception as exc:  # a fault of this program, whatever the input
        import traceback  # imported here: it costs 250 KB of RSS, and only a fault needs it
        traceback.print_exc()
        code, text = 4, _json_text({"error": f"internal error: {exc!r}"})
    output = getattr(args, "output", None)
    try:
        _emit(text, output)
    except OSError as exc:
        if output is None:
            raise
        _emit(_json_text({"error": f"cannot write {output}: {exc}"}), None)
        return 2
    return code


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))
