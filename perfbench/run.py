"""pqpierce benchmark: seeded exact-geometry workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`. One
process, one thread, no worker pools. The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it print every metric by name and unit.
Each run also writes a results file, with the environment it ran in,
under `perfbench/results/`.

Set-up (import of the package plus input generation) is repeated
SETUP_REPEATS times, each time on a fresh import, and `setup_s` is the
median. The last set-up's modules and inputs are the ones measured.

`--trace 0` is a closed loop, one call at a time: it runs whole passes
over the seeded instance list, starting another pass only while it is
expected to end within `--seconds` (always at least one), then checks
every answer. It reports, for certified (answered and checked)
instances:

    setup_s          median set-up time                        s
    instances_per_s  certified instances per second            1/s
    cpu_s            process CPU time per certified instance   s
    latency_p50_s    median instance latency                   s
    latency_tail_s   latency at the highest percentile with at
                     least ten samples beyond it; the maximum
                     when fewer than 40 instances ran          s
    peak_rss_mb      peak resident set size of the process     MB

All times are in reference seconds. On a shared 2-core x86_64 host the
speed of one core drifted by up to 1.7x within seconds, far more than
the bounds of this benchmark. So while the benchmark runs, a timer
signal times a fixed reference computation (the Fraction row update of
the exact simplex) every REF_PERIOD_S. Each measured interval is divided
by the mean reference time around it over REF_NOMINAL_S, and the
reference's own time is taken out of it first. The raw times are kept
in the results file. On that host, five runs of 60 fixed pierce-2d
instances took 0.16-0.24 s per instance raw and 0.113-0.118 s
normalized.

`failed_ratio` (failed or raising instances over attempted ones) is
printed and recorded but is not a JSON metric, because it is 0 on a
correct program and a ratio to a zero median is undefined.

`--trace 1` replays a fixed prefix of the instances twice, untraced and
then traced (see tracing.py), so that its counts repeat exactly for a
seed. Traced answers must equal untraced ones. It reports the
per-layer metrics of tracing.Tracer.metrics and `trace.overhead_ratio`,
traced wall time over untraced wall time, in raw seconds, and writes
every span to `perfbench/results/`.
"""
from __future__ import annotations

import argparse
import bisect
import importlib
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import FIELDS, LAYERS, Tracer
from tracing import UNITS as TRACE_UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 9
TAIL_MIN_SAMPLES = 40  # below this, ten samples beyond sits under p75
REF_PERIOD_S = 0.1
REF_WINDOW_S = 0.3  # reference samples this close to an interval rate it
REF_NOMINAL_S = 0.003
_REF_A = tuple(Fraction(i, 7 + i % 5) for i in range(1, 41))
_REF_B = tuple(Fraction(11 - i % 9, 3 + i % 4) for i in range(1, 41))
_REF_F = Fraction(5, 13)

UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


class Program:
    """The freshly imported package: one attribute per layer module."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "pqpierce" or m.startswith("pqpierce.")]:
            del sys.modules[name]
        self.package = importlib.import_module("pqpierce")
        for name in LAYERS + ("errors",):
            setattr(self, name, importlib.import_module(f"pqpierce.{name}"))

    @property
    def modules(self) -> dict:
        return {n: m for n, m in sys.modules.items() if n == "pqpierce" or n.startswith("pqpierce.")}


def environment(pq: Program) -> dict:
    number = getattr(pq.lp, "_q", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "lp_number_type": "unknown" if number is None else f"{number.__module__}.{number.__qualname__}",
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
    }


def reference_kernel() -> None:
    """A fixed computation shaped like the simplex's row update."""
    for _ in range(25):
        [a - _REF_F * b for a, b in zip(_REF_A, _REF_B)]


class SpeedProbe:
    """Times reference_kernel every REF_PERIOD_S on SIGALRM while active."""

    def __init__(self):
        self.at: list[float] = []  # sample start times, ascending
        self.took: list[float] = []
        self.spent = 0.0  # total probe time, to take out of intervals

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """(result, wall, cpu, start, end) with the probe's time taken out."""
        s0 = self.spent
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        c1 = time.process_time()
        spent = self.spent - s0
        return result, t1 - t0 - spent, c1 - c0 - spent, t0, t1

    def factor(self, start: float, end: float) -> float:
        """How many times slower than nominal the host ran around [start, end]."""
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        if lo == hi:
            if not self.took:
                self._tick()
            lo, hi = 0, len(self.took)
        return statistics.fmean(self.took[lo:hi]) / REF_NOMINAL_S


def run_one(workload, pq, inst):
    """(answer, error text); an instance that raises has no answer."""
    try:
        return workload.run(pq, inst), None
    except Exception as exc:  # counted as a failed instance
        return None, f"{type(exc).__name__}: {exc}"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum under TAIL_MIN_SAMPLES samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def timed_run(workload, pq, insts, seconds: float, probe: SpeedProbe) -> dict:
    runs = []  # (index, answer, error, wall, cpu, start, end)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for idx, inst in enumerate(insts):
            (out, err), wall, cpu, t0, t1 = probe.measure(run_one, workload, pq, inst)
            runs.append((idx, out, err, wall, cpu, t0, t1))
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break

    failures, latencies, cpus, first = [], [], [], {}
    total = 0.0
    for idx, out, err, wall, cpu, t0, t1 in runs:
        f = probe.factor(t0, t1)
        total += wall / f
        problems = [err] if err else workload.check(insts[idx], out)
        if problems:
            failures.append({"instance": idx, "problems": problems})
        else:
            latencies.append(wall / f)
            cpus.append(cpu / f)
            first.setdefault(idx, out)
    summaries = []  # answers of the leading run of certified instances
    while len(summaries) in first:
        summaries.append(workload.summary(first[len(summaries)]))
    timed = latencies or [total]
    value, pct = tail(timed)
    return {
        "attempted": len(runs),
        "failures": failures,
        "summaries": summaries,
        "metrics": {
            "instances_per_s": len(latencies) / total,
            "cpu_s": sum(cpus) / max(len(cpus), 1),
            "latency_p50_s": statistics.median(timed),
            "latency_tail_s": value,
        },
        "detail": {
            "passes": len(runs) // len(insts),
            "certified": len(latencies),
            "latency_tail_percentile": pct,
            "speed_factor": probe.factor(start, time.perf_counter()),
            "reference_samples": len(probe.took),
            "raw_wall_s": [r[3] for r in runs],
            "raw_cpu_s": [r[4] for r in runs],
        },
    }


def traced_run(workload, pq, insts) -> tuple[dict, Tracer]:
    prefix = insts[: workload.trace_count]
    start = time.perf_counter()
    plain = [run_one(workload, pq, inst) for inst in prefix]
    untraced_wall = time.perf_counter() - start

    tracer = Tracer(pq.modules)
    tracer.install()
    try:
        start = time.perf_counter()
        traced = []
        for k, inst in enumerate(prefix):
            tracer.instance = k
            traced.append(run_one(workload, pq, inst))
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    failures, summaries = [], []
    for k, ((out, err), (p_out, p_err)) in enumerate(zip(traced, plain)):
        problems = [err] if err else workload.check(prefix[k], out)
        if not err:
            summary = workload.summary(out)
            summaries.append(summary)
            if p_err or summary != workload.summary(p_out):
                problems.append("traced answer differs from the untraced answer")
        if problems:
            failures.append({"instance": k, "problems": problems})
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {
        "attempted": len(prefix),
        "failures": failures,
        "summaries": summaries if not failures else [],
        "metrics": metrics,
        "detail": {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "spans": len(tracer.spans)},
    }, tracer


def compare_recorded(workload, seed: int, summaries: list) -> list[str]:
    """The answers must equal the recorded ones; the seed's isometries
    keep them the same for every seed."""
    got = workload.recorded(summaries)
    want = workloads.load_expected().get(workload.name, [])[: len(got)]
    # JSON turns tuples into lists; compare in that form
    if json.loads(json.dumps(got)) != want:
        return [f"answers on seed {seed} differ from the recorded values"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pqpierce" / "__init__.py").is_file():
        print(f"error: no pqpierce package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    def set_up():
        pq = Program()
        return pq, workload.instances(pq, args.seed)

    tracer = None
    with SpeedProbe() as probe:
        setup = []
        for _ in range(SETUP_REPEATS):
            (pq, insts), wall, _, t0, t1 = probe.measure(set_up)
            setup.append((wall, t0, t1))
        if Path(pq.package.__file__).resolve().parent != (SRC / "pqpierce").resolve():
            print(f"error: pqpierce imported from {pq.package.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if not args.trace:
            result = timed_run(workload, pq, insts, args.seconds, probe)
            result["metrics"]["setup_s"] = statistics.median(w / probe.factor(a, b) for w, a, b in setup)
            result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["detail"]["raw_setup_s"] = [w for w, _, _ in setup]
            units = UNITS
    if args.trace:  # spans stay free of the probe's time
        result, tracer = traced_run(workload, pq, insts)
        units = TRACE_UNITS
    mismatch = compare_recorded(workload, args.seed, result["summaries"])
    failed = len(result["failures"])
    attempted = result["attempted"]
    correct = failed == 0 and not mismatch

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(pq),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": result["failures"][:20],
        "recorded_mismatch": mismatch,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
        "detail": result["detail"],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = {"fields": FIELDS, "environment": record["environment"], "spans": tracer.spans}
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    env = record["environment"]
    print(f"workload {workload.name} seed {args.seed}: python {env['python']}, nproc {env['nproc']}, "
          f"LP numbers {env['lp_number_type']}, gmpy2 importable {env['gmpy2_importable']}")
    for problem in mismatch + [f"instance {f['instance']}: {p}" for f in result["failures"][:5] for p in f["problems"]]:
        print(f"FAILED {problem}")
    for name in units:
        print(f"{name} {result['metrics'][name]:.6g} {units[name]}")
    if not args.trace:
        d = result["detail"]
        print(f"latency_tail_s is p{d['latency_tail_percentile']:.1f} of {d['certified']} certified instances")
        print(f"times are reference seconds; the host ran {d['speed_factor']:.3f}x the nominal reference time")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
