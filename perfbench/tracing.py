"""Span tracing of the pqpierce layers from outside the package.

The tracer replaces every binding of each public function of the layer
modules with a timing wrapper. A function is wrapped once per module
that binds it, under the name the caller looks it up by:
`from .lp import lp_feasible` gives `pqpierce.sets` its own reference,
so wrapping `pqpierce.lp.lp_feasible` alone would see no calls from
`sets`. `IntersectionOracle`'s public methods are wrapped on the class.
Nothing under `src/` changes; `uninstall` puts every binding back.

Spans stay in memory as flat lists and are written out at the end. A
span's self time is its duration minus the time covered by its direct
children; calls are single-threaded and nested, so the children never
overlap. An LP span notes its system's constraint and variable counts,
the tableau's rows and structural columns, and whether it was feasible.
"""
from __future__ import annotations

import inspect
import statistics
import time

LAYERS = ("lp", "sets", "piercing", "hypergraph", "constructions", "pipelines")
TRACED_CLASSES = {"piercing": ("IntersectionOracle",)}

LP_CALLS = {"lp.lp_feasible", "lp.lp_minimize"}
PROBES = {
    "sets.is_empty",
    "sets.is_bounded",
    "sets.some_point",
    "sets.recession_cone",
    "sets.direction_in_recession_cone",
    "sets.common_recession_direction",
}
SHADOWS = {
    "sets.lifted_projection_witness",
    "sets.lifted_projection_intersect",
    "sets.min_height_in_box",
}
QUERY = "piercing.IntersectionOracle.intersecting"

UNITS = {  # every metric of Tracer.metrics, plus the overhead run.py adds
    "lp.calls": "count",
    "lp.self_s": "s",
    "lp.call_p50_us": "us",
    "lp.infeasible_ratio": "ratio",
    "lp.rows_max": "count",
    "lp.rows_mean": "count",
    "lp.cols_max": "count",
    "sets.joint.calls": "count",
    "sets.member_lp.calls": "count",
    "sets.verify_lp_ratio": "ratio",
    "sets.probe.calls": "count",
    "sets.shadow.calls": "count",
    "sets.self_s": "s",
    "piercing.queries": "count",
    "piercing.lp_misses": "count",
    "piercing.hit_ratio": "ratio",
    "piercing.tuples_scanned": "count",
    "piercing.self_s": "s",
    "hypergraph.edges": "count",
    "hypergraph.self_s": "s",
    "constructions.self_s": "s",
    "pipelines.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# span fields, in order
NAME, VIA, START, END, PARENT, INSTANCE, NOTE = range(7)
FIELDS = ("name", "via", "start", "end", "parent", "instance", "note")


def _note_lp(args, result):
    system = args[0]
    feasible = result[0] if isinstance(result[0], bool) else result[0] != "infeasible"
    return (len(system.constraints), system.dim, feasible)


NOTES = {
    "lp.lp_feasible": _note_lp,
    "lp.lp_minimize": _note_lp,
    "piercing.pq_property_scan": lambda args, result: result[2],
    "hypergraph.transversal_number": lambda args, result: len(args[0].edges),
}


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps every loaded pqpierce module name to the module."""
        self.modules = modules
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, via: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, via, clock(), 0.0, stack[-1] if stack else -1, tracer.instance, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        targets = {}  # function object -> qualified span name
        for layer in LAYERS:
            mod = self.modules[f"pqpierce.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[obj] = f"{layer}.{attr}"
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._set(cls, attr, self._wrap(obj, f"{layer}.{cls_name}.{attr}", layer))
        for mod_name, mod in self.modules.items():
            via = mod_name.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._set(mod, attr, self._wrap(obj, targets[obj], via))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -----------------------------------------------------------------------
    # per-layer metrics

    def metrics(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                children[s[PARENT]] += 1
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            self_s[s[NAME].partition(".")[0]] += s[END] - s[START] - child_time[i]

        lp = [s for s in spans if s[NAME] in LP_CALLS]
        lp_calls = len(lp)
        verify = sum(1 for s in lp if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "sets.contains_point")
        member_lp = sum(
            1 for i, s in enumerate(spans) if s[NAME] == "sets.contains_point" and children[i]
        )
        queries = [i for i, s in enumerate(spans) if s[NAME] == QUERY]
        misses = sum(1 for i in queries if children[i])
        rows = [s[NOTE][0] for s in lp]

        def ratio(part, base):
            return part / base if base else 0.0

        def count(names):
            return sum(1 for s in spans if s[NAME] in names)

        return {
            "lp.calls": lp_calls,
            "lp.self_s": self_s["lp"],
            "lp.call_p50_us": statistics.median(s[END] - s[START] for s in lp) * 1e6 if lp else 0.0,
            "lp.infeasible_ratio": ratio(sum(1 for s in lp if not s[NOTE][2]), lp_calls),
            "lp.rows_max": max(rows, default=0),
            "lp.rows_mean": ratio(sum(rows), lp_calls),
            "lp.cols_max": max((s[NOTE][1] for s in lp), default=0),
            "sets.joint.calls": count({"sets.intersect_nonempty"}),
            "sets.member_lp.calls": member_lp,
            "sets.verify_lp_ratio": ratio(verify, lp_calls),
            "sets.probe.calls": count(PROBES),
            "sets.shadow.calls": count(SHADOWS),
            "sets.self_s": self_s["sets"],
            "piercing.queries": len(queries),
            "piercing.lp_misses": misses,
            "piercing.hit_ratio": ratio(len(queries) - misses, len(queries)),
            "piercing.tuples_scanned": sum(
                s[NOTE] for s in spans if s[NAME] == "piercing.pq_property_scan" and s[NOTE] is not None
            ),
            "piercing.self_s": self_s["piercing"],
            "hypergraph.edges": sum(
                s[NOTE] for s in spans if s[NAME] == "hypergraph.transversal_number" and s[NOTE] is not None
            ),
            "hypergraph.self_s": self_s["hypergraph"],
            "constructions.self_s": self_s["constructions"],
            "pipelines.self_s": self_s["pipelines"],
        }
