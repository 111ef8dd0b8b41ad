"""Finite hypergraphs with exact transversal (vertex cover) numbers.

Edges are canonicalized to sorted tuples, with the edge list sorted by
(size, lexicographic order); the branch-and-bound always expands the
first uncovered edge in that order, so returned covers are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .bounds import catalog_lookup
from .errors import CatalogError, MalformedInputError, SearchLimitError
from .rational import to_json


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]
    arity: Optional[int] = None

    def __post_init__(self):
        if self.n < 0:
            raise MalformedInputError("vertex count must be >= 0")
        seen = set()
        for e in self.edges:
            if not e:
                raise MalformedInputError("empty edge")
            if list(e) != sorted(set(e)):
                raise MalformedInputError(f"edge {e} is not sorted and distinct")
            if e[0] < 0 or e[-1] >= self.n:
                raise MalformedInputError(f"edge {e} out of vertex range")
            if e in seen:
                raise MalformedInputError(f"duplicate edge {e}")
            seen.add(e)
            if self.arity is not None and len(e) != self.arity:
                raise MalformedInputError(
                    f"edge {e} has size {len(e)}, expected arity {self.arity}"
                )


def hypergraph(
    n: int, edges: Iterable[Iterable[int]], arity: Optional[int] = None
) -> Hypergraph:
    """Canonicalizing constructor: sorts vertices within edges, dedupes,
    sorts the edge list by (size, lex). Derives arity when uniform."""
    canon = sorted({tuple(sorted(set(e))) for e in edges}, key=lambda e: (len(e), e))
    if arity is None and canon and len({len(e) for e in canon}) == 1:
        arity = len(canon[0])
    return Hypergraph(n, tuple(canon), arity)


# The most tuples one scan may visit: each q-subset of each p-tuple of a
# (p,q) scan, each p-tuple of the counterexample's case sweep, each
# vertex subset of verify_eg_equivalence. Like sets.DD_WORK_CAP, it ends
# a command that would run on with exit 2. It and _tuples live here
# because piercing imports hypergraph, so hypergraph cannot import piercing.
TUPLE_CAP = 1_000_000


def _tuples(n: int, p: int, visits: int = 1) -> Iterable[tuple[int, ...]]:
    """The p-tuples of range(n) in lex order, once C(n, p) * visits is within TUPLE_CAP."""
    if comb(n, p) * visits > TUPLE_CAP:
        raise MalformedInputError(f"C({n}, {p}) tuples of {visits} visits each pass the tuple cap {TUPLE_CAP}")
    return combinations(range(n), p)


# The most edges one cover search may scan over all its nodes: like
# TUPLE_CAP, it ends a search that would run on, here with exit 3. A
# node at depth j scans at least j + 1 edges, so it bounds depth.
EDGE_SCAN_CAP = 5_000_000


def _cover_dfs(edges, budget: int, chosen: set, scans: list[int]) -> Optional[set]:
    """`chosen` plus at most `budget` vertices covering the edges, or None."""
    for at, uncovered in enumerate(edges):
        if chosen.isdisjoint(uncovered):
            break
    else:
        return set(chosen)
    scans[0] += at + 1
    if scans[0] > EDGE_SCAN_CAP:
        raise SearchLimitError(f"the cover search passes the edge scan cap {EDGE_SCAN_CAP}")
    if budget == 0:
        return None
    for v in uncovered:
        chosen.add(v)
        found = _cover_dfs(edges, budget - 1, chosen, scans)
        chosen.discard(v)
        if found is not None:
            return found
    return None


def transversal_number(
    h: Hypergraph, limit: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """Exact minimum transversal via iterative deepening.

    Returns (beta, cover). With `limit` set, raises SearchLimitError
    instead of searching past covers of that size.
    """
    if limit is not None and limit < 0:
        raise MalformedInputError("need limit >= 0")
    cap = h.n if limit is None else min(limit, h.n)
    scans = [0]  # edges scanned, over every depth
    for k in range(cap + 1):
        cover = _cover_dfs(h.edges, k, set(), scans)
        if cover is not None:
            return k, tuple(sorted(cover))
    if limit is not None and limit < h.n:
        raise SearchLimitError(f"transversal number exceeds limit {limit}")
    raise MalformedInputError("unsatisfiable hypergraph")  # unreachable: edges are nonempty


def induced_edges(h: Hypergraph, vertices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    vs = set(vertices)
    return tuple(e for e in h.edges if vs.issuperset(e))


def verify_eg_equivalence(h: Hypergraph, k: int, eta_value: int) -> Optional[tuple[int, ...]]:
    """Local-to-global transversal law on one hypergraph.

    Compares beta(h) <= k against "every induced subgraph on
    min(eta_value, n) vertices has beta <= k" (induced transversal
    numbers are monotone in the vertex set, so the largest size
    suffices). eta_value must match the exact catalog entry for
    (arity, k+1). Returns None when the two agree, else a
    counterwitness: the first vertex subset whose induced beta exceeds
    k, or all vertices when only beta(h) does. More than TUPLE_CAP
    vertex subsets raise MalformedInputError before the walk.
    """
    if h.arity is None:
        raise MalformedInputError("uniform hypergraph required")
    if k < 0:
        raise MalformedInputError("k must be >= 0")
    entry = catalog_lookup("eta", (h.arity, k + 1))
    if entry is None or entry.kind != "exact":
        raise CatalogError(f"no exact eta({h.arity},{k + 1}) catalog entry")
    if entry.value != eta_value:
        raise CatalogError(
            f"eta({h.arity},{k + 1}) = {entry.value} in catalog, got {eta_value}"
        )
    subsets = _tuples(h.n, min(eta_value, h.n))
    global_ok = _beta_at_most(h.edges, k)
    local = next((vs for vs in subsets if not _beta_at_most(induced_edges(h, vs), k)), None)
    if global_ok == (local is None):
        return None
    return tuple(range(h.n)) if local is None else local


def _beta_at_most(edges, k: int) -> bool:
    return _cover_dfs(edges, k, set(), [0]) is not None


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": to_json(h.edges)}


def hypergraph_from_json(obj) -> Hypergraph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise MalformedInputError("hypergraph needs n and edges")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise MalformedInputError("n must be an integer >= 0")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise MalformedInputError("edges must be a list")
    for e in edges:
        if not isinstance(e, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in e
        ):
            raise MalformedInputError(f"edge {e} must be a list of integers")
    return hypergraph(n, edges)
