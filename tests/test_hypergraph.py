"""Transversal numbers against brute force, plus the local-to-global
equivalence checker."""
import random
import time
from itertools import combinations

import pytest

from pqpierce.errors import CatalogError, MalformedInputError, SearchLimitError
from pqpierce.hypergraph import (
    Hypergraph,
    hypergraph_from_json,
    hypergraph_to_json,
    induced_edges,
    transversal_number,
    verify_eg_equivalence,
)


def brute_transversal(h):
    for k in range(h.n + 1):
        for sub in combinations(range(h.n), k):
            s = set(sub)
            if all(s.intersection(e) for e in h.edges):
                return k, sub
    raise AssertionError("no cover at all")


def hits_all(cover, edges):
    s = set(cover)
    return all(s.intersection(e) for e in edges)


def test_canonicalization():
    h = Hypergraph(5, [[2, 1, 1], [0, 3], [1, 2], [4, 0, 3]])
    assert h.edges == ((0, 3), (1, 2), (0, 3, 4))
    assert h.arity is None
    # any order and repetition of the edges gives the same value
    again = Hypergraph(5, ((3, 4, 0), (2, 1), (3, 0), (1, 2), (0, 4, 3, 3)))
    assert again == h and hash(again) == hash(h)
    u = Hypergraph(4, [[3, 1, 0], [0, 1, 2]])
    assert u.arity == 3


def test_invariants_rejected():
    with pytest.raises(MalformedInputError):
        Hypergraph(-1, ())
    with pytest.raises(MalformedInputError):
        Hypergraph(3, ((),))
    with pytest.raises(MalformedInputError):
        Hypergraph(3, ((0, 3),))
    with pytest.raises(MalformedInputError):
        Hypergraph(3, ((0, 1), (0, 1, 2)), arity=2)
    # unsorted and repeated edges are canonicalized, not rejected
    assert Hypergraph(3, ((1, 0),)) == Hypergraph(3, ((0, 1),))
    assert Hypergraph(3, ((0, 1), (0, 1))) == Hypergraph(3, ((0, 1),))


def test_the_module_is_not_shadowed(monkeypatch):
    import pqpierce
    import pqpierce.hypergraph as hg
    from pqpierce import hypergraph

    assert hg is hypergraph is pqpierce.hypergraph
    assert hg.TUPLE_CAP == 1_000_000
    monkeypatch.setattr("pqpierce.hypergraph.TUPLE_CAP", 9)
    assert len(list(hg._tuples(4, 2))) == 6  # C(4, 2) = 6 within the cap
    with pytest.raises(MalformedInputError, match="tuple cap 9"):
        hg._tuples(5, 2)


def test_edgeless():
    assert transversal_number(Hypergraph(7, [])) == (0, ())


def test_triangle_needs_two_vertices():
    tri = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
    beta, cover = transversal_number(tri)
    assert beta == 2
    assert hits_all(cover, tri.edges) and len(cover) == 2


def test_star_covered_by_center():
    star = Hypergraph(4, [[0, 1], [0, 2], [0, 3]])
    assert transversal_number(star) == (1, (0,))


def test_limit_raises():
    tri = Hypergraph(3, [[0, 1], [1, 2], [0, 2]])
    with pytest.raises(SearchLimitError):
        transversal_number(tri, limit=1)
    assert transversal_number(tri, limit=2)[0] == 2


def test_random_vs_brute_force():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 9)
        possible = list(combinations(range(n), min(rng.randint(2, 3), n)))
        edges = [list(e) for e in possible if rng.random() < 0.3]
        h = Hypergraph(n, edges)
        beta, cover = transversal_number(h)
        assert beta == brute_transversal(h)[0]
        assert hits_all(cover, h.edges) and len(cover) == beta


def test_determinism():
    h = Hypergraph(6, [[0, 1, 2], [2, 3, 4], [1, 3, 5], [0, 4, 5]])
    assert transversal_number(h) == transversal_number(h)


def test_induced_edges():
    h = Hypergraph(5, [[0, 1, 2], [2, 3, 4], [0, 3, 4]])
    assert induced_edges(h, [0, 1, 2, 3]) == ((0, 1, 2),)
    assert induced_edges(h, [2, 3, 4]) == ((2, 3, 4),)


def test_eg_equivalence_edgeless():
    h = Hypergraph(4, [], arity=3)
    assert verify_eg_equivalence(h, 0) is None


def test_eg_equivalence_random_3_uniform():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 8)
        edges = [list(e) for e in combinations(range(n), 3) if rng.random() < 0.2]
        h = Hypergraph(n, edges, arity=3)
        assert verify_eg_equivalence(h, 1) is None


def test_eg_equivalence_catalog_guard():
    tri = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], arity=2)
    with pytest.raises(CatalogError):
        verify_eg_equivalence(tri, 1)  # eta(2,2) is only an upper bound
    mixed = Hypergraph(4, [[0, 1], [1, 2, 3]])
    with pytest.raises(MalformedInputError):
        verify_eg_equivalence(mixed, 1)


@pytest.mark.parametrize("global_ok, want", [
    (True, (0, 1, 2, 3, 4, 5)),  # the first 6 vertices fail while h passes
    (False, tuple(range(8))),  # h fails while every 6 vertices pass
])
def test_eg_equivalence_returns_a_counterwitness(monkeypatch, global_ok, want):
    # the law holds for every exact catalog entry, so a cover search that
    # answers h itself one way and each induced subgraph the other stands in
    h = Hypergraph(8, [[0, 1, 2], [3, 4, 5], [5, 6, 7]], arity=3)
    monkeypatch.setattr("pqpierce.hypergraph._beta_at_most",
                        lambda edges, k: (edges is h.edges) == global_ok)
    assert verify_eg_equivalence(h, 1) == want


def test_eg_equivalence_stops_past_the_tuple_cap():
    # a 3-uniform star on 40 vertices: C(40, 6) = 3,838,380 subsets of
    # 6 vertices pass the cap, and the walk took 24 s before it was capped
    h = Hypergraph(40, [[0, i, i + 1] for i in range(1, 39)], arity=3)
    start = time.perf_counter()
    with pytest.raises(MalformedInputError, match="tuple cap"):
        verify_eg_equivalence(h, 1)
    assert time.perf_counter() - start < 1


def test_json_roundtrip_and_validation():
    h = Hypergraph(5, [[0, 1, 4], [1, 2, 3]])
    assert hypergraph_from_json(hypergraph_to_json(h)) == h
    with pytest.raises(MalformedInputError):
        hypergraph_from_json({"n": 3})
    with pytest.raises(MalformedInputError):
        hypergraph_from_json({"n": -1, "edges": []})
    with pytest.raises(MalformedInputError):
        hypergraph_from_json({"n": 3, "edges": [[0, 1.5]]})
    with pytest.raises(MalformedInputError):
        hypergraph_from_json({"n": True, "edges": []})
