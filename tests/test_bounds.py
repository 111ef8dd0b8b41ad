"""Constant catalog: formula values, lookup priorities, provenance audit."""
import pytest

from pqpierce.bounds import (
    EXACT,
    UPPER,
    catalog_entries,
    catalog_lookup,
    eta_tuza_bound,
)
from pqpierce.errors import MalformedInputError
from pqpierce.rational import to_json


def test_tuza_formula():
    assert eta_tuza_bound(3, 3) == 15
    assert eta_tuza_bound(3, 2) == 8
    assert eta_tuza_bound(2, 2) == 4
    with pytest.raises(MalformedInputError):
        eta_tuza_bound(1, 2)
    with pytest.raises(MalformedInputError):
        eta_tuza_bound(3, 0)


def test_xi_line_is_exact():
    for p, q in [(2, 2), (3, 2), (5, 4), (9, 3), (11, 11)]:
        e = catalog_lookup("xi", (p, q, 1))
        assert e is not None and e.kind == EXACT and e.value == p - q + 1
    assert catalog_lookup("xi", (3, 1, 1)) is None  # needs q >= 2
    assert catalog_lookup("xi", (2, 3, 1)) is None  # needs p >= q


def test_xi_plane_upper_bound():
    e = catalog_lookup("xi", (4, 3, 2))
    assert e is not None and e.value == 13 and e.kind == UPPER


def test_xi_miss_is_none():
    assert catalog_lookup("xi", (7, 6, 2)) is None
    assert catalog_lookup("nosuch", (1, 2)) is None


def test_eta_lookup_priorities():
    exact = catalog_lookup("eta", (3, 2))
    assert exact is not None and exact.value == 6 and exact.kind == EXACT
    assert catalog_lookup("eta", (3, 3)).value == 15
    # quadratic 2-critical bound beats the binomial formula for lam = 4
    assert catalog_lookup("eta", (4, 2)).value == 9
    assert catalog_lookup("eta", (5, 2)).value == 12
    assert catalog_lookup("eta", (3, 1)).kind == EXACT
    assert catalog_lookup("eta", (3, 1)).value == 3


def test_bullet_bounds_present():
    assert catalog_lookup("pi_bullet", (6, 5, 2, 2)).value == 2
    assert catalog_lookup("pi_bullet", (9, 8, 3, 2)).value == 2
    assert catalog_lookup("pi_bullet", (15, 13, 2, 3)).value == 3
    assert catalog_lookup("pi_bullet", (5, 4, 2, 2)).value == 28


def test_provenance_audit():
    import re
    for e in catalog_entries():
        assert len(e.provenance) >= 25
        assert re.search(r"\d{4}|definition", e.provenance)
        assert "§" not in e.provenance
    # rule-generated entries carry provenance too
    for probe in [("xi", (6, 2, 1)), ("eta", (4, 2)), ("eta", (6, 4)), ("eta", (2, 1))]:
        e = catalog_lookup(*probe)
        assert e is not None and len(e.provenance) >= 25


def test_args_validated():
    with pytest.raises(MalformedInputError):
        catalog_lookup("xi", (4, 3, True))
    with pytest.raises(MalformedInputError):
        catalog_lookup("eta", (3.0, 2))


def test_entry_json():
    e = catalog_lookup("eta", (3, 2))
    j = to_json(e)
    assert j["value"] == 6 and j["kind"] == EXACT and j["args"] == [3, 2]
