"""Catalog of known piercing and transversal constants.

Every entry carries a provenance citation; lookups never invent values.
xi(p, q, d) is the optimal piercing bound for finite families with the
(p, q)-property in R^d. eta(lam, k) is the largest vertex count of a
k-critical lam-uniform hypergraph, the quantity driving the
local-to-global transversal argument.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .errors import MalformedInputError

EXACT = "exact"
UPPER = "upper-bound"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    args: tuple[int, ...]
    value: int
    kind: str
    provenance: str


def _check_printable(bits: int) -> None:
    """Reject a bound below 2**bits before computing it when it could
    pass the digits an int may print (sys.get_int_max_str_digits()):
    such a bound could not be written out, and computing it can take
    minutes. A number below 2**(3D) has at most D digits, as 8**D < 10**D."""
    digits = sys.get_int_max_str_digits()
    if digits and bits > 3 * digits:
        raise MalformedInputError(f"the bound could have more than {digits} digits")


def eta_tuza_bound(lam: int, k: int) -> int:
    """Binomial upper bound for eta(lam, k):
    C(lam+k-1, lam-1) + C(lam+k-2, lam-1) - 1."""
    if lam < 2 or k < 1:
        raise MalformedInputError("need lam >= 2 and k >= 1")
    # both terms are at most C(n, r) <= n**r, with n = lam+k-1 and r = min(lam-1, k)
    _check_printable(min(lam - 1, k) * (lam + k - 1).bit_length() + 1)
    return comb(lam + k - 1, lam - 1) + comb(lam + k - 2, lam - 1) - 1


_PROV_HD = "Hadwiger and Debrunner 1957; exact piercing of interval families on the line"
_PROV_KGT = (
    "Kleitman, Gyarfas and Toth 2001; piercing planar convex families in which"
    " any four members include three with a common point"
)
_PROV_ETA32 = (
    "exact maximum size of a 2-critical 3-uniform hypergraph;"
    " Erdos and Gallai 1961 lineage, see the Tuza 1989 survey"
)
_PROV_TUZA = "Tuza 1989; binomial bound for k-critical lam-uniform hypergraphs"
_PROV_EG2 = (
    "Erdos and Gallai 1961; quadratic bound floor((lam+2)^2/4) for"
    " 2-critical lam-uniform hypergraphs"
)

_EXPLICIT: tuple[CatalogEntry, ...] = (
    CatalogEntry("xi", (4, 3, 2), 13, UPPER, _PROV_KGT),
    CatalogEntry("eta", (3, 2), 6, EXACT, _PROV_ETA32),
    CatalogEntry("eta", (3, 3), 15, UPPER, _PROV_TUZA),
    CatalogEntry(
        "pi_bullet", (6, 5, 2, 2), 2, UPPER,
        "planar (6,5)-property with two bounded members; transversal route"
        " through eta(3,2)=6 (Erdos and Gallai 1961)",
    ),
    CatalogEntry(
        "pi_bullet", (9, 8, 3, 2), 2, UPPER,
        "(9,8)-property in R^3 with two bounded members; transversal route"
        " through eta(4,2)<=9 (Erdos and Gallai 1961)",
    ),
    CatalogEntry(
        "pi_bullet", (15, 13, 2, 3), 3, UPPER,
        "(15,13)-property with three bounded members; transversal route"
        " through eta(3,3)<=15 (Tuza 1989)",
    ),
    CatalogEntry(
        "pi_bullet", (5, 4, 2, 2), 28, UPPER,
        "planar (5,4)-property with two bounded members; free-pair reduction"
        " composed with the planar (4,3) constant 13"
        " (Kleitman, Gyarfas and Toth 2001)",
    ),
)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All explicit entries, for provenance audits."""
    return _EXPLICIT


def _validated_args(args: Sequence[int]) -> tuple[int, ...]:
    out = []
    for a in args:
        if not isinstance(a, int) or isinstance(a, bool):
            raise MalformedInputError("catalog args must be integers")
        out.append(a)
    return tuple(out)


def catalog_lookup(name: str, args: Sequence[int]) -> Optional[CatalogEntry]:
    """Best known entry for (name, args): an exact value if one is known,
    otherwise the least available upper bound. None on a miss."""
    key = _validated_args(args)
    exact = [e for e in _EXPLICIT if e.name == name and e.args == key and e.kind == EXACT]
    if exact:
        return exact[0]

    if name == "xi" and len(key) == 3:
        p, q, d = key
        if d == 1 and p >= q >= 2:
            return CatalogEntry("xi", key, p - q + 1, EXACT, _PROV_HD)
    if name == "eta" and len(key) == 2 and key[1] == 1 and key[0] >= 2:
        return CatalogEntry(
            "eta", key, key[0], EXACT,
            "a 1-critical uniform hypergraph is a single edge;"
            " exact by definition",
        )

    uppers = [e for e in _EXPLICIT if e.name == name and e.args == key]
    if name == "eta" and len(key) == 2:
        lam, k = key
        if lam >= 2 and k >= 1:
            uppers.append(
                CatalogEntry("eta", key, eta_tuza_bound(lam, k), UPPER, _PROV_TUZA)
            )
        if lam >= 2 and k == 2:
            _check_printable(2 * (lam + 2).bit_length())
            uppers.append(
                CatalogEntry("eta", key, (lam + 2) ** 2 // 4, UPPER, _PROV_EG2)
            )
    if uppers:
        return min(uppers, key=lambda e: e.value)
    return None
