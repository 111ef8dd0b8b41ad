"""Exact rational scalars, points, and matrices.

Everything in this package computes over Python Fractions: arbitrary
precision, automatically normalized, no floating point anywhere. Points
are plain tuples of Fractions so they hash, compare, and serialize
without ceremony.
"""
from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import MalformedInputError

Point = tuple[Fraction, ...]
Matrix = tuple[Point, ...]

RatLike = Union[int, str, Fraction]

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def rat(value: RatLike) -> Fraction:
    """Parse one exact rational: an int, a Fraction, or 'p' / 'p/q' text.

    Floats are rejected outright (nothing in this package tolerates
    rounding), as is a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MalformedInputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RAT_RE.match(text):
            raise MalformedInputError(f"not a rational literal: {value!r}")
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise MalformedInputError(f"rational literal of {len(text)} characters is too long") from None
        if den == 0:
            raise MalformedInputError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise MalformedInputError(f"not a rational: {value!r}")


def rat_str(value: Fraction) -> Union[int, str]:
    """Serialize a Fraction: bare int when integral, 'p/q' text otherwise."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def to_json(x):
    """The JSON form of a value: a Fraction by rat_str, a tuple or list
    as a list, a dict with str keys, a dataclass as its fields in field
    order; anything else as it is."""
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, (tuple, list)):
        return [to_json(v) for v in x]
    if isinstance(x, dict):
        return {str(k): to_json(v) for k, v in x.items()}
    if is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in fields(x)}
    return x


def point(values: Iterable[RatLike]) -> Point:
    if isinstance(values, str):  # iterating would read "12" as (1, 2)
        raise MalformedInputError(f"not a coordinate sequence: {values!r}")
    return tuple(rat(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise MalformedInputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    total = Fraction(0)
    for a, b in zip(u, v):
        total += a * b
    return total


def is_zero(u: Point) -> bool:
    return all(a == 0 for a in u)


def mat_vec(m: Matrix, x: Point) -> Point:
    """m @ x for a row-major matrix."""
    return tuple(dot(row, x) for row in m)


def vec_mat(x: Point, m: Matrix) -> Point:
    """x @ m (row vector times row-major matrix)."""
    if len(m) != len(x):
        raise MalformedInputError("dimension mismatch in vec_mat")
    cols = len(m[0]) if m else 0
    return tuple(
        sum((x[i] * m[i][j] for i in range(len(x))), Fraction(0))
        for j in range(cols)
    )
