"""Exact scalar arithmetic: nonnegative rationals extended with infinity.

Scalars are either ``fractions.Fraction`` values >= 0 or the singleton
``INF``.  Multiplication by zero absorbs infinity (``INF * 0 == 0``), which
is what makes excluded generators weightless in the membership LP.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class Infinity:
    """Singleton top element of the scalar rig."""

    _instance = None
    __slots__ = ()

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("preloss.Infinity")

    def __add__(self, other):
        scalar(other)
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Infinity):
            return self
        other = scalar(other)
        if other == 0:
            return Fraction(0)
        return self

    __rmul__ = __mul__

    def __lt__(self, other):
        scalar(other)
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity) and scalar(other) is not None

    def __ge__(self, other):
        scalar(other)
        return True


INF = Infinity()

Scalar = Union[Fraction, Infinity]

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value) -> Scalar:
    """Coerce ints, Fractions, strings ('p/q' or 'inf') and INF to a Scalar.

    Floats are refused: a float such as 0.1 is a binary fraction, not the
    rational it prints as.
    """
    if isinstance(value, Infinity):
        return INF
    if isinstance(value, float):
        raise ValueError(f"scalars must be exact, got the float {value!r}")
    if isinstance(value, str) and value.strip() == "inf":
        return INF
    result = Fraction(value)
    if result < 0:
        raise ValueError(f"scalars must be nonnegative, got {result}")
    return result


def fmt_scalar(value: Scalar) -> str:
    if value is INF:
        return "inf"
    return str(value)


def sort_key(value: Scalar):
    """Key giving the rig's total order (usable inside tuples)."""
    if value is INF:
        return (1, Fraction(0))
    return (0, value)
