"""Angle parameters of rational triangles, the obtuse search window, and
the known lattice families."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

ETA_LIMIT = Fraction(1, 6)

FAMILY_NONE = "none"
FAMILY_ONE = "family_one"
FAMILY_TWO = "family_two"
FAMILY_HOOPER = "hooper"


@dataclass(frozen=True)
class TriangleParams:
    """Angle numerators (p, q, r) over the common denominator n = p+q+r."""

    p: int
    q: int
    r: int
    n: int


@dataclass(frozen=True)
class TriangleClass:
    """Shape, hard-window membership, and known-family label.

    hard_window means the largest angle sits strictly above a right
    angle but no higher than two thirds of a straight angle; both ends
    are decided with exact integer comparisons.
    """

    shape: str  # "acute" | "right" | "obtuse"
    hard_window: bool
    family: str  # one of the FAMILY_* constants


def normalize(p: int, q: int, r: int) -> TriangleParams:
    """Divide (p, q, r) by their gcd and attach the denominator."""
    if min(p, q, r) < 1:
        raise ValueError(f"angle numerators must be positive, got {(p, q, r)}")
    g = gcd(p, q, r)
    p, q, r = p // g, q // g, r // g
    return TriangleParams(p, q, r, p + q + r)


def _as_eta(eta) -> Fraction:
    # floats are refused so the window cut stays an exact integer comparison
    if isinstance(eta, float):
        raise TypeError("eta must be exact: int, Fraction, or 'NUM/DEN' string")
    value = Fraction(eta)
    if value < 0 or value >= ETA_LIMIT:
        raise ValueError(f"eta must lie in [0, 1/6), got {value}")
    return value


def hard_window_pairs(n: int, eta: Fraction | str | int = 0) -> list[tuple[int, int]]:
    """All pairs (p, q) with p, q >= 1, p + q < n/2, gcd(p, q, n) = 1,
    ordered lexicographically.

    A positive eta = num/den further demands min(p, q) > eta * n; both
    loops start at the exact integer bound num * n // den + 1, so there is
    no boundary drift. For n in {3, 4} the list is naturally empty.
    """
    if n < 3:
        raise ValueError(f"hard_window_pairs needs n >= 3, got {n}")
    cut = _as_eta(eta)
    lo = cut.numerator * n // cut.denominator + 1
    pairs: list[tuple[int, int]] = []
    for p in range(lo, (n - 1) // 2 + 1):
        q_max = (n - 2 * p - 1) // 2
        if q_max < lo:
            break
        for q in range(lo, q_max + 1):
            if gcd(p, q, n) == 1:
                pairs.append((p, q))
    return pairs


def classify(t: TriangleParams) -> TriangleClass:
    """Shape, hard-window flag, and family of a lowest-terms triangle.

    Families are matched on the unordered angle multiset, so label order
    never matters: {1, 1, n-2} for n >= 5, {1, 2, n-3} for even n >= 8
    (the obtuse members of the second family), and the sporadic {1, 4, 7}.
    """
    angles = sorted((t.p, t.q, t.r))
    r_max = angles[-1]
    n = t.n
    if 2 * r_max > n:
        shape = "obtuse"
    elif 2 * r_max == n:
        shape = "right"
    else:
        shape = "acute"
    hard_window = 2 * r_max > n and 3 * r_max <= 2 * n
    family = FAMILY_NONE
    if angles == [1, 4, 7]:
        family = FAMILY_HOOPER
    elif angles[:2] == [1, 1] and n >= 5:
        family = FAMILY_ONE
    elif angles[:2] == [1, 2] and n % 2 == 0 and n >= 8:
        family = FAMILY_TWO
    return TriangleClass(shape, hard_window, family)
