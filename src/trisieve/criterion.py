"""The usable-unit obstruction: modular inequalities, the count S(p, q),
witness search in two modes, and a columnar bit-row sweep over all window
pairs of one denominator."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

import numpy as np

from .arith import unit_set
from .triangle import TriangleParams, hard_window_pairs

MODE_TWO_PQ = "two_pq"
MODE_TWO_OF_THREE = "two_of_three"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the obstruction test for one triangle: whether it is
    ruled out, by which (smallest) usable unit, and which of the p/q/r
    inequalities that unit satisfies."""

    triangle: TriangleParams
    ruled_out: bool
    witness: int | None
    inequalities_held: tuple[str, ...]
    s_count: int


def ineq_holds(a: int, x: int, n: int) -> bool:
    """True iff [a*x]_n < [2*x]_n, both least nonnegative residues."""
    if not 1 <= x < n:
        raise ValueError(f"x must lie in [1, n-1], got x={x}, n={n}")
    return (a * x) % n < (2 * x) % n


def count_S(p: int, q: int, n: int) -> int:
    """Number of units a mod n with 1 <= [a*p]_n <= 2p-1 and
    1 <= [a*q]_n <= 2q-1.

    Rejects pairs whose interval widths 2p-1, 2q-1 reach n: those do not
    come from obtuse triangles and the intervals would wrap.
    """
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got {(p, q)}")
    if 2 * p - 1 >= n or 2 * q - 1 >= n:
        raise ValueError(
            f"count_S needs 2p-1 < n and 2q-1 < n, got p={p}, q={q}, n={n}"
        )
    mp = 2 * p - 1
    mq = 2 * q - 1
    total = 0
    for a in unit_set(n).members:
        if 1 <= (a * p) % n <= mp and 1 <= (a * q) % n <= mq:
            total += 1
    return total


def find_witness(p: int, q: int, n: int, mode: str = MODE_TWO_PQ) -> WitnessReport:
    """Search the usable units in increasing order for an obstruction
    witness; the smallest qualifying unit is reported, which keeps the
    output deterministic and diff-stable.

    mode "two_pq" demands the p- and q-inequalities; "two_of_three"
    accepts any two of the p/q/r inequalities.
    """
    if mode not in (MODE_TWO_PQ, MODE_TWO_OF_THREE):
        raise ValueError(f"mode must be two_pq or two_of_three, got {mode!r}")
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got {(p, q)}")
    if 2 * (p + q) >= n:
        raise ValueError(
            f"obtuseness violated: need p + q < n/2, got p+q={p + q} with n={n}"
        )
    if gcd(p, q, n) != 1:
        raise ValueError(f"need gcd(p, q, n) = 1, got {(p, q, n)}")
    r = n - p - q
    witness: int | None = None
    held: tuple[str, ...] = ()
    for a in unit_set(n).usable:
        hp = ineq_holds(a, p, n)
        hq = ineq_holds(a, q, n)
        if mode == MODE_TWO_PQ:
            if not (hp and hq):
                continue
            hr = ineq_holds(a, r, n)
        else:
            hr = ineq_holds(a, r, n)
            if hp + hq + hr < 2:
                continue
        witness = a
        held = tuple(tag for tag, flag in (("p", hp), ("q", hq), ("r", hr)) if flag)
        break
    triangle = TriangleParams(p, q, r, n)
    return WitnessReport(triangle, witness is not None, witness, held, count_S(p, q, n))


def _word_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row x (1 <= x < n) of an n x ceil(n/64) uint64 array has bit a set
    iff a is a unit mod n with [a*x]_n < [2*x]_n; row 0 is empty. Also
    returns the row of usable units. Only ANDs, ORs and popcounts read the
    rows, so the byte order inside a word does not matter."""
    units = unit_set(n)
    u = np.asarray(units.members, dtype=np.int64)
    width = 64 * -(-n // 64)
    rows = np.zeros((n, width // 64), dtype=np.uint64)
    block = max(1, (1 << 21) // width)  # about 2**21 dense cells per block
    for lo in range(1, n, block):
        xs = np.arange(lo, min(lo + block, n), dtype=np.int64)
        dense = np.zeros((xs.size, width), dtype=bool)
        dense[:, u] = (xs[:, None] * u[None, :]) % n < ((2 * xs) % n)[:, None]
        packed = np.packbits(dense, axis=1, bitorder="little")
        rows[lo : lo + xs.size] = packed.view(np.uint64)
    usable = np.zeros(width, dtype=bool)
    usable[list(units.usable)] = True
    return rows, np.packbits(usable, bitorder="little").view(np.uint64)


def sweep_window(n: int, eta=0) -> np.ndarray:
    """Verdicts for both modes plus S(p, q), for every window pair of n.

    Returns a numpy structured array with fields p, q, s_count,
    ruled_two_pq and ruled_two_of_three, one row per pair of
    hard_window_pairs(n, eta) in its lexicographic order. Unit-major: the
    per-x bit rows are built once, then each pair costs a few word-wise
    ANDs, ORs and popcounts instead of a loop over units.
    """
    if n < 5:
        raise ValueError(f"sweep_window needs n >= 5, got {n}")
    pairs = chain.from_iterable(hard_window_pairs(n, eta))
    pairs = np.fromiter(pairs, dtype=np.int64).reshape(-1, 2)
    rows, usable = _word_rows(n)
    columns = [("p", "i8"), ("q", "i8"), ("s_count", "i8")]
    columns += [("ruled_two_pq", "?"), ("ruled_two_of_three", "?")]
    table = np.zeros(len(pairs), dtype=columns)
    table["p"], table["q"] = pairs.T
    chunk = max(1, (1 << 16) // rows.shape[1])  # about 2**16 words per operand
    for lo in range(0, len(table), chunk):
        part = table[lo : lo + chunk]
        p, q = part["p"], part["q"]
        row_p, row_q, row_r = rows[p], rows[q], rows[n - p - q]
        both = row_p & row_q
        # bitwise majority: the units meeting at least two of the three
        two_of_three = both | (row_p | row_q) & row_r
        part["s_count"] = np.bitwise_count(both).sum(axis=1)
        part["ruled_two_pq"] = (both & usable).any(axis=1)
        part["ruled_two_of_three"] = (two_of_three & usable).any(axis=1)
    return table

