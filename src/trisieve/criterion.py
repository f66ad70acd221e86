"""The usable-unit obstruction: modular inequalities, the count S(p, q),
witness search in two modes, and a columnar bit-row sweep over all window
pairs of one denominator, in blocks of one p each."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

import numpy as np

from .arith import unit_set
from .triangle import TriangleParams, _window_lo
from .triangle import hard_window_pairs  # noqa: F401  unused; perfbench/spans.py rebinds it

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


def _word_rows(n: int, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Row x (lo <= x <= n - 2*lo) of an n x ceil(phi(n)/64) uint64 array
    has bit i set iff the i-th unit u_i of unit_set(n).members meets
    [u_i*x]_n < [2*x]_n; the other rows, which no window pair with
    p, q >= lo reads, stay empty. Also returns the row of usable units in
    the same bit order. Only ANDs, ORs and popcounts read the rows, so
    neither the unit order nor the byte order inside a word matters."""
    units = unit_set(n)
    u = np.asarray(units.members, dtype=np.int64)
    rows = np.zeros((n, -(-u.size // 64)), dtype=np.uint64)
    block = max(1, (1 << 18) // n)  # at most 2**18 residues per block
    for first in range(lo, n - 2 * lo + 1, block):
        xs = np.arange(first, min(first + block, n - 2 * lo + 1), dtype=np.int64)
        residues = np.multiply.outer(xs, u)
        residues %= n  # in place: a fresh int64 block here took twice as long
        below = residues < ((2 * xs) % n)[:, None]
        del residues  # else the next block is made while this one is alive
        packed = np.packbits(below, axis=1, bitorder="little")
        rows.view(np.uint8)[first : first + xs.size, : packed.shape[1]] = packed
    usable = np.zeros(64 * rows.shape[1], dtype=bool)
    usable[: u.size] = np.isin(u, units.usable)
    return rows, np.packbits(usable, bitorder="little").view(np.uint64)


def _half_window(
    n: int, lo: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The pair kernel, one block per p = x with lo <= x and 4x < n.

    Yields x and the q, s_count, ruled_two_pq and ruled_two_of_three
    columns of the window pairs (x, q) with x <= q <= (n - 2x - 1) // 2
    and gcd(x, q, n) = 1, in ascending q. Every verdict column is symmetric
    in p and q (r = n - p - q is too), so these blocks decide every window
    pair. Unit-major: the bit rows are built once, then each pair costs a
    few word-wise ANDs, ORs and popcounts over contiguous slices of the rows.
    """
    rows, usable = _word_rows(n, lo)
    for x in range(lo, (n - 1) // 4 + 1):  # p <= q and p + q < n/2 need 4p < n
        q_hi = (n - 2 * x - 1) // 2
        # the rows q = x .. q_hi and, in the same order, r = n - x - q
        row_q = rows[x : q_hi + 1]
        row_r = rows[n - x - q_hi : n - 2 * x + 1][::-1]
        both = row_q & rows[x]
        # bitwise majority: the units meeting at least two of the three
        two_of_three = both | (row_q | rows[x]) & row_r
        q = np.arange(x, q_hi + 1)
        keep = np.gcd(q, gcd(x, n)) == 1
        yield (
            x,
            q[keep],
            np.bitwise_count(both).sum(axis=1)[keep],
            (both & usable).any(axis=1)[keep],
            (two_of_three & usable).any(axis=1)[keep],
        )


def sweep_window(n: int, eta=0) -> np.ndarray:
    """Verdicts for both modes plus S(p, q), for every window pair of n.

    Returns a numpy structured array with fields p, q, s_count,
    ruled_two_pq and ruled_two_of_three, one row per pair of
    hard_window_pairs(n, eta) in its lexicographic order: the _half_window
    rows, plus each row with p < q again with p and q swapped.
    """
    if n < 5:
        raise ValueError(f"sweep_window needs n >= 5, got {n}")
    columns = [("p", "i8"), ("q", "i8"), ("s_count", "i8")]
    columns += [("ruled_two_pq", "?"), ("ruled_two_of_three", "?")]
    blocks = [np.zeros(0, dtype=columns)]  # an eta cut can leave no pair
    for x, q, s_count, ruled_pq, ruled_23 in _half_window(n, _window_lo(n, eta)):
        block = np.zeros(q.size, dtype=columns)
        block["p"], block["q"], block["s_count"] = x, q, s_count
        block["ruled_two_pq"], block["ruled_two_of_three"] = ruled_pq, ruled_23
        blocks.append(block)
    half = np.concatenate(blocks)
    upper = half["p"] < half["q"]
    mirror = half[upper]
    mirror["p"], mirror["q"] = half["q"][upper], half["p"][upper]
    table = np.concatenate([half, mirror])
    return table[np.lexsort((table["q"], table["p"]))]
