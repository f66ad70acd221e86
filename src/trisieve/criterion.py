"""The usable-unit obstruction: modular inequalities, the count S(p, q),
witness search in two modes, and a columnar bit-row sweep over all window
pairs of one denominator, in blocks of one p each."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

import numpy as np

from .arith import unit_set
from .triangle import _window_lo
from .triangle import hard_window_pairs  # noqa: F401  unused; perfbench/spans.py rebinds it

MODE_TWO_PQ = "two_pq"
MODE_TWO_OF_THREE = "two_of_three"


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the obstruction search for one triangle: whether it is
    ruled out, by which (smallest) usable unit, and which two of the p/q/r
    inequalities that unit meets: ("p", "q"), ("p", "r") or ("q", "r").
    No unit meets all three (see find_witness). S(p, q) is count_S's."""

    ruled_out: bool
    witness: int | None
    inequalities_held: tuple[str, ...]


def ineq_holds(a: int, x: int, n: int) -> bool:
    """True iff [a*x]_n < [2*x]_n, both least nonnegative residues."""
    if not 1 <= x < n:
        raise ValueError(f"x must lie in [1, n-1], got x={x}, n={n}")
    return (a * x) % n < (2 * x) % n


def count_S(p: int, q: int, n: int) -> int:
    """Number of units a mod n with 1 <= [a*p]_n <= 2p-1 and
    1 <= [a*q]_n <= 2q-1. The lower bounds hold for every unit: with
    0 < p, q < n, a*p and a*q are never 0 mod n.

    Rejects pairs whose interval widths 2p-1, 2q-1 reach n: those do not
    come from obtuse triangles and the intervals would wrap.
    """
    if p < 1 or q < 1:
        raise ValueError(f"p and q must be positive, got {(p, q)}")
    if 2 * p - 1 >= n or 2 * q - 1 >= n:
        raise ValueError(
            f"count_S needs 2p-1 < n and 2q-1 < n, got p={p}, q={q}, n={n}"
        )
    two_p, two_q = 2 * p, 2 * q
    total = 0
    for a in unit_set(n).members:
        if (a * p) % n < two_p and (a * q) % n < two_q:
            total += 1
    return total


def find_witness(p: int, q: int, n: int, mode: str = MODE_TWO_PQ) -> WitnessReport:
    """Search the usable units in increasing order for an obstruction
    witness; the smallest qualifying unit is reported, which keeps the
    output deterministic and diff-stable.

    mode "two_pq" demands the p- and q-inequalities; "two_of_three"
    accepts any two of the p/q/r inequalities. A witness meets exactly
    two: with A = [a*p]_n, B = [a*q]_n, C = [a*r]_n, the p- and
    q-inequalities give A + B < 2(p + q) < n, so C = n - A - B exceeds
    [2r]_n = 2r - n; likewise r and p force q to fail, and r and q force
    p to fail. S(p, q) is count_S's pass.
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
    # p, q < n/2 < r = n - p - q, so [2p]_n = 2p, [2q]_n = 2q, [2r]_n = 2r - n
    r = n - p - q
    two_p, two_q, two_r = 2 * p, 2 * q, 2 * r - n
    use_r = mode == MODE_TWO_OF_THREE
    for a in unit_set(n).usable:
        hp = (a * p) % n < two_p
        hq = (a * q) % n < two_q
        if hp and hq:
            return WitnessReport(True, a, ("p", "q"))
        # r makes a pair with exactly one of p and q, never with neither
        if use_r and hp != hq and (a * r) % n < two_r:
            return WitnessReport(True, a, ("p", "r") if hp else ("q", "r"))
    return WitnessReport(False, None, ())


def _word_rows(n: int, lo: int) -> np.ndarray:
    """Column x (lo <= x <= n - 2*lo) of a ceil(|usable|/64) x n uint64
    array has bit i set iff the i-th usable unit u_i of unit_set(n).usable
    meets [u_i*x]_n < [2*x]_n; the other columns, which no window pair with
    p, q >= lo reads, stay empty. Word-major, so a run of columns is one
    contiguous slice per word row; only ANDs, ORs and popcounts read them,
    so neither the unit order nor the byte order inside a word matters.
    Residues are taken for x < n/2 only, 2**17 at a time, int32 while n*n
    fits, in buffers reused across blocks; column n - x (x >= 2*lo) comes
    from the same block, as [u*(n - x)]_n = n - [u*x]_n and [2*(n - x)]_n =
    n - 2x: u meets n - x iff [u*x]_n > 2x. At even n, column n/2 is never
    built; no unit meets it, as u*n/2 = n/2 mod n."""
    u = np.asarray(unit_set(n).usable, dtype=np.int32 if n * n < 2**31 else np.int64)
    cols = np.zeros((-(-u.size // 64), n), dtype=np.uint64)
    block = max(1, (1 << 17) // u.size)
    residues, quotients = np.empty((2, block, u.size), dtype=u.dtype)
    meets = np.empty((block, u.size), dtype=bool)
    packed = np.zeros((block, cols.shape[0]), dtype=np.uint64)

    def put(columns, bits):
        words = packed[: bits.shape[0]]
        words.view(np.uint8)[:, : -(-u.size // 8)] = np.packbits(bits, axis=1, bitorder="little")
        cols[:, columns] = words.T

    top = min((n - 1) // 2, n - 2 * lo)  # columns past n - 2*lo stay empty
    for first in range(lo, top + 1, block):
        xs = np.arange(first, min(first + block, top + 1), dtype=u.dtype)
        r, quot, two_x = residues[: xs.size], quotients[: xs.size], (2 * xs)[:, None]
        np.multiply.outer(xs, u, out=r)
        r -= np.multiply(np.floor_divide(r, n, out=quot), n, out=quot)  # 3x faster than %=
        put(slice(first, first + xs.size), np.less(r, two_x, out=meets[: xs.size]))
        m = max(0, 2 * lo - first)  # n - x <= n - 2*lo
        put(n - xs[m:], np.greater(r[m:], two_x[m:], out=meets[m : xs.size]))
    return cols


def _half_window(
    n: int, lo: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The pair kernel, one block per p = x with lo <= x and 4x < n.

    Yields x and the q, s_count, ruled_two_pq and ruled_two_of_three
    columns of the window pairs (x, q) with x <= q <= (n - 2x - 1) // 2
    and gcd(x, q, n) = 1, in ascending q. Every verdict column is symmetric
    in p and q (r = n - p - q is too), so these blocks decide every window
    pair. Unit-major: the word-major bit columns are built once, then a
    block ANDs columns x .. q_hi with column x, popcounts the words and
    sums them over the word rows, each a contiguous slice; the uint32 hits
    cannot overflow, as they stay below |usable| < n.
    A unit meeting p and q already meets two of three, so the r-columns are
    read only for the open pairs, those with no such unit: one to two
    percent of them at n near 2000, but every pair of the x = 1 block,
    since column 1 is empty (no usable u has [u]_n < 2).
    The columns hold usable units only; the other units add one to S and
    no verdict: unit 1 meets the p- and q-inequalities ([p]_n = p < 2p),
    and 1 + n/2, a unit when 4 | n, meets the x-inequality for even x
    only, which gcd(p, q, n) = 1 forbids for p and q together.
    """
    cols = _word_rows(n, lo)
    for x in range(lo, (n - 1) // 4 + 1):  # p <= q and p + q < n/2 need 4p < n
        q_hi = (n - 2 * x - 1) // 2
        col_x = cols[:, x, None]
        hits = np.bitwise_count(cols[:, x : q_hi + 1] & col_x).sum(axis=0, dtype=np.uint32)
        two_of_three = hits > 0
        # an open pair i is q = x + i, r = n - x - q = n - 2x - i; a usable
        # unit meeting r and p or q rules it out. Open pairs go in chunks of
        # half a block, so the gathered q- and r-columns never pass one block.
        # take gathers C-ordered copies: with the F-ordered ones of
        # cols[:, i], peak RSS at n = 8009 read 46.9 MB, not 44.0
        open_pairs = np.flatnonzero(hits == 0)
        chunk = -(-hits.size // 2)
        for start in range(0, open_pairs.size, chunk):
            i = open_pairs[start : start + chunk]
            two_of_three[i] = (
                (cols.take(x + i, axis=1) | col_x) & cols.take(n - 2 * x - i, axis=1)
            ).any(axis=0)
        q = np.arange(x, q_hi + 1)
        keep = slice(None) if gcd(x, n) == 1 else np.gcd(q, gcd(x, n)) == 1
        yield x, q[keep], hits[keep] + np.int64(1), hits[keep] > 0, two_of_three[keep]


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
