"""Per-denominator density statistics and CSV emission.

A survey runs the batch obstruction sweep for each denominator, tallies
how many window pairs are ruled out under each mode as the sweep's blocks
arrive, and writes one CSV row per denominator so the vanishing proportion
of survivors can be tabulated and plotted downstream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from math import ceil, floor, gcd, log
from typing import Iterable, Iterator, TextIO

import numpy as np

from .arith import factor_profile, is_prime
from .criterion import _half_window
from .criterion import sweep_window  # noqa: F401  unused; perfbench/spans.py rebinds it
from .fourier import exceptional_set
from .triangle import _window_lo

CSV_HEADER = (
    "n,p_plus,omega_plus,h_size,ruled_two_pq,ruled_two_of_three,"
    "s_ge5,in_C,q_div_P,frac_ruled"
)

FILTERS = ("all", "primes", "omega_plus")


@dataclass(frozen=True)
class SurveyRecord:
    """Aggregate counts for one denominator. frac_ruled is the ruled
    fraction under the two-of-three mode. e_n (the size of the
    exceptional-pair region) is only filled by deep audits and never
    enters the CSV schema."""

    n: int
    p_plus: int
    omega_plus: bool | None
    h_size: int
    ruled_two_pq: int
    ruled_two_of_three: int
    s_ge5: int
    in_C: int
    q_div_P: int
    frac_ruled: float
    e_n: int | None = None


def omega_plus_member(n: int) -> bool | None:
    """Whether the largest prime factor of n reaches n**(1/log log n).

    Returns None for 2 <= n < 16: below e**e the exponent formula has no
    honest value, so no flag is fabricated there.
    """
    if n < 2:
        raise ValueError(f"omega_plus_member needs n >= 2, got {n}")
    if n < 16:
        return None
    return factor_profile(n).largest_prime >= n ** (1.0 / log(log(n)))


def in_region_C(n: int, p, q):
    """Whether (2p-1)(2q-1) <= n**(2 - 1/(2 log log n)), the region where
    the main term is too small to dominate. Exact integer left side
    against a double-precision right side; rejects n < 16. On int64 arrays
    p, q it is elementwise and as exact: the products stay below (2n)**2."""
    if n < 16:
        raise ValueError(f"in_region_C needs n >= 16, got {n}")
    return (2 * p - 1) * (2 * q - 1) <= n ** (2.0 - 1.0 / (2.0 * log(log(n))))


def _region_c_count(n: int, x: int, q: np.ndarray) -> int:
    """np.count_nonzero(in_region_C(n, x, q)) for an ascending q, 0 for
    n < 16. With B the floor of the bound, the integer (2x - 1)(2q - 1) is
    at most the bound iff 2q - 1 <= B // (2x - 1), or q <= (B // (2x - 1)
    + 1) // 2: region C is a prefix of the block, counted in exact integers."""
    b = floor(n ** (2.0 - 1.0 / (2.0 * log(log(n))))) if n >= 16 else 0
    return int(q.searchsorted((b // (2 * x - 1) + 1) // 2, "right"))


def survey_n(n: int, eta=0, deep_audit: bool = False) -> SurveyRecord:
    """Tally the window pairs of sweep_window(n, eta) into a SurveyRecord
    of Python ints and floats, one half-window block at a time; the pair
    table is never built, but the kernel's bit columns take about n**2 / 8
    bytes (0.5 MB at n = 2003, 50 MB at n = 20011). Building them reuses
    two integer buffers of 2**17 residues, 1 MB together while residues
    are int32, and a bool buffer. Beyond the columns a block holds one
    block-wide temporary, for its p-and-q popcounts, and then the q- and
    r-columns of its open pairs, half a block of each at most. Region C is
    a prefix length per block, and only the blocks that reach P, none at
    prime n, take a block-wide remainder for q_div_P.

    Both criterion modes are always tallied. With deep_audit=True the size
    of the excluded pair region rides along as e_n: the q_div_P pairs with
    P | p, by symmetry, plus the p in each q's exceptional classes. The
    audit's R is fixed at ceil(log n) and is not a parameter.
    For n < 16 the region-C count is reported as 0 (the defining formula
    has no value there, so the region is treated as empty).
    """
    if n < 5:
        raise ValueError(f"survey_n needs n >= 5, got {n}")
    lo = _window_lo(n, eta)
    p_plus = factor_profile(n).largest_prime
    # h_size, ruled_pq, ruled_23, s_ge5 and in_C over the half window and
    # over its diagonal pairs (x, x): a pair x < q is two table rows, (x, q)
    # and (q, x), so each total is twice the first count less the second
    half, diagonal = np.zeros((2, 5), dtype=np.int64)
    q_div_P = 0
    for x, q, s_count, two_pq, two_of_three in _half_window(n, lo):
        flags = (two_pq, two_of_three, s_count >= 5)
        in_c = _region_c_count(n, x, q)
        half += (q.size, *map(np.count_nonzero, flags), in_c)
        if q.size and q[0] == x:
            diagonal += (1, *[flag[0] for flag in flags], in_c > 0)
        # q_div_P reads the q column, the one column not symmetric in p, q;
        # a block below P, as every block is at prime n, has no multiple of P
        if q.size and q[-1] >= p_plus:
            q_div_P += np.count_nonzero(q % p_plus == 0)
        if x % p_plus == 0:  # then gcd(x, n) >= P, so (x, x) is not kept
            q_div_P += q.size
    h_size, ruled_pq, ruled_23, s_ge5, in_c = (2 * half - diagonal).tolist()
    return SurveyRecord(
        n,
        p_plus,
        omega_plus_member(n),
        h_size,
        ruled_pq,
        ruled_23,
        s_ge5,
        in_c,
        int(q_div_P),
        ruled_23 / h_size if h_size else 0.0,
        _exceptional_pairs(n, lo, int(q_div_P)) if deep_audit else None,
    )


def _exceptional_pairs(n: int, lo: int, q_div_P: int) -> int:
    """Size of the exceptional pair region: the window pairs (p, q) with
    p, q >= lo and gcd(q, P) = 1 whose p has P | p or p mod d in a member
    class of q at R = ceil(log n) >= 2. No window pair has P | p and P | q,
    as gcd(p, q, n) would reach P, so by p <-> q symmetry the P | p pairs
    number q_div_P; member classes are units mod d, so q adds its p in them."""
    P = factor_profile(n).largest_prime
    R = ceil(log(n))
    count = q_div_P
    for q in range(lo, (n - 2 * lo - 1) // 2 + 1):
        if q % P == 0:
            continue
        exc = exceptional_set(n, q, R)
        if exc.members:
            p = np.arange(lo, (n - 2 * q - 1) // 2 + 1)
            p = p[np.gcd(p, gcd(q, n)) == 1]
            count += int(np.isin(p % exc.d, list(exc.members)).sum())
    return count


def _admits(filter: str, n: int) -> bool:
    if filter == "all":
        return True
    if filter == "primes":
        return is_prime(n)
    return omega_plus_member(n) is True


def survey_range(
    n_min: int,
    n_max: int,
    filter: str = "all",
    eta=0,
    deep_audit: bool = False,
    workers: int = 1,
) -> Iterator[SurveyRecord]:
    """SurveyRecords for the admissible n in [n_min, n_max], ascending.

    filter "all" admits every n, "primes" the primes, "omega_plus" the
    denominators whose largest prime factor clears the n**(1/log log n)
    threshold. Deep audits fix R at ceil(log n), as survey_n does; it is
    not a parameter. With workers > 1 the denominators are distributed
    across at most min(workers, number of denominators, CPUs the process
    may run on) processes; output order and content do not depend on workers.
    """
    if not 5 <= n_min <= n_max:
        raise ValueError(f"need 5 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if filter not in FILTERS:
        raise ValueError(f"filter must be one of {FILTERS}, got {filter!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ns = [n for n in range(n_min, n_max + 1) if _admits(filter, n)]
    job = partial(survey_n, eta=eta, deep_audit=deep_audit)
    # the CPUs this process may run on, not all the machine has
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(workers, len(ns), cpus or 1)
    if pool_size <= 1:
        for n in ns:
            yield job(n)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads it
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            yield from pool.map(job, ns)


def record_row(record: SurveyRecord) -> str:
    """One CSV line (no trailing newline) in the fixed schema; omega_plus
    serializes as true/false/na, frac_ruled with 6 decimal digits."""
    if record.omega_plus is None:
        omega = "na"
    else:
        omega = "true" if record.omega_plus else "false"
    return (
        f"{record.n},{record.p_plus},{omega},{record.h_size},"
        f"{record.ruled_two_pq},{record.ruled_two_of_three},{record.s_ge5},"
        f"{record.in_C},{record.q_div_P},{record.frac_ruled:.6f}"
    )


def write_csv(records: Iterable[SurveyRecord], stream: TextIO) -> int:
    """Write the header plus one row per record; returns the row count.
    Newlines are '\\n'; open file targets with newline='' and UTF-8."""
    stream.write(CSV_HEADER + "\n")
    rows = 0
    for record in records:
        stream.write(record_row(record) + "\n")
        rows += 1
    return rows
