"""Per-denominator density statistics and CSV emission.

A survey runs the batch obstruction sweep for each denominator, tallies
how many window pairs are ruled out under each mode, and writes one CSV
row per denominator so the vanishing proportion of survivors can be
tabulated and plotted downstream.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import ceil, log
from typing import Iterable, Iterator, TextIO

from .arith import factor_profile, is_prime
from .criterion import sweep_window
from .fourier import exceptional_set

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


def survey_n(n: int, eta=0, deep_audit: bool = False) -> SurveyRecord:
    """Aggregate the columns of sweep_window(n, eta) into a SurveyRecord
    of Python ints and floats.

    Both criterion modes are always tallied. With deep_audit=True the
    exceptional residue classes are computed per q and the size of the
    excluded pair region rides along as e_n. The audit's R is fixed at
    ceil(log n) and is not a parameter.
    For n < 16 the region-C count is reported as 0 (the defining formula
    has no value there, so the region is treated as empty).
    """
    if n < 5:
        raise ValueError(f"survey_n needs n >= 5, got {n}")
    table = sweep_window(n, eta)
    p, q = table["p"], table["q"]
    p_plus = factor_profile(n).largest_prime
    h_size = len(table)
    ruled_23 = int(table["ruled_two_of_three"].sum())
    in_c = int(in_region_C(n, p, q).sum()) if n >= 16 else 0
    e_n = _deep_audit_count(n, zip(p.tolist(), q.tolist())) if deep_audit else None
    return SurveyRecord(
        n,
        p_plus,
        omega_plus_member(n),
        h_size,
        int(table["ruled_two_pq"].sum()),
        ruled_23,
        int((table["s_count"] >= 5).sum()),
        in_c,
        int((q % p_plus == 0).sum()),
        ruled_23 / h_size if h_size else 0.0,
        e_n,
    )


def _deep_audit_count(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """Size of the exceptional pair region: pairs with gcd(q, P) = 1 where
    either P | p or p mod d lands in the exceptional classes for q at
    R = ceil(log n), which is at least 2 because n >= 5."""
    prof = factor_profile(n)
    P = prof.largest_prime
    d = P ** prof.valuation(P)
    R = ceil(log(n))
    members_cache: dict[int, frozenset[int]] = {}
    count = 0
    for p, q in pairs:
        if q % P == 0:
            continue
        if p % P == 0:
            count += 1
            continue
        members = members_cache.get(q)
        if members is None:
            members = exceptional_set(n, q, R).members
            members_cache[q] = members
        if p % d in members:
            count += 1
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
    across at most min(workers, number of denominators, CPU count)
    processes; the output order and content do not depend on workers.
    """
    if not 5 <= n_min <= n_max:
        raise ValueError(f"need 5 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if filter not in FILTERS:
        raise ValueError(f"filter must be one of {FILTERS}, got {filter!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    ns = [n for n in range(n_min, n_max + 1) if _admits(filter, n)]
    job = partial(survey_n, eta=eta, deep_audit=deep_audit)
    pool_size = min(workers, len(ns), os.cpu_count() or 1)
    if pool_size <= 1:
        for n in ns:
            yield job(n)
    else:
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
