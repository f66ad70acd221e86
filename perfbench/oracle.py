"""Brute-force expected output of the pointwise CLI calls, and of the
exceptional-set masses behind the deep-audit count.

Uses numpy and no trisieve code: the unit count, the witness search, the
main term and the residue-class Fourier masses are recomputed here from
their definitions, so a fast path in the program cannot share a fault with
its check.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_LIMIT = 1e-6
# S(u) from numpy's FFT against the program's closed-form interval
# coefficients: both are exact up to rounding
MASS_RTOL = 1e-9


def _units(n: int) -> np.ndarray:
    a = np.arange(1, n, dtype=np.int64)
    return a[np.gcd(a, n) == 1]


def _s_count(units: np.ndarray, p: int, q: int, n: int) -> int:
    ap = units * p % n
    aq = units * q % n
    return int(np.count_nonzero((ap >= 1) & (ap <= 2 * p - 1) & (aq >= 1) & (aq <= 2 * q - 1)))


def _check_line(units: np.ndarray, p: int, q: int, n: int) -> str:
    """`check --mode two-of-three`: the smallest usable unit meeting two of
    the p/q/r inequalities, and S."""
    usable = units[(2 * units - 2) % n != 0]
    held = [(usable * x % n) < (2 * x % n) for x in (p, q, n - p - q)]
    hits = np.flatnonzero(held[0].astype(int) + held[1] + held[2] >= 2)
    s = _s_count(units, p, q, n)
    if hits.size == 0:
        return f"NOT RULED OUT  S={s}\n"
    i = hits[0]
    tags = ",".join(tag for tag, h in zip("pqr", held) if h[i])
    return f"RULED OUT  witness={usable[i]}  ineqs={tags}  S={s}\n"


def pointwise_ok(argv: list[str], stdout: str) -> bool:
    """Whether one pointwise call printed what its definition demands.

    check and count are compared byte for byte. spectrum is compared byte
    for byte up to `residual=`; the residual itself only has to stay below
    1e-6, because a correct but differently summed spectral_S changes its
    last digits.
    """
    kind = argv[2]
    p, q, n = (int(v) for v in argv[3:6])
    units = _units(n)
    if kind == "check":
        return stdout == _check_line(units, p, q, n)
    s = _s_count(units, p, q, n)
    if kind == "count":
        return stdout == f"{s}\n"
    m = (2 * p - 1) * (2 * q - 1) * units.size / (n * n)
    prefix = f"S={s}  M={m:.6f}  E={s - m:.6f}  residual="
    if not (stdout.startswith(prefix) and stdout.endswith("\n")):
        return False
    try:
        residual = float(stdout[len(prefix) :])
    except ValueError:
        return False
    return 0.0 <= residual < RESIDUAL_LIMIT


def largest_prime(n: int) -> int:
    m, d, best = n, 2, 1
    while d * d <= m:
        while m % d == 0:
            m //= d
            best = d
        d += 1
    return max(best, m) if m > 1 else best


def audit_r(n: int) -> int:
    """The R a deep-audit survey uses for n."""
    return max(2, math.ceil(math.log(n)))


def audit_threshold(n: int, d: int, R: float) -> float:
    """The level above which S(u) makes a class exceptional."""
    return 7.0 * R * (1.0 + math.log(n)) ** 2 / d


def exceptional_masses(n: int, q: int, R: float):
    """d, the units u mod d, S(u) for each and the exceptional classes
    {-q*u mod d : S(u) > threshold}, with d = P**alpha for the largest
    prime P of n. The interval's Fourier coefficients come from an FFT."""
    P = largest_prime(n)
    d = P ** next(e for e in range(1, 64) if n % P ** (e + 1))
    ind = np.zeros(n)
    ind[1 : 2 * q] = 1.0
    mass = np.abs(np.fft.fft(ind) / n).reshape(n // d, d).sum(axis=0)
    k = np.arange(1, n)
    w = 1.0 / (2.0 * np.minimum(k, n - k))
    units = np.array([u for u in range(1, d + 1) if math.gcd(u, d) == 1])
    s = mass[(units[:, None] * k[None, :]) % d] @ w
    threshold = audit_threshold(n, d, R)
    members = sorted({int(-q * u % d) for u in units[s > threshold]})
    return d, units, s, members


def audit_ok(n: int, q: int, d: int, units: list[int], s_values: list[float],
             members: list[int]) -> bool:
    """Whether exceptional_set(n, q, audit_r(n)) returned the classes and
    the masses S(u) the FFT gives, S(u) within MASS_RTOL."""
    d_ref, units_ref, s_ref, members_ref = exceptional_masses(n, q, audit_r(n))
    return (
        d == d_ref
        and units == units_ref.tolist()
        and members == members_ref
        and np.allclose(s_values, s_ref, rtol=MASS_RTOL, atol=0.0)
    )
