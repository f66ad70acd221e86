"""Spectral decomposition of S(p, q) and numeric verification of its bounds.

S(p, q) expands over the characters of Z/nZ into interval Fourier
coefficients weighted by Ramanujan sums. The operations here evaluate
that expansion, split off the zero-frequency main term, measure the
residue-class Fourier mass that controls the error term when n has a
large prime factor, and sweep the resulting inequalities numerically.

All analytic bounds use the natural logarithm. Equality-style checks run at
1e-6 absolute for quantities up to phi(n): the double-precision budget of
length-n FFTs at desk scale.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, inf, log, pi

import numpy as np

from .arith import factor_profile, ramanujan, unit_set
from .criterion import count_S


@dataclass(frozen=True)
class SpectralDecomposition:
    """S(p, q) next to its spectral reconstruction: the main term
    M = (2p-1)(2q-1) phi(n) / n^2, the error term E = S - M, the full
    character-sum evaluation, and the reconstruction residual."""

    s_direct: int
    main_term: float
    error_term: float
    spectral_sum: float
    residual: float


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of sweeping one inequality over its test range: how many
    cases ran, the worst left/right ratio, and the exceptional set whose
    classes the sweep skipped."""

    checked: int
    max_ratio: float
    passed: bool
    exceptional: ExceptionalSet


@dataclass(frozen=True)
class ExceptionalSet:
    """Residue classes mod d = P**alpha (P the largest prime factor of n,
    alpha its exponent) that p must avoid for the refined error bound.

    s_values maps each unit u mod d to its weighted Fourier mass
    S(u) = sum_k w(k) * Sigma(d; [u*k]_d); members holds the classes
    -q*u mod d for the u whose mass strictly exceeds the threshold
    7 R (1 + log n)^2 / d. Markov's inequality caps members at phi(d)/R.
    """

    d: int
    members: frozenset[int]
    s_values: dict[int, float]


def interval_hat(n: int, m: int, k: int) -> complex:
    """Fourier coefficient (1/n) * sum_{x=1}^{m} exp(-2 pi i k x / n) of
    the indicator of {1, ..., m} in Z/nZ.

    k = 0 gives m/n; otherwise the geometric closed form. The modulus is
    at most 1/(2 min(k, n-k)) for k != 0.
    """
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in [1, n-1], got m={m}, n={n}")
    if not 0 <= k < n:
        raise ValueError(f"k must lie in [0, n-1], got k={k}, n={n}")
    if k == 0:
        return complex(m / n)
    w = cmath.exp(-2j * pi * k / n)
    return w * (1 - cmath.exp(-2j * pi * k * m / n)) / (1 - w) / n


def main_term(p: int, q: int, n: int) -> float:
    """(2p-1)(2q-1) phi(n) / n^2: the (k, l) = (0, 0) term of the
    expansion. The numerator is exact; one float division at the end."""
    return (2 * p - 1) * (2 * q - 1) * factor_profile(n).totient / (n * n)


@lru_cache(maxsize=256)
def ramanujan_table(n: int) -> tuple[int, ...]:
    """c_n(t) for t = 0 .. n-1, exact; spectral_S looks c_n up in it."""
    return tuple(ramanujan(n, t) for t in range(n))


def _interval_hats(n: int, m: int) -> np.ndarray:
    """interval_hat(n, m, k) for k = 0 .. n-1: FFT of the indicator, over n."""
    return np.fft.fft(np.r_[0.0, np.ones(m), np.zeros(n - 1 - m)]) / n


def spectral_S(p: int, q: int, n: int) -> SpectralDecomposition:
    """Evaluate sum_{k,l} fp_hat(k) fq_hat(l) c_n(k p + l q) and compare
    with the direct unit count.

    f_hat comes from one FFT per interval; the double sum runs over blocks
    of k, about 2^17 terms at a time, so memory is linear in n. Raises
    ArithmeticError if the residual reaches 1e-6, which would indicate an
    implementation or precision fault.
    """
    s_direct = count_S(p, q, n)
    m_value = main_term(p, q, n)
    fp, fq = _interval_hats(n, 2 * p - 1), _interval_hats(n, 2 * q - 1)
    c = np.asarray(ramanujan_table(n), dtype=np.float64)
    k = np.arange(n, dtype=np.int64)
    lq = k * q % n
    block = max(1, (1 << 17) // n)
    total = 0j
    for lo in range(0, n, block):
        idx = ((k[lo : lo + block] * p % n)[:, None] + lq[None, :]) % n
        total += complex(fp[lo : lo + block] @ (c[idx] @ fq))
    residual = abs(total - s_direct)
    if residual >= 1e-6:
        raise ArithmeticError(
            f"spectral reconstruction of S({p},{q}) mod {n} drifted: "
            f"residual {residual:.3e}"
        )
    return SpectralDecomposition(
        s_direct, m_value, s_direct - m_value, total.real, residual
    )


def sigma_residue(n: int, m: int, d: int, b: int) -> float:
    """Fourier mass of the interval {1..m} on one residue class:
    sum of |f_hat(l)| over l in [0, n) with l = b (mod d). Requires d | n."""
    if d < 1 or n % d != 0:
        raise ValueError(f"d must divide n, got d={d}, n={n}")
    if not 0 <= b < d:
        raise ValueError(f"b must lie in [0, d-1], got b={b}, d={d}")
    return sum(abs(interval_hat(n, m, l)) for l in range(b, n, d))


def exceptional_set(n: int, q: int, R: float) -> ExceptionalSet:
    """Weighted Fourier mass S(u) for every unit u mod d = P**alpha, and
    the residue classes for p where that mass is more than R times the
    average-level threshold.

    The weight is w(k) = 1/(2 min(k, n-k)); class b's mass sums |f_hat(l)|
    of the interval of width 2q-1 over l = b (mod d), one fold as d | n.
    Requires gcd(q, P) = 1 and 2 <= R < inf; ties at the threshold stay out.
    """
    if n < 2:
        raise ValueError(f"exceptional_set needs n >= 2, got {n}")
    if not 2 <= R < inf:
        raise ValueError(f"R must satisfy 2 <= R < inf, got {R}")
    prof = factor_profile(n)
    P = prof.largest_prime
    if q % P == 0:
        raise ValueError(f"q must be coprime to the largest prime factor {P} of {n}")
    mq = 2 * q - 1
    if not 1 <= mq <= n - 1:
        raise ValueError(f"q must satisfy 1 <= 2q-1 <= n-1, got q={q}, n={n}")
    d = P ** prof.valuation(P)
    mass = np.abs(_interval_hats(n, mq)).reshape(n // d, d).sum(axis=0)
    ks = np.arange(1, n, dtype=np.int64)
    weights = 1.0 / (2.0 * np.minimum(ks, n - ks))
    threshold = 7.0 * R * (1.0 + log(n)) ** 2 / d
    s_values: dict[int, float] = {}
    members: set[int] = set()
    for u in unit_set(d).members:
        s_u = float(weights @ mass[(u * ks) % d])
        s_values[u] = s_u
        if s_u > threshold:
            members.add((-q * u) % d)
    return ExceptionalSet(d, frozenset(members), s_values)


def verify_error_bound(n: int, q: int, R: float) -> BoundCheck:
    """Sweep every admissible p and check
    |S(p, q) - M(p, q)| <= 9 R phi(n) (1 + log n)^2 / P.

    Admissible: (p, q) in the window, gcd(p, P) = 1, and p mod d outside
    the exceptional classes for q. Passes iff the worst ratio is <= 1.
    Raises ValueError unless 2(q + 1) < n, below which the window holds
    no p for q and the sweep would pass with nothing checked.
    """
    if not 2 * (q + 1) < n:
        raise ValueError(f"no window pair has q={q} at n={n}: needs 2(q + 1) < n")
    exc = exceptional_set(n, q, R)
    prof = factor_profile(n)
    bound = 9.0 * R * prof.totient * (1.0 + log(n)) ** 2 / prof.largest_prime
    checked = 0
    max_ratio = 0.0
    for p in range(1, (n - 2 * q - 1) // 2 + 1):
        if p % prof.largest_prime == 0:
            continue
        if gcd(p, q, n) != 1 or p % exc.d in exc.members:
            continue
        err = count_S(p, q, n) - main_term(p, q, n)
        ratio = abs(err) / bound
        checked += 1
        max_ratio = max(max_ratio, ratio)
    return BoundCheck(checked, max_ratio, max_ratio <= 1.0, exc)

