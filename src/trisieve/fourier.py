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
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, inf, log, pi, sqrt

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
    From exceptional_set, s_values is a read-only mapping that takes the
    interval's FFT and sums every S(u) on its first read, once: where the
    certificate settles members, neither runs unless s_values is read.
    """

    d: int
    members: frozenset[int]
    s_values: Mapping[int, float]

    def excludes(self, p: np.ndarray) -> np.ndarray:
        """Elementwise over an int64 array of p: True where the refined bound
        leaves p out, that is P | p or p mod d is an exceptional class. As d
        is a power of P, P | p exactly when gcd(p, d) > 1."""
        return (np.gcd(p, self.d) > 1) | np.isin(p % self.d, list(self.members))


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
    """c_n(t) for t = 0 .. n-1, exact; spectral_S dots its convolution with it."""
    return tuple(ramanujan(n, t) for t in range(n))


def _interval_hats(n: int, m: int) -> np.ndarray:
    """interval_hat(n, m, k) for k = 0 .. n-1: FFT of the indicator, over n."""
    return np.fft.fft(np.r_[0.0, np.ones(m), np.zeros(n - 1 - m)]) / n


def spectral_S(p: int, q: int, n: int) -> SpectralDecomposition:
    """Evaluate sum_{k,l} fp_hat(k) fq_hat(l) c_n(k p + l q) and compare
    with the direct unit count.

    f_hat comes from one FFT per interval. Pushed forward under k -> k p and
    l -> l q mod n (coefficients merge where gcd(p, n) > 1 or gcd(q, n) > 1),
    the double sum is one cyclic convolution dotted with c_n: O(n log n)
    time, O(n) memory. Raises ArithmeticError if the residual reaches 1e-6,
    which would indicate an implementation or precision fault.
    """
    s_direct = count_S(p, q, n)
    m_value = main_term(p, q, n)
    k = np.arange(n, dtype=np.int64)
    product = np.ones(n, dtype=np.complex128)
    for x in (p, q):
        hat, idx = _interval_hats(n, 2 * x - 1), k * x % n
        pushed = np.bincount(idx, hat.real, n) + 1j * np.bincount(idx, hat.imag, n)
        product *= np.fft.fft(pushed)
    c = np.asarray(ramanujan_table(n), dtype=np.float64)
    total = complex(np.fft.ifft(product) @ c)
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


class _UnitMasses(Mapping):
    """S(u) = W @ mass[u*j mod d] over j = 0 .. d-1 for every unit u mod d,
    read-only. W holds the weights folded by k mod d (d = W.size), and
    mass[b] sums |f_hat(l)| of the interval {1..m} over l = b (mod d). The
    FFT, the fold and the sums run once, on the first read."""

    def __init__(self, n: int, m: int, weights: np.ndarray):
        self._n, self._m, self._weights = n, m, weights

    @cached_property
    def _values(self) -> dict[int, float]:
        d = self._weights.size
        mass = np.abs(_interval_hats(self._n, self._m)).reshape(-1, d).sum(axis=0)
        j = np.arange(d, dtype=np.int64)
        return {u: float(self._weights @ mass[u * j % d]) for u in unit_set(d).members}

    def __getitem__(self, u: int) -> float:
        return self._values[u]

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)


@lru_cache(maxsize=16)
def _folded_weights(n: int) -> tuple[np.ndarray, np.float64]:
    """exceptional_set's weights W, read-only, and |W|_2: one fold per n."""
    prof = factor_profile(n)
    d = prof.largest_prime ** prof.valuation(prof.largest_prime)
    k = np.arange(1, n, dtype=np.int64)
    weights = np.bincount(k % d, 1.0 / (2.0 * np.minimum(k, n - k)), d)
    weights.flags.writeable = False
    return weights, np.linalg.norm(weights)


def exceptional_set(n: int, q: int, R: float) -> ExceptionalSet:
    """The residue classes mod d = P**alpha for p where the weighted Fourier
    mass S(u) of a unit u is more than R times the average-level threshold.

    With w(k) = 1/(2 min(k, n-k)) folded by k mod d into W, and class b's
    mass summing |f_hat(l)| of the interval of width 2q-1 over l = b (mod d),
    S(u) = sum_j W[j] mass[u j mod d]; W is the same at every q. Requires
    gcd(q, P) = 1 and 2 <= R < inf; ties at the threshold stay out.

    Certificate first, with no FFT: a unit u permutes the classes mod d, so
    by Cauchy-Schwarz every S(u) <= |W|_2 |mass|_2. Each class sums n/d
    coefficients, so by Cauchy-Schwarz again and Parseval
    |mass|_2^2 <= (n/d) sum_l |f_hat(l)|^2 = (2q-1)/d, with equality when
    d = n. Where |W|_2 sqrt((2q-1)/d) is below threshold * (1 - 1e-9),
    members is empty; it clears every q up to about n = 4000. Elsewhere
    members come from the S(u) themselves. s_values holds S(u) for every
    unit either way, summed on first read.
    """
    if n < 2:
        raise ValueError(f"exceptional_set needs n >= 2, got {n}")
    if not 2 <= R < inf:
        raise ValueError(f"R must satisfy 2 <= R < inf, got {R}")
    P = factor_profile(n).largest_prime
    if q % P == 0:
        raise ValueError(f"q must be coprime to the largest prime factor {P} of {n}")
    mq = 2 * q - 1
    if not 1 <= mq <= n - 1:
        raise ValueError(f"q must satisfy 1 <= 2q-1 <= n-1, got q={q}, n={n}")
    weights, norm = _folded_weights(n)
    d = weights.size
    s_values = _UnitMasses(n, mq, weights)
    threshold = 7.0 * R * (1.0 + log(n)) ** 2 / d
    if norm * sqrt(mq / d) < threshold * (1.0 - 1e-9):
        return ExceptionalSet(d, frozenset(), s_values)
    members = frozenset((-q * u) % d for u, s in s_values.items() if s > threshold)
    return ExceptionalSet(d, members, s_values)


def verify_error_bound(n: int, q: int, R: float) -> BoundCheck:
    """Sweep every admissible p and check
    |S(p, q) - M(p, q)| <= 9 R phi(n) (1 + log n)^2 / P.

    Admissible: (p, q) in the window, gcd(p, q, n) = 1, and p not excluded
    by the exceptional set for q. Passes iff the worst ratio is <= 1.
    Raises ValueError unless 2(q + 1) < n, below which the window holds
    no p for q and the sweep would pass with nothing checked.
    """
    if not 2 * (q + 1) < n:
        raise ValueError(f"no window pair has q={q} at n={n}: needs 2(q + 1) < n")
    exc = exceptional_set(n, q, R)
    prof = factor_profile(n)
    bound = 9.0 * R * prof.totient * (1.0 + log(n)) ** 2 / prof.largest_prime
    p = np.arange(1, (n - 2 * q - 1) // 2 + 1)
    p = p[(np.gcd(p, gcd(q, n)) == 1) & ~exc.excludes(p)].tolist()
    ratios = [abs(count_S(x, q, n) - main_term(x, q, n)) / bound for x in p]
    max_ratio = max(ratios, default=0.0)
    return BoundCheck(len(ratios), max_ratio, max_ratio <= 1.0, exc)

