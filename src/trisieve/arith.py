"""Exact integer primitives: factorization, totients, units, Ramanujan sums.

Everything in this module is integer arithmetic, with one deliberate
exception: ``ramanujan_oracle`` sums complex exponentials in floating
point and exists only to cross-check the exact closed forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, pi


def is_prime(n: int) -> bool:
    """Trial-division primality test; deterministic at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FactorProfile:
    """Prime factorization of ``n`` plus the multiplicative data derived
    from it: the totient, the Moebius value, and the largest prime factor
    (absent for n = 1). ``factors`` lists (prime, exponent) pairs with
    primes strictly increasing."""

    factors: tuple[tuple[int, int], ...]
    totient: int
    moebius: int
    largest_prime: int | None

    def valuation(self, p: int) -> int:
        """Exponent of the prime p in n (0 when p does not divide n)."""
        for prime, exp in self.factors:
            if prime == p:
                return exp
        return 0


@lru_cache(maxsize=None)
def factor_profile(n: int) -> FactorProfile:
    """Factor n by trial division up to sqrt(n). Rejects n < 1."""
    if n < 1:
        raise ValueError(f"factor_profile needs n >= 1, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    totient = 1
    for p, e in factors:
        totient *= (p - 1) * p ** (e - 1)
    moebius = 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)
    largest = factors[-1][0] if factors else None
    return FactorProfile(tuple(factors), totient, moebius, largest)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n, ascending."""
    divs = [1]
    for p, e in factor_profile(n).factors:
        divs = [d * p ** j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))


@dataclass(frozen=True)
class UnitSet:
    """Reduced residue system mod n, and the usable units: those a with
    2a != 2 (mod n). For odd n > 1 only a = 1 is non-usable; for even n
    the residue 1 + n/2 may also drop out."""

    members: tuple[int, ...]
    usable: tuple[int, ...]


@lru_cache(maxsize=8)  # no caller works with more than two moduli (n, d) at once
def unit_set(n: int) -> UnitSet:
    if n < 1:
        raise ValueError(f"unit_set needs n >= 1, got {n}")
    members = tuple(a for a in range(1, n + 1) if gcd(a, n) == 1)
    usable = tuple(a for a in members if (2 * a - 2) % n != 0)
    return UnitSet(members, usable)


def ramanujan(n: int, t: int) -> int:
    """Ramanujan sum c_n(t) as an exact integer (no floating point).

    One prime power at a time: for p**k the value is 0 when v_p(t) <= k-2,
    -p**(k-1) when v_p(t) = k-1, and phi(p**k) when p**k | t; coprime prime
    powers multiply. c_n is n-periodic in t.
    """
    if n < 1:
        raise ValueError(f"ramanujan needs n >= 1, got {n}")
    t %= n
    result = 1
    for p, k in factor_profile(n).factors:
        if t == 0:
            v = k
        else:
            v = 0
            m = t
            while m % p == 0 and v < k:
                m //= p
                v += 1
        if v >= k:
            result *= p ** k - p ** (k - 1)
        elif v == k - 1:
            result *= -(p ** (k - 1))
        else:
            return 0
    return result


def ramanujan_oracle(n: int, t: int) -> int:
    """Brute-force c_n(t): sum exp(2*pi*i*a*t/n) over units a, rounded to
    the nearest integer. Raises if the rounding residual reaches 1e-6 * n,
    which would mean the float path can no longer be trusted."""
    if n < 1:
        raise ValueError(f"ramanujan_oracle needs n >= 1, got {n}")
    total = 0j
    for a in unit_set(n).members:
        total += cmath.exp(2j * pi * ((a * t) % n) / n)
    nearest = round(total.real)
    residual = abs(total - nearest)
    if residual >= 1e-6 * n:
        raise ArithmeticError(
            f"rounding residual {residual:.3e} exceeds tolerance for c_{n}({t})"
        )
    return nearest


def ramanujan_divisor_sum(n: int, t: int) -> int:
    """c_n(t) through the divisor identity sum_{d | gcd(t, n)} d * mu(n/d).

    A third, independent route used to cross-check ``ramanujan``.
    """
    if n < 1:
        raise ValueError(f"ramanujan_divisor_sum needs n >= 1, got {n}")
    g = gcd(t, n)
    return sum(d * factor_profile(n // d).moebius for d in divisors(g))
