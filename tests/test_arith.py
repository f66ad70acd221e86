"""Unit tests for the exact arithmetic layer."""

import cmath
import gc
import tracemalloc
from math import gcd, pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisieve.arith import (
    FactorProfile,
    divisors,
    factor_profile,
    is_prime,
    ramanujan,
    ramanujan_divisor_sum,
    ramanujan_oracle,
    unit_set,
)
from trisieve.criterion import count_S


def brute_phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


class TestFactorProfile:
    def test_twelve(self):
        prof = factor_profile(12)
        assert prof.factors == ((2, 2), (3, 1))
        assert prof.totient == 4
        assert prof.moebius == 0
        assert prof.largest_prime == 3

    def test_one(self):
        prof = factor_profile(1)
        assert prof.factors == ()
        assert prof.totient == 1
        assert prof.moebius == 1
        assert prof.largest_prime is None

    def test_prime(self):
        prof = factor_profile(97)
        assert prof.factors == ((97, 1),)
        assert prof.totient == 96
        assert prof.moebius == -1
        assert prof.largest_prime == 97

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_profile(0)
        with pytest.raises(ValueError):
            factor_profile(-5)

    def test_invariants_sweep(self):
        for n in range(1, 400):
            prof = factor_profile(n)
            product = 1
            for p, e in prof.factors:
                assert is_prime(p) and e >= 1
                product *= p**e
            assert product == n
            primes = [p for p, _ in prof.factors]
            assert primes == sorted(primes) and len(set(primes)) == len(primes)
            assert prof.totient == brute_phi(n)
            assert prof.moebius in (-1, 0, 1)
            assert (prof.moebius == 0) == any(e >= 2 for _, e in prof.factors)

    def test_valuation_accessor(self):
        prof = factor_profile(360)
        assert prof.valuation(2) == 3
        assert prof.valuation(3) == 2
        assert prof.valuation(7) == 0


class TestUnitSet:
    def test_mod_five(self):
        units = unit_set(5)
        assert units.members == (1, 2, 3, 4)
        assert units.usable == (2, 3, 4)

    def test_mod_twelve(self):
        units = unit_set(12)
        assert units.members == (1, 5, 7, 11)
        assert units.usable == (5, 11)

    def test_mod_two(self):
        units = unit_set(2)
        assert units.members == (1,)
        assert units.usable == ()

    def test_non_usable_counts(self):
        # odd n > 1: exactly the unit 1 is non-usable; even n: at most two
        for n in range(2, 300):
            units = unit_set(n)
            assert len(units.members) == factor_profile(n).totient
            non_usable = set(units.members) - set(units.usable)
            if n % 2 == 1:
                assert non_usable == {1}
            else:
                assert 1 <= len(non_usable) <= 2
                assert 1 in non_usable

    def test_usable_definition(self):
        for n in range(1, 120):
            for a in unit_set(n).usable:
                assert (2 * a) % n != 2 % n

    def test_cache_does_not_keep_every_modulus(self):
        # a cache holding all 300 unit sets keeps about 8 MiB
        tracemalloc.start()
        try:
            for n in range(1000, 1300):
                count_S(1, 2, n)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**20


class TestRamanujan:
    def test_prime_power_examples(self):
        assert ramanujan(5, 0) == 4  # phi(5)
        assert ramanujan(4, 2) == -2  # n/g = 2, mu = -1: -phi(4)/phi(2)
        assert ramanujan(8, 2) == 0  # n/g = 4 not squarefree, mu = 0
        assert ramanujan(6, 1) == 1
        assert ramanujan(7, 7) == 6

    def test_oracle_examples(self):
        assert ramanujan_oracle(8, 2) == 0
        assert ramanujan_oracle(7, 7) == 6
        assert ramanujan_oracle(6, 1) == 1

    def test_periodicity(self):
        for n in (6, 9, 12, 30):
            for t in range(-n, 2 * n):
                assert ramanujan(n, t) == ramanujan(n, t % n)

    def test_totient_and_moebius_specials(self):
        for n in range(1, 201):
            prof = factor_profile(n)
            assert ramanujan(n, 0) == prof.totient
            assert ramanujan(n, 1) == prof.moebius

    def test_sum_over_period_vanishes(self):
        for n in range(2, 201):
            assert sum(ramanujan(n, t) for t in range(n)) == 0

    def test_prime_power_vanishing_needs_high_valuation(self):
        # c_{p^k}(t) = 0 exactly when p^{k-1} does not divide t
        for p, k in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
            n = p**k
            for t in range(n):
                vanishes = ramanujan(n, t) == 0
                assert vanishes == (t % p ** (k - 1) != 0)

    def test_oracle_matches_direct_sum(self):
        for n in range(1, 61):
            for t in range(n):
                direct = sum(
                    cmath.exp(2j * pi * a * t / n) for a in unit_set(n).members
                )
                assert abs(direct - ramanujan_oracle(n, t)) < 1e-9

    @given(st.integers(1, 150), st.integers(-300, 300))
    @settings(max_examples=150)
    def test_three_routes_agree(self, n, t):
        assert ramanujan(n, t) == ramanujan_oracle(n, t) == ramanujan_divisor_sum(n, t)

    def test_multiplicative_exhaustive_small(self):
        for n1 in range(1, 21):
            for n2 in range(1, 21):
                if gcd(n1, n2) != 1:
                    continue
                for t in range(n1 * n2):
                    assert ramanujan(n1 * n2, t) == ramanujan(n1, t) * ramanujan(n2, t)

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 3600))
    @settings(max_examples=200)
    def test_multiplicative_sampled(self, n1, n2, t):
        if gcd(n1, n2) == 1:
            assert ramanujan(n1 * n2, t) == ramanujan(n1, t) * ramanujan(n2, t)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            ramanujan(0, 1)
        with pytest.raises(ValueError):
            ramanujan_oracle(0, 1)


class TestDivisors:
    def test_examples(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)
        assert divisors(97) == (1, 97)

    @given(st.integers(1, 2000))
    def test_all_and_only_divisors(self, n):
        divs = divisors(n)
        assert list(divs) == sorted(d for d in range(1, n + 1) if n % d == 0)
