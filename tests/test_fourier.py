"""Unit tests for the spectral decomposition and bound machinery."""

import cmath
from math import gcd, log, pi

import numpy as np
import pytest

from trisieve.arith import divisors, factor_profile
from trisieve.criterion import count_S
from trisieve.fourier import (
    exceptional_set,
    interval_hat,
    main_term,
    ramanujan_table,
    sigma_residue,
    spectral_S,
    verify_error_bound,
)
from trisieve.triangle import hard_window_pairs


class TestIntervalHat:
    def test_zero_frequency(self):
        assert interval_hat(4, 2, 0) == pytest.approx(0.5)
        assert interval_hat(10, 3, 0) == pytest.approx(0.3)

    def test_cancellation_example(self):
        assert abs(interval_hat(4, 2, 2)) < 1e-12

    def test_matches_direct_sum(self):
        for n in (5, 8, 13, 30):
            for m in range(1, n):
                for k in range(n):
                    direct = sum(
                        cmath.exp(-2j * pi * k * x / n) for x in range(1, m + 1)
                    ) / n
                    assert abs(interval_hat(n, m, k) - direct) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_hat(10, 0, 1)
        with pytest.raises(ValueError):
            interval_hat(10, 10, 1)
        with pytest.raises(ValueError):
            interval_hat(10, 3, 10)
        with pytest.raises(ValueError):
            interval_hat(10, 3, -1)

    def test_inversion_recovers_indicator(self):
        # inverse DFT of the coefficient vector must reproduce 1_{[1,m]}
        for n in range(2, 101):
            for m in range(1, n):
                hat = np.array([interval_hat(n, m, k) for k in range(n)])
                values = np.fft.ifft(hat) * n
                indicator = np.zeros(n)
                indicator[1 : m + 1] = 1.0
                assert np.max(np.abs(values - indicator)) < 1e-8


class TestMainTerm:
    def test_examples(self):
        assert main_term(1, 1, 5) == pytest.approx(0.16)
        assert main_term(5, 6, 23) == pytest.approx(2178 / 529)

    def test_range(self):
        for n in (5, 12, 23, 36, 60, 97):
            phi = factor_profile(n).totient
            for p, q in hard_window_pairs(n):
                value = main_term(p, q, n)
                assert 0 < value < phi
                # the crude bound, which needs no hypothesis on n's factors
                assert abs(count_S(p, q, n) - value) <= phi * (1 + log(n)) ** 2


class TestSpectralS:
    def test_examples(self):
        dec = spectral_S(1, 1, 5)
        assert dec.s_direct == 1
        assert dec.main_term == pytest.approx(0.16)
        assert dec.error_term == pytest.approx(0.84)
        assert dec.spectral_sum == pytest.approx(1.0, abs=1e-6)
        assert dec.residual < 1e-6

        assert spectral_S(5, 6, 23).spectral_sum == pytest.approx(3.0, abs=1e-6)
        assert spectral_S(1, 2, 7).spectral_sum == pytest.approx(1.0, abs=1e-6)

    def test_error_is_s_minus_main(self):
        dec = spectral_S(3, 4, 31)
        assert dec.error_term == pytest.approx(dec.s_direct - dec.main_term)

    def test_ramanujan_table_cached_values(self):
        table = ramanujan_table(12)
        assert table[0] == 4
        assert len(table) == 12


class TestSigmaResidue:
    def test_full_class_is_total_mass(self):
        for n, m in [(20, 7), (45, 14), (101, 33)]:
            total = sum(abs(interval_hat(n, m, k)) for k in range(n))
            assert sigma_residue(n, m, 1, 0) == pytest.approx(total)
            assert total <= 1 + log(n) + 1e-9

    def test_partition_over_classes(self):
        for n, m in [(24, 5), (60, 19), (90, 89)]:
            for d in divisors(n):
                split = sum(sigma_residue(n, m, d, b) for b in range(d))
                assert split == pytest.approx(sigma_residue(n, m, 1, 0), abs=1e-8)

    def test_pointwise_bounds(self):
        for n, m in [(36, 11), (100, 33), (210, 1)]:
            for d in divisors(n):
                tail = (1 + log(n / d)) / d
                assert sigma_residue(n, m, d, 0) <= m / n + tail + 1e-9
                for b in range(1, d):
                    cap = 1 / (2 * b) + 1 / (2 * (d - b)) + tail
                    assert sigma_residue(n, m, d, b) <= cap + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_residue(10, 3, 4, 0)  # 4 does not divide 10
        with pytest.raises(ValueError):
            sigma_residue(10, 3, 5, 5)


class TestExceptionalSet:
    def test_prime_modulus_path(self):
        exc = exceptional_set(101, 2, 2.0)
        assert exc.d == 101
        assert set(exc.s_values) == set(range(1, 101))
        assert len(exc.members) <= factor_profile(101).totient / 2

    def test_prime_power_path(self):
        # n = 300 = 2^2 * 3 * 5^2 exercises alpha = 2, d = 25
        exc = exceptional_set(300, 7, 2.0)
        assert exc.d == 25
        assert set(exc.s_values) == {u for u in range(1, 26) if u % 5 != 0}
        assert len(exc.members) <= factor_profile(25).totient / 2

    def test_mean_bound(self):
        for n, q in [(101, 3), (202, 5), (300, 7), (303, 2)]:
            exc = exceptional_set(n, q, 2.0)
            mean = sum(exc.s_values.values()) / len(exc.s_values)
            assert mean <= 7 * (1 + log(n)) ** 2 / exc.d + 1e-9

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            exceptional_set(202, 101, 2.0)  # q shares the top prime
        with pytest.raises(ValueError):
            exceptional_set(202, 3, 1.5)  # R below 2
        for R in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                exceptional_set(202, 3, R)

    def test_members_are_negated_multiples(self):
        n, q, R = 202, 3, 2.0
        exc = exceptional_set(n, q, R)
        threshold = 7 * R * (1 + log(n)) ** 2 / exc.d
        expected = {
            (-q * u) % exc.d for u, s in exc.s_values.items() if s > threshold
        }
        assert exc.members == frozenset(expected)


class TestErrorBoundVerification:
    def test_composite_with_large_prime(self):
        check = verify_error_bound(202, 3, 2.0)
        assert check.passed
        assert check.checked > 0
        assert check.max_ratio >= 0.0

    def test_prime_modulus(self):
        check = verify_error_bound(101, 2, 2.0)
        assert check.passed
        assert check.checked > 0

    def test_skips_exceptional_and_divisible(self):
        n, q, R = 202, 3, 2.0
        exc = exceptional_set(n, q, R)
        check = verify_error_bound(n, q, R)
        admissible = [
            p
            for p in range(1, (n - 2 * q - 1) // 2 + 1)
            if p % 101 != 0 and gcd(gcd(p, q), n) == 1 and p % exc.d not in exc.members
        ]
        assert check.checked == len(admissible)
        assert check.exceptional == exc

    def test_rejects_q_without_window_pair(self):
        assert verify_error_bound(101, 49, 2.0).checked == 1
        for n, q in ((101, 50), (4, 1)):
            with pytest.raises(ValueError):
                verify_error_bound(n, q, 2.0)

