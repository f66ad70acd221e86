"""Unit tests for the spectral decomposition and bound machinery."""

import cmath
import random
import tracemalloc
from math import ceil, gcd, log, pi

import numpy as np
import pytest

from trisieve import fourier
from trisieve.arith import divisors, factor_profile, ramanujan_divisor_sum
from trisieve.criterion import count_S
from trisieve.fourier import (
    ExceptionalSet,
    exceptional_set,
    interval_hat,
    main_term,
    ramanujan_table,
    sigma_residue,
    spectral_S,
    verify_error_bound,
)
from trisieve.triangle import hard_window_pairs


def unit_masses(n):
    """Every S(u) of exceptional_set, row q - 1 for q = 1 .. n // 2 and one
    column per unit u mod d, ascending: the class masses of every q from one
    batch FFT, times W placed by the permutation j -> u j mod d."""
    prof = factor_profile(n)
    d = prof.largest_prime ** prof.valuation(prof.largest_prime)
    x, widths = np.arange(n), 2 * np.arange(1, n // 2 + 1) - 1
    hats = np.fft.fft((x >= 1) & (x <= widths[:, None]), axis=1) / n
    mass = np.abs(hats).reshape(widths.size, -1, d).sum(axis=1)
    k = np.arange(1, n)
    weights = np.bincount(k % d, 1 / (2 * np.minimum(k, n - k)), d)
    units = np.array([u for u in range(1, d) if gcd(u, d) == 1])
    placed = np.zeros((d, units.size))
    placed[np.outer(np.arange(d), units) % d, np.arange(units.size)] = weights[:, None]
    return mass @ placed


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

    def test_matches_literal_double_sum(self):
        # the n^2 double sum of the expansion, from the definitions alone
        cases = [(n, hard_window_pairs(n)) for n in range(5, 41)]
        rng = random.Random(13)
        for n in (128, 243, 300, 509):
            pairs = hard_window_pairs(n)
            # gcd(p, n) > 1: k -> k p mod n is not a bijection and merges terms
            shared = [(p, q) for p, q in pairs if gcd(p, n) > 1]
            picked = rng.sample(shared, min(5, len(shared)))
            cases.append((n, picked + rng.sample(pairs, 10 - len(picked))))
        for n, pairs in cases:
            x = np.arange(1, n + 1)
            k = np.arange(n)
            waves = np.exp(-2j * pi * np.outer(k, x) / n)
            units = x[np.gcd(x, n) == 1]
            c = np.cos(2 * pi * np.outer(k, units) / n).sum(axis=1)
            for p, q in pairs:
                fp = waves[:, : 2 * p - 1].sum(axis=1) / n
                fq = waves[:, : 2 * q - 1].sum(axis=1) / n
                total = np.sum(fp[:, None] * fq[None, :] * c[np.add.outer(k * p, k * q) % n])
                assert spectral_S(p, q, n).spectral_sum == pytest.approx(
                    total.real, abs=1e-9
                ), (n, p, q)

    def test_memory_is_linear_in_n(self):
        # an n x n index at n = 2999 alone takes 72 MB, and a sum over blocks
        # of 2^17 index cells peaks near 4 MiB; the convolution holds a few
        # length-n arrays and the table, about 0.6 MiB
        tracemalloc.start()
        try:
            spectral_S(7, 1000, 2999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("p, q, n", [(5002, 5001, 20011), (2310, 4620, 30030)])
    def test_matches_count_at_large_n(self, p, q, n):
        # at n = 30030, gcd(p, n) = 2310 and gcd(q, n) = 4620 merge coefficients
        dec = spectral_S(p, q, n)
        assert dec.s_direct == count_S(p, q, n)
        assert dec.residual < 1e-6

    def test_ramanujan_table_cached_values(self):
        table = ramanujan_table(12)
        assert table[0] == 4
        assert len(table) == 12

    @pytest.mark.parametrize("n", [1024, 2187, 2310, 2999])
    def test_ramanujan_table_matches_divisor_sum(self, n):
        # the moduli spectral_S meets: prime powers, squarefree, prime
        assert ramanujan_table(n) == tuple(ramanujan_divisor_sum(n, t) for t in range(n))


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

    @pytest.mark.parametrize(
        "n, q",
        [
            (60, 7),
            (64, 5),
            (250, 3),
            (256, 9),
            (300, 7),
            (343, 5),
            (509, 100),
            (686, 11),
            (1009, 252),
            (2003, 500),
        ],
    )
    def test_matches_scalar_reference(self, n, q, monkeypatch):
        prof = factor_profile(n)
        d = prof.largest_prime ** prof.valuation(prof.largest_prime)
        mass = [sigma_residue(n, 2 * q - 1, d, b) for b in range(d)]
        reference = {
            u: sum(mass[u * k % d] / (2 * min(k, n - k)) for k in range(1, n))
            for u in range(1, d)
            if gcd(u, d) == 1
        }
        exc = exceptional_set(n, q, 2.0)
        assert exc.d == d
        assert exc.s_values.keys() == reference.keys()
        for u, s in reference.items():
            assert exc.s_values[u] == pytest.approx(s, rel=1e-9), u
        # the certificate: u permutes the classes mod d, so by Cauchy-Schwarz
        # every S(u) is at most |W|_2 |mass|_2, W the weights folded by k mod d
        folded = [0.0] * d
        for k in range(1, n):
            folded[k % d] += 1 / (2 * min(k, n - k))
        bound = sum(x * x for x in folded) ** 0.5 * sum(x * x for x in mass) ** 0.5
        assert max(reference.values()) <= bound * (1 + 1e-12)
        # each class sums n/d coefficients, so by Cauchy-Schwarz and Parseval
        # |mass|_2^2 <= (n/d) sum |f_hat|^2 = (2q-1)/d, with equality at d = n:
        # the certificate exceptional_set tests, with no FFT
        squares, parseval = sum(x * x for x in mass), (2 * q - 1) / d
        assert squares <= parseval * (1 + 1e-12)
        if d == n:
            assert squares == pytest.approx(parseval, rel=1e-12)
        # the sets are empty at desk scale, so lower the threshold through log:
        # 7 R (1 + log n)^2 / d at R = 2 becomes the midpoint of the first
        # clear gap in the sorted masses from the median up
        values = sorted(reference.values())
        i = next(
            i
            for i in range(len(values) // 2, len(values))
            if values[i] - values[i - 1] > 1e-6 * values[i]
        )
        cut = (values[i - 1] + values[i]) / 2
        monkeypatch.setattr(fourier, "log", lambda x: (cut * d / 14.0) ** 0.5 - 1.0)
        expected = {(-q * u) % d for u, s in reference.items() if s > cut}
        assert 0 < len(expected) < len(reference)
        assert exceptional_set(n, q, 2.0).members == expected

    def test_excludes_multiples_of_P_and_member_classes(self):
        exc = ExceptionalSet(25, frozenset({3, 7}), {})
        p = np.array([5, 10, 3, 28, 7, 32, 1, 2], dtype=np.int64)
        assert exc.excludes(p).tolist() == [True] * 6 + [False] * 2

    @pytest.mark.parametrize("d, P", [(25, 5), (97, 97)])
    def test_excludes_only_multiples_of_P_without_members(self, d, P):
        p = np.arange(1, 3 * d + 1, dtype=np.int64)
        excluded = ExceptionalSet(d, frozenset(), {}).excludes(p)
        assert excluded.tolist() == (p % P == 0).tolist()

    @pytest.mark.parametrize(
        "n, q, members, top, threshold",
        [
            (20011, 4201, {4201, 15810}, 0.43147, 0.41591),
            (16001, 4642, set(), 0.43147, 0.49903),
        ],
        ids=["20011", "16001"],
    )
    def test_onset_at_prime_n(self, n, q, members, top, threshold):
        # the exceptional set of a prime n turns on between these two: over
        # q, the largest S(1) is 0.87 of the threshold 7 R (1 + log n)^2 / n
        # at n = 16001 and 1.04 of it at 20011, where members are {q, n - q}
        R = 10  # ceil(log n) at both
        exc = exceptional_set(n, q, R)
        assert exc.d == n
        assert exc.members == members
        assert 7 * R * (1 + log(n)) ** 2 / n == pytest.approx(threshold, abs=1e-5)
        assert exc.s_values[1] == pytest.approx(top, abs=1e-5)
        assert exc.s_values[n - 1] == pytest.approx(top, abs=1e-5)
        assert max(exc.s_values.values()) == pytest.approx(top, abs=1e-5)

    def test_members_are_negated_multiples(self):
        n, q, R = 202, 3, 2.0
        exc = exceptional_set(n, q, R)
        threshold = 7 * R * (1 + log(n)) ** 2 / exc.d
        expected = {
            (-q * u) % exc.d for u, s in exc.s_values.items() if s > threshold
        }
        assert exc.members == frozenset(expected)

    def test_certificate_leaves_no_member(self):
        # where the certificate holds, no S(u) exceeds the threshold, so the
        # S(u) would leave members empty too; the S(u) of every q come from
        # unit_masses, pinned to s_values at one q per n
        for n in range(5, 401):
            prof = factor_profile(n)
            d = prof.largest_prime ** prof.valuation(prof.largest_prime)
            q = np.arange(1, n // 2 + 1)
            masses = unit_masses(n)
            top = max(x for x in q.tolist() if x % prof.largest_prime)
            s_values = exceptional_set(n, top, 2.0).s_values
            units = sorted(s_values)
            assert masses[top - 1] == pytest.approx([s_values[u] for u in units], rel=1e-9)
            for R in (2, ceil(log(n))):
                certified = fourier._certified(n, q, R)
                assert np.all(masses[certified].max(axis=1) <= 7 * R * (1 + log(n)) ** 2 / d)
                assert certified.tolist() == [fourier._certified(n, x, R) for x in q.tolist()]

    def test_certificate_first_leaves_q_open_at_6689(self):
        # at the audit's R = ceil(log n) and q, the certificate settles every q
        # of every n below 6689 (a scan of 5..6688 finds none open; 6679 is the
        # prime before 6689) and leaves 4 open at 6689, 131 at 6859 = 19**3
        for n, count, first in ((6679, 0, None), (6689, 4, 3340), (6859, 131, 3291)):
            P, R = factor_profile(n).largest_prime, ceil(log(n))
            q = np.arange(1, (n - 3) // 2 + 1)
            q = q[q % P != 0]
            certified = fourier._certified(n, q, R)
            open_q = q[~certified].tolist()
            assert (len(open_q), min(open_q, default=None)) == (count, first), n
            assert certified.tolist() == [fourier._certified(n, x, R) for x in q.tolist()]


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

    def test_skips_exceptional_and_divisible(self, monkeypatch):
        R = 2.0
        for n, q in [(202, 3), (97, 2), (243, 5), (250, 3), (300, 7)]:
            unpatched = verify_error_bound(n, q, R).checked
            exc = exceptional_set(n, q, R)
            d, median = exc.d, float(np.median(list(exc.s_values.values())))
            with monkeypatch.context() as m:
                # the sets are empty at desk scale, so lower the threshold through
                # log: 7 R (1 + log n)^2 / d at R = 2 becomes the median S(u)
                m.setattr(fourier, "log", lambda x: (median * d / 14.0) ** 0.5 - 1.0)
                exc = exceptional_set(n, q, R)
                check = verify_error_bound(n, q, R)
            assert exc.members, (n, q)
            P = factor_profile(n).largest_prime
            admissible = [
                p
                for p in range(1, (n - 2 * q - 1) // 2 + 1)
                if p % P != 0 and gcd(gcd(p, q), n) == 1 and p % exc.d not in exc.members
            ]
            assert check.checked == len(admissible), (n, q)
            assert check.checked < unpatched, (n, q)
            assert check.exceptional == exc, (n, q)

    def test_rejects_q_without_window_pair(self):
        assert verify_error_bound(101, 49, 2.0).checked == 1
        for n, q in ((101, 50), (4, 1)):
            with pytest.raises(ValueError):
                verify_error_bound(n, q, 2.0)

