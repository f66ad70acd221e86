"""Unit tests for triangle parameters, the window, and family labels."""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisieve.triangle import (
    FAMILY_HOOPER,
    FAMILY_NONE,
    FAMILY_ONE,
    FAMILY_TWO,
    classify,
    hard_window_pairs,
    normalize,
)


def brute_window(n):
    """Independent filter: full double loop over the admissible grid."""
    pairs = []
    for p in range(1, n):
        for q in range(1, n):
            if 2 * (p + q) < n and gcd(gcd(p, q), n) == 1:
                pairs.append((p, q))
    return pairs


class TestNormalize:
    def test_examples(self):
        t = normalize(2, 2, 6)
        assert (t.p, t.q, t.r, t.n) == (1, 1, 3, 5)
        t = normalize(1, 4, 7)
        assert (t.p, t.q, t.r, t.n) == (1, 4, 7, 12)
        t = normalize(3, 3, 3)
        assert (t.p, t.q, t.r, t.n) == (1, 1, 1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize(0, 1, 2)

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
    def test_lowest_terms(self, p, q, r):
        t = normalize(p, q, r)
        assert gcd(gcd(t.p, t.q), t.r) == 1
        assert t.p + t.q + t.r == t.n
        # idempotent
        again = normalize(t.p, t.q, t.r)
        assert (again.p, again.q, again.r) == (t.p, t.q, t.r)


class TestHardWindowPairs:
    def test_examples(self):
        assert hard_window_pairs(7) == [(1, 1), (1, 2), (2, 1)]
        twelve = hard_window_pairs(12)
        assert len(twelve) == 9
        assert (2, 2) not in twelve
        assert hard_window_pairs(5) == [(1, 1)]

    def test_degenerate_denominators(self):
        assert hard_window_pairs(3) == []
        assert hard_window_pairs(4) == []
        with pytest.raises(ValueError):
            hard_window_pairs(2)

    def test_agrees_with_brute_filter(self):
        for n in range(3, 501):
            pairs = hard_window_pairs(n)
            assert pairs == brute_window(n)
            for p, q in pairs:
                r = n - p - q
                assert 2 * r > n  # obtuse
        # every obtuse pair, not only the hard window's 3r <= 2n
        pairs = hard_window_pairs(101)
        hard = [classify(normalize(p, q, 101 - p - q)).hard_window for p, q in pairs]
        assert (len(hard), sum(hard)) == (1225, 697)

    def test_eta_rejections(self):
        with pytest.raises(ValueError):
            hard_window_pairs(30, Fraction(1, 6))
        with pytest.raises(ValueError):
            hard_window_pairs(30, Fraction(1, 5))
        with pytest.raises(ValueError):
            hard_window_pairs(30, Fraction(-1, 10))
        with pytest.raises(TypeError):
            hard_window_pairs(30, 0.05)

    def test_eta_cut_is_exact(self):
        # at eta = 1/n the cut min(p,q) > 1 holds iff min(p,q) >= 2, strictly
        n = 60
        cut = hard_window_pairs(n, Fraction(1, n))
        assert cut == [(p, q) for (p, q) in hard_window_pairs(n) if min(p, q) >= 2]
        # eta * n an integer (70/7, 48/24, 80 * 13/80, 100/10) or not, against
        # the brute filter min(p, q) > eta * n over the uncut window
        for n, eta in (
            (70, Fraction(1, 7)),
            (71, Fraction(1, 7)),
            (48, Fraction(1, 24)),
            (80, Fraction(13, 80)),
            (81, Fraction(13, 80)),
            (100, Fraction(1, 10)),
            (101, Fraction(3, 19)),
            (9, Fraction(1, 7)),
        ):
            expected = [(p, q) for (p, q) in brute_window(n) if min(p, q) > eta * n]
            assert hard_window_pairs(n, eta) == expected, (n, eta)

    def test_eta_monotone(self):
        for n in (17, 36, 61, 100):
            base = hard_window_pairs(n)
            assert hard_window_pairs(n, 0) == base
            previous = set(base)
            for eta in (Fraction(1, 100), Fraction(1, 24), Fraction(1, 12), Fraction(13, 80)):
                trimmed = set(hard_window_pairs(n, eta))
                assert trimmed <= previous
                previous = trimmed

    def test_string_eta_accepted(self):
        assert hard_window_pairs(40, "1/20") == hard_window_pairs(40, Fraction(1, 20))


class TestClassify:
    def test_examples(self):
        cls = classify(normalize(1, 1, 3))
        assert cls.shape == "obtuse" and cls.family == FAMILY_ONE
        cls = classify(normalize(1, 4, 7))
        assert cls.shape == "obtuse" and cls.hard_window and cls.family == FAMILY_HOOPER
        cls = classify(normalize(5, 6, 12))
        assert cls.shape == "obtuse" and cls.hard_window and cls.family == FAMILY_NONE

    def test_shapes(self):
        assert classify(normalize(1, 1, 1)).shape == "acute"
        assert classify(normalize(1, 1, 2)).shape == "right"
        assert classify(normalize(1, 2, 3)).shape == "right"
        assert classify(normalize(2, 3, 4)).shape == "acute"
        assert classify(normalize(1, 2, 5)).shape == "obtuse"

    def test_hard_window_boundaries(self):
        # largest angle exactly two thirds of a straight angle stays inside
        assert classify(normalize(1, 1, 4)).hard_window  # 4/6 boundary
        assert not classify(normalize(1, 1, 5)).hard_window  # 5/7 above
        assert not classify(normalize(1, 2, 3)).hard_window  # right triangle

    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=150)
    def test_permutation_invariant(self, p, q, r):
        base = classify(normalize(p, q, r))
        for perm in permutations((p, q, r)):
            assert classify(normalize(*perm)) == base

    def test_family_one_every_denominator(self):
        for n in range(5, 200):
            assert classify(normalize(1, 1, n - 2)).family == FAMILY_ONE

    def test_family_two_even_denominators(self):
        for n in range(8, 200, 2):
            cls = classify(normalize(1, 2, n - 3))
            assert cls.family == FAMILY_TWO
            assert cls.shape == "obtuse"
        # odd-denominator lookalike is not in the family
        assert classify(normalize(1, 2, 6)).family == FAMILY_NONE

    def test_small_isosceles_not_family(self):
        # {1,1,1}/3 and {1,1,2}/4 are not obtuse family members
        assert classify(normalize(1, 1, 1)).family == FAMILY_NONE
        assert classify(normalize(1, 1, 2)).family == FAMILY_NONE
