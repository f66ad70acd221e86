"""Unit tests for the obstruction criterion and the batch sweep."""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisieve import criterion
from trisieve.arith import factor_profile, is_prime, unit_set
from trisieve.criterion import (
    MODE_TWO_OF_THREE,
    MODE_TWO_PQ,
    _half_window,
    _word_rows,
    count_S,
    find_witness,
    ineq_holds,
    sweep_window,
)
from trisieve.triangle import _window_lo, hard_window_pairs


def brute_count(p, q, n):
    """Direct transcription of the definition of S(p, q)."""
    total = 0
    for a in range(1, n + 1):
        if gcd(a, n) != 1:
            continue
        if 1 <= (a * p) % n <= 2 * p - 1 and 1 <= (a * q) % n <= 2 * q - 1:
            total += 1
    return total


class TestIneqHolds:
    def test_examples(self):
        assert ineq_holds(5, 5, 23)  # [25] = 2 < [10] = 10
        assert not ineq_holds(11, 7, 12)  # [77] = 5, [14] = 2
        for n in (9, 14, 31):
            for x in range(1, (n - 1) // 2 + 1):
                assert ineq_holds(1, x, n)  # [x] = x < [2x] = 2x

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            ineq_holds(2, 0, 7)
        with pytest.raises(ValueError):
            ineq_holds(2, 7, 7)


class TestCountS:
    def test_examples(self):
        assert count_S(1, 1, 5) == 1
        assert count_S(5, 6, 23) == 3
        assert count_S(1, 2, 7) == 1

    def test_matches_brute_force(self):
        for n in range(5, 80):
            for p, q in hard_window_pairs(n):
                assert count_S(p, q, n) == brute_count(p, q, n)

    def test_rejects_wide_windows(self):
        with pytest.raises(ValueError):
            count_S(4, 1, 7)  # 2p-1 = 7 >= 7
        with pytest.raises(ValueError):
            count_S(1, 6, 11)
        with pytest.raises(ValueError):
            count_S(0, 1, 9)

    def test_symmetry_floor_ceiling(self):
        for n in range(5, 121):
            phi = factor_profile(n).totient
            for p, q in hard_window_pairs(n):
                s = count_S(p, q, n)
                assert s == count_S(q, p, n)
                assert 1 <= s <= phi


class TestFindWitness:
    def test_ruled_out_example(self):
        report = find_witness(5, 6, 23, MODE_TWO_PQ)
        assert report.ruled_out
        assert report.witness == 5
        assert set(report.inequalities_held) >= {"p", "q"}
        assert count_S(5, 6, 23) == 3

    def test_hooper_survives(self):
        report = find_witness(1, 4, 12, MODE_TWO_OF_THREE)
        assert not report.ruled_out
        assert report.witness is None
        assert report.inequalities_held == ()

    def test_hooper_units_satisfy_nothing(self):
        # both usable units mod 12 fail all three inequalities
        for a in unit_set(12).usable:
            assert not ineq_holds(a, 1, 12)
            assert not ineq_holds(a, 4, 12)
            assert not ineq_holds(a, 7, 12)

    def test_one_two_four_survives(self):
        report = find_witness(1, 2, 7, MODE_TWO_OF_THREE)
        assert not report.ruled_out
        # each usable unit satisfies at most one inequality
        for a in unit_set(7).usable:
            held = sum(ineq_holds(a, x, 7) for x in (1, 2, 4))
            assert held <= 1

    def test_witness_is_smallest(self):
        # the smallest usable unit meeting the mode's inequalities, with its tags
        for mode, n in itertools.product((MODE_TWO_PQ, MODE_TWO_OF_THREE), (23, 37, 60)):
            for p, q in hard_window_pairs(n):
                report = find_witness(p, q, n, mode)
                expected = (False, None, ())
                for a in unit_set(n).usable:
                    flags = (("p", p), ("q", q), ("r", n - p - q))
                    held = tuple(tag for tag, x in flags if ineq_holds(a, x, n))
                    if {"p", "q"} <= set(held) or (
                        mode == MODE_TWO_OF_THREE and len(held) >= 2
                    ):
                        expected = (True, a, held)
                        break
                assert (report.ruled_out, report.witness, report.inequalities_held) == expected

    def test_no_unit_meets_all_three(self):
        # the lemma find_witness rests on: a witness meets exactly two
        for n in range(5, 61):
            usable = unit_set(n).usable
            for p, q in hard_window_pairs(n):
                r = n - p - q
                for a in usable:
                    assert not (
                        ineq_holds(a, p, n) and ineq_holds(a, q, n) and ineq_holds(a, r, n)
                    ), (a, p, q, n)

    def test_mode_monotone(self):
        for n in range(5, 61):
            for p, q in hard_window_pairs(n):
                if find_witness(p, q, n, MODE_TWO_PQ).ruled_out:
                    assert find_witness(p, q, n, MODE_TWO_OF_THREE).ruled_out

    def test_ruled_out_reports_carry_two_inequalities(self):
        for n in (23, 36, 61):
            for p, q in hard_window_pairs(n):
                for mode in (MODE_TWO_PQ, MODE_TWO_OF_THREE):
                    report = find_witness(p, q, n, mode)
                    if report.ruled_out:
                        assert report.witness in unit_set(n).usable
                        assert len(report.inequalities_held) == 2
                        if mode == MODE_TWO_PQ:
                            assert report.inequalities_held == ("p", "q")
                    else:
                        assert report.witness is None

    def test_search_does_not_count(self, monkeypatch):
        # S(p, q) is count_S's own pass; the witness search never needs it
        def no_count(p, q, n):
            raise AssertionError(f"find_witness counted S({p}, {q}) mod {n}")

        monkeypatch.setattr(criterion, "count_S", no_count)
        expected = {
            (5, 6, 23): (True, 5, ("p", "q")),
            (1, 4, 12): (False, None, ()),
            (1, 1, 9): (False, None, ()),
        }
        for (p, q, n), outcome in expected.items():
            for mode in (MODE_TWO_PQ, MODE_TWO_OF_THREE):
                report = find_witness(p, q, n, mode)
                assert (report.ruled_out, report.witness, report.inequalities_held) == outcome

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="obtuse"):
            find_witness(3, 3, 10)
        with pytest.raises(ValueError, match="gcd"):
            find_witness(2, 2, 12)
        with pytest.raises(ValueError):
            find_witness(1, 1, 7, mode="bogus")


class TestBatchSurvey:
    def test_examples(self):
        table = sweep_window(23)
        row = table[(table["p"] == 5) & (table["q"] == 6)]
        assert row["ruled_two_pq"].tolist() == [True]
        assert row["s_count"].tolist() == [3]  # S < 5
        five = sweep_window(5)[["p", "q", "s_count", "ruled_two_pq"]]
        assert five.tolist() == [(1, 1, 1, False)]
        assert len(sweep_window(12)) == 9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sweep_window(4)

    def test_word_rows_match_definition(self):
        # one bit per usable unit; |usable| is phi(n) - 1 or, when 4 | n,
        # phi(n) - 2, never a multiple of 64 for n >= 5, so every column has
        # a spare bit; only columns lo .. n - 2*lo are built. lo = n // 3 - 1
        # puts n - 2*lo below (n - 1) // 2, where no column is mirrored
        for n in [*range(5, 201), 255, 256, 1999, 2048, 2113]:
            u = np.array(unit_set(n).usable)
            los = {1, _window_lo(n, Fraction(1, 7))} | ({n // 3 - 1} if n >= 20 else set())
            for lo in los:
                rows = np.ascontiguousarray(_word_rows(n, lo).T)
                assert rows.shape == (n, -(-u.size // 64)), (n, lo)
                assert u.size % 64 != 0, n
                bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
                x = np.arange(n)[:, None]
                want = ((u * x) % n < (2 * x) % n) & (lo <= x) & (x <= n - 2 * lo)
                assert np.array_equal(bits[:, : u.size].astype(bool), want), (n, lo)
                assert not bits[:, u.size :].any(), (n, lo)
                # at even n, row n/2 is never built; the definition leaves it
                # empty too, as u * n/2 = n/2 mod n for every odd u
                assert n % 2 or not bits[n // 2].any(), (n, lo)

    def test_word_rows_int64_residues(self):
        # n * n >= 2**31 takes the int64 residue path; lo = n // 3 - 1
        # leaves the five rows 29999 .. 30003, where x * u passes 2**31
        n = 90001
        lo = n // 3 - 1
        u = np.array(unit_set(n).usable, dtype=np.int64)
        rows = _word_rows(n, lo).T
        assert rows.shape == (n, -(-u.size // 64))
        bits = np.unpackbits(
            np.ascontiguousarray(rows[lo - 1 : n - 2 * lo + 2]).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        x = np.arange(lo - 1, n - 2 * lo + 2)[:, None]
        want = ((u * x) % n < (2 * x) % n) & (lo <= x) & (x <= n - 2 * lo)
        assert np.array_equal(bits[:, : u.size].astype(bool), want)
        assert not bits[:, u.size :].any()

    def test_kernel_columns_are_int64(self):
        # in_region_C needs exact int64 products up to (2n)**2
        for n in (23, 60, 2003):
            for x, q, _, _ in _half_window(n, 1):
                assert q.dtype == np.int64, (n, x)

    def test_open_pairs_match_pointwise(self):
        # the kernel reads r-rows only for pairs no usable unit rules out by
        # p and q (ruled_two_pq false); that is every pair of the x = 1
        # block, row 1 being empty, so check each such pair against find_witness
        for n in (2003, 2310, 2048):
            for x, q, hits, two_of_three in _half_window(n, 1):
                two_pq = hits > 0
                assert x > 1 or not two_pq.any(), n
                open_pairs = zip(q[~two_pq].tolist(), two_of_three[~two_pq].tolist())
                for q_, ruled in open_pairs:
                    report = find_witness(x, q_, n, MODE_TWO_OF_THREE)
                    assert ruled == report.ruled_out, (n, x, q_)

    def test_left_out_units_add_one_to_s(self):
        # the bit rows leave out unit 1, which meets the p- and
        # q-inequalities of every window pair, and 1 + n/2 (a unit when
        # 4 | n), which meets both for no window pair: so s_count is the
        # usable hits plus one and two_pq holds exactly when s_count >= 2
        for n in range(5, 401):
            meets_1 = {x for x in range(1, n) if ineq_holds(1, x, n)}
            meets_h = set()
            if n % 4 == 0:
                meets_h = {x for x in range(1, n) if ineq_holds(1 + n // 2, x, n)}
            for p, q in hard_window_pairs(n):
                assert p in meets_1 and q in meets_1, (n, p, q)
                assert not (p in meets_h and q in meets_h), (n, p, q)
            table = sweep_window(n)
            assert np.array_equal(table["ruled_two_pq"], table["s_count"] >= 2), n

    def test_prime_survivors(self):
        # a prime n other than 11 leaves three pairs unruled by two of three
        # inequalities: (1, 1) and the edge triangle (1, m, m + 2) both ways
        def survivors(n):
            table = sweep_window(n)
            left = table[~table["ruled_two_of_three"]]
            return set(zip(left["p"].tolist(), left["q"].tolist()))

        for n in [7] + [n for n in range(13, 400) if is_prime(n)]:
            m = (n - 3) // 2
            assert survivors(n) == {(1, 1), (1, m), (m, 1)}, n
        assert survivors(11) == {(1, 1), (1, 4), (2, 3), (3, 2), (4, 1)}

    def test_agrees_with_pointwise(self):
        for n in (12, 23, 36, 47):
            table = sweep_window(n)
            pairs = list(zip(table["p"].tolist(), table["q"].tolist()))
            assert pairs == hard_window_pairs(n)
            s_ge5 = (table["s_count"] >= 5).tolist()
            for mode in (MODE_TWO_PQ, MODE_TWO_OF_THREE):
                ruled = table["ruled_" + mode].tolist()
                for (p, q), ruled_out, ge5 in zip(pairs, ruled, s_ge5):
                    report = find_witness(p, q, n, mode)
                    assert ruled_out == report.ruled_out
                    assert ge5 == (count_S(p, q, n) >= 5)

    def test_sweep_s_counts(self):
        for n in (12, 23, 40):
            table = sweep_window(n)
            columns = (table["p"], table["q"], table["s_count"])
            for p, q, s in zip(*(column.tolist() for column in columns)):
                assert s == count_S(p, q, n)

    def test_s_ge5_implies_ruled_two_pq(self):
        # at most two units are non-usable, so five hits leave a usable one
        for n in (23, 36, 61, 90):
            table = sweep_window(n)
            assert table["ruled_two_pq"][table["s_count"] >= 5].all()

    def test_cut_window_matches_pointwise(self):
        # pairs with p > q copy the row of (q, p); under a cut that mirror
        # index is offset by the cut, so check every row against the oracles
        for eta in (Fraction(1, 7), Fraction(1, 10), Fraction(1, 24)):
            for n in range(5, 121):
                table = sweep_window(n, eta)
                pairs = list(zip(table["p"].tolist(), table["q"].tolist()))
                assert pairs == hard_window_pairs(n, eta), (n, eta)
                rows = zip(
                    pairs,
                    table["s_count"].tolist(),
                    table["ruled_two_pq"].tolist(),
                    table["ruled_two_of_three"].tolist(),
                )
                for (p, q), s, ruled_pq, ruled_23 in rows:
                    assert s == count_S(p, q, n), (n, eta, p, q)
                    assert ruled_pq == find_witness(p, q, n, MODE_TWO_PQ).ruled_out
                    assert ruled_23 == find_witness(p, q, n, MODE_TWO_OF_THREE).ruled_out

    @given(
        st.integers(5, 400),
        st.integers(7, 200).flatmap(
            lambda den: st.tuples(st.integers(0, (den - 1) // 6), st.just(den))
        ),
    )
    @example(243, (1, 10))
    @example(256, (1, 7))
    @example(343, (1, 24))
    @example(8, (1, 7))  # the cut empties the window
    @example(7, (1, 7))  # so does this one, at an odd n
    @settings(max_examples=40, deadline=None)
    def test_cut_sweep_on_sampled_n(self, n, frac):
        eta = Fraction(*frac)
        table = sweep_window(n, eta)
        pairs = list(zip(table["p"].tolist(), table["q"].tolist()))
        assert pairs == hard_window_pairs(n, eta)
        row = {pq: i for i, pq in enumerate(pairs)}
        picks = {0, len(pairs) // 3, len(pairs) // 2, len(pairs) - 1} if pairs else set()
        for i in picks:
            p, q = pairs[i]
            assert table[row[(q, p)]].tolist()[2:] == table[i].tolist()[2:]
            assert table["s_count"][i] == brute_count(p, q, n)
            assert table["ruled_two_pq"][i] == find_witness(p, q, n, MODE_TWO_PQ).ruled_out
            assert (
                table["ruled_two_of_three"][i]
                == find_witness(p, q, n, MODE_TWO_OF_THREE).ruled_out
            )

    @given(st.integers(5, 150))
    @settings(max_examples=25, deadline=None)
    def test_sweep_matches_brute_on_sampled_n(self, n):
        table = sweep_window(n)
        pairs = hard_window_pairs(n)
        assert list(zip(table["p"].tolist(), table["q"].tolist())) == pairs
        if pairs:
            p, q = pairs[len(pairs) // 2]
            assert table["s_count"][len(pairs) // 2] == brute_count(p, q, n)
