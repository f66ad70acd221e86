"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values tagged as derived were computed with independent
brute-force oracles (several are re-derived inline) before being frozen
here.
"""

import io
from math import ceil, gcd, log

import pytest

from trisieve.arith import (
    divisors,
    factor_profile,
    is_prime,
    ramanujan,
    ramanujan_divisor_sum,
    ramanujan_oracle,
    unit_set,
)
from trisieve.criterion import (
    MODE_TWO_OF_THREE,
    MODE_TWO_PQ,
    count_S,
    find_witness,
    ineq_holds,
    sweep_window,
)
from trisieve.fourier import (
    exceptional_set,
    interval_hat,
    sigma_residue,
    spectral_S,
    verify_error_bound,
)
from trisieve.survey import survey_range, write_csv
from trisieve.triangle import hard_window_pairs

# Guards against closed-form rounding when a proven inequality is tight
# (for instance the coefficient bound at k = n/2); far below any real
# violation, which would be at least of order 1/n.
SLACK = 1e-9


def test_criterion_01_ramanujan_exactness():
    for n in range(1, 201):
        for t in range(n):
            closed = ramanujan(n, t)
            assert closed == ramanujan_oracle(n, t), (n, t)
            assert closed == ramanujan_divisor_sum(n, t), (n, t)
    print("PASS criterion 1: ramanujan closed form = oracle = divisor sum, n <= 200")


def test_criterion_02_prime_power_values():
    assert ramanujan(5, 0) == 4
    assert ramanujan(4, 2) == -2
    assert ramanujan(8, 2) == 0
    print("PASS criterion 2: prime-power Ramanujan values c_5(0)=4, c_4(2)=-2, c_8(2)=0")


def test_criterion_03_spectral_reconstruction():
    checked = 0
    for n in (5, 7, 12, 23, 36, 60):
        for p, q in hard_window_pairs(n):
            dec = spectral_S(p, q, n)  # raises if residual >= 1e-6
            assert dec.residual < 1e-6
            checked += 1
    for n in (101, 202):
        pairs = hard_window_pairs(n)
        step = max(1, len(pairs) // 50)
        sample = pairs[::step][:50]
        assert len(sample) == 50
        for p, q in sample:
            assert spectral_S(p, q, n).residual < 1e-6
            checked += 1
    print(f"PASS criterion 3: spectral residual < 1e-6 on {checked} pairs")


def test_criterion_04_interval_coefficient_bounds():
    for n in range(2, 501):
        for m in sorted({1, n // 3, n - 1}):
            if m < 1:
                continue
            total = 0.0
            for k in range(n):
                value = abs(interval_hat(n, m, k))
                total += value
                if k:
                    assert value <= 1 / (2 * min(k, n - k)) + SLACK, (n, m, k)
            assert total <= 1 + log(n) + SLACK, (n, m)
    print("PASS criterion 4: coefficient and mass bounds hold for n <= 500")


def test_criterion_05_residue_mass_bounds():
    for n in range(2, 301):
        for m in sorted({1, n // 3, n - 1}):
            if m < 1:
                continue
            for d in divisors(n):
                tail = (1 + log(n / d)) / d
                assert sigma_residue(n, m, d, 0) <= m / n + tail + SLACK, (n, m, d)
                for b in range(1, d):
                    cap = 1 / (2 * b) + 1 / (2 * (d - b)) + tail
                    assert sigma_residue(n, m, d, b) <= cap + SLACK, (n, m, d, b)
    print("PASS criterion 5: residue-class mass bounds hold for n <= 300")


def test_criterion_06_weighted_mass_average():
    checked = 0
    for n in (101, 202, 303, 404):
        P = factor_profile(n).largest_prime
        for q in range(1, 21):
            if gcd(q, P) != 1:
                continue
            exc = exceptional_set(n, q, 2.0)
            mean = sum(exc.s_values.values()) / len(exc.s_values)
            assert mean <= 7 * (1 + log(n)) ** 2 / exc.d + SLACK, (n, q)
            checked += 1
    print(f"PASS criterion 6: average weighted mass bound holds on {checked} (n, q) cases")


def test_criterion_07_error_bound_end_to_end():
    checked_total = 0
    for n in (101, 202, 509):
        for q in (2, 3, 7):
            for R in (2, ceil(log(n))):
                exc = exceptional_set(n, q, R)
                cap = factor_profile(exc.d).totient / R
                assert len(exc.members) <= cap, (n, q, R)
                check = verify_error_bound(n, q, R)
                assert check.passed, (n, q, R, check.max_ratio)
                assert check.checked > 0
                checked_total += check.checked
    print(
        "PASS criterion 7: refined error bound and exceptional-set cap hold "
        f"({checked_total} admissible p swept)"
    )


def test_criterion_08_known_families_survive():
    for n in range(5, 61):
        assert not find_witness(1, 1, n, MODE_TWO_OF_THREE).ruled_out, n
    for n in range(8, 61, 2):
        assert not find_witness(1, 2, n, MODE_TWO_OF_THREE).ruled_out, n
        assert not find_witness(2, 1, n, MODE_TWO_OF_THREE).ruled_out, n
    report = find_witness(1, 4, 12, MODE_TWO_OF_THREE)
    assert not report.ruled_out
    # spot check: both usable units mod 12 satisfy zero inequalities
    assert unit_set(12).usable == (5, 11)
    for a in (5, 11):
        assert not ineq_holds(a, 1, 12)
        assert not ineq_holds(a, 4, 12)
        assert not ineq_holds(a, 7, 12)
    # spot check: (1,2,4)/7 also survives
    assert not find_witness(1, 2, 7, MODE_TWO_OF_THREE).ruled_out
    print("PASS criterion 8: known lattice families never ruled out (two-of-three)")


def test_criterion_09_ruled_out_spot_check():
    report = find_witness(5, 6, 23, MODE_TWO_PQ)
    assert report.ruled_out
    assert report.witness == 5
    assert report.s_count == 3
    print("PASS criterion 9: (5,6)/23 ruled out with witness 5 and S = 3")


def test_criterion_10_s_count_invariants():
    pairs_seen = 0
    for n in range(5, 301):
        phi = factor_profile(n).totient
        table = sweep_window(n)
        pairs = zip(table["p"].tolist(), table["q"].tolist())
        s_count = dict(zip(pairs, table["s_count"].tolist()))
        for (p, q), s in s_count.items():
            assert s >= 1, (n, p, q)
            assert s <= phi, (n, p, q)
            assert s == s_count[(q, p)], (n, p, q)
            pairs_seen += 1
    print(f"PASS criterion 10: S floor/symmetry/ceiling over {pairs_seen} pairs, n <= 300")


def test_criterion_11_batch_matches_pointwise():
    for n in range(5, 301):
        table = sweep_window(n)
        pairs = list(zip(table["p"].tolist(), table["q"].tolist()))
        assert pairs == hard_window_pairs(n)
        ruled_pq = table["ruled_two_pq"].tolist()
        ruled_23 = table["ruled_two_of_three"].tolist()
        s_ge5 = (table["s_count"] >= 5).tolist()
        for i, (p, q) in enumerate(pairs):
            report_pq = find_witness(p, q, n, MODE_TWO_PQ)
            report_23 = find_witness(p, q, n, MODE_TWO_OF_THREE)
            s = report_pq.s_count
            assert s == count_S(p, q, n)
            assert (ruled_pq[i], s_ge5[i]) == (report_pq.ruled_out, s >= 5), (n, p, q)
            assert (ruled_23[i], s_ge5[i]) == (report_23.ruled_out, s >= 5), (n, p, q)
    print("PASS criterion 11: batch sweep equals pointwise verdicts for all n <= 300")


def test_criterion_12_density_trend():
    # Measured on this implementation: min frac_ruled = 0.999976 and mean
    # 0.999978 over primes in [1000, 1100]; mean 0.996488 over primes in
    # [50, 150]. The per-prime floor is pinned at 0.999 (tightened from
    # the provisional 0.90); the mean comparison is the hard requirement.
    high = list(survey_range(1000, 1100, "primes"))
    low = list(survey_range(50, 150, "primes"))
    assert high and low
    for rec in high:
        assert rec.frac_ruled >= 0.999, (rec.n, rec.frac_ruled)
    mean_high = sum(r.frac_ruled for r in high) / len(high)
    mean_low = sum(r.frac_ruled for r in low) / len(low)
    assert mean_high > mean_low
    print(
        f"PASS criterion 12: frac_ruled >= 0.999 on primes in [1000, 1100]; "
        f"mean {mean_high:.6f} > {mean_low:.6f}"
    )


def test_criterion_13_csv_determinism():
    first = io.StringIO()
    second = io.StringIO()
    write_csv(survey_range(5, 200), first)
    write_csv(survey_range(5, 200), second)
    assert first.getvalue().encode("utf-8") == second.getvalue().encode("utf-8")
    assert first.getvalue().count("\n") == 197  # header + one row per n
    print("PASS criterion 13: survey CSV for [5, 200] is byte-identical across runs")


def test_prime_filter_sanity():
    # sanity for the trend test's prime enumeration
    assert [n for n in range(1000, 1101) if is_prime(n)][:3] == [1009, 1013, 1019]
