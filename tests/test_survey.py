"""Unit tests for the survey statistics and CSV emission."""

import io
import tracemalloc
from fractions import Fraction
from math import ceil, log

import numpy as np
import pytest

from trisieve import fourier, survey
from trisieve.arith import factor_profile, is_prime, unit_set
from trisieve.criterion import sweep_window
from trisieve.fourier import ExceptionalSet, exceptional_set
from trisieve.survey import (
    CSV_HEADER,
    in_region_C,
    omega_plus_member,
    record_row,
    survey_n,
    survey_range,
    write_csv,
)
from trisieve.triangle import FAMILY_NONE, classify, normalize


def row_of(table, p, q):
    """The one row of a sweep_window table that holds the pair (p, q)."""
    (index,) = np.flatnonzero((table["p"] == p) & (table["q"] == q))
    return table[index]


def table_tally(n, eta=0):
    """The CSV counts of n tallied from the full sweep_window table, one
    row per pair: the reference for survey_n's block tallies."""
    table = sweep_window(n, eta)
    p, q = table["p"], table["q"]
    h_size = len(table)
    ruled_23 = int(table["ruled_two_of_three"].sum())
    return (
        h_size,
        int(table["ruled_two_pq"].sum()),
        ruled_23,
        int((table["s_count"] >= 5).sum()),
        int(in_region_C(n, p, q).sum()) if n >= 16 else 0,
        int((q % factor_profile(n).largest_prime == 0).sum()),
        ruled_23 / h_size if h_size else 0.0,
    )


def record_tally(rec):
    return (
        rec.h_size,
        rec.ruled_two_pq,
        rec.ruled_two_of_three,
        rec.s_ge5,
        rec.in_C,
        rec.q_div_P,
        rec.frac_ruled,
    )


def real_classes(n, q, R):
    return exceptional_set(n, q, R).members


def fake_exceptional_set(n, q, R):
    """Stand-in with nonempty classes -q*u mod d for u = -1 and -2, less
    multiples of P: at desk scale every real exceptional set is empty."""
    prof = factor_profile(n)
    P = prof.largest_prime
    d = P ** prof.valuation(P)
    members = {b for b in (q % d, 2 * q % d) if b % P}
    return ExceptionalSet(d, frozenset(members), {})


def fake_classes(n, q, R):
    return fake_exceptional_set(n, q, R).members


def table_e_n(n, eta=0, classes=real_classes):
    """e_n counted pair by pair over the full sweep_window table, with the
    exceptional classes of q given by classes(n, q, R)."""
    table = sweep_window(n, eta)
    prof = factor_profile(n)
    P = prof.largest_prime
    d = P ** prof.valuation(P)
    members = {}
    count = 0
    for p, q in zip(table["p"].tolist(), table["q"].tolist()):
        if q % P == 0:
            continue
        if q not in members:
            members[q] = classes(n, q, ceil(log(n)))
        count += p % P == 0 or p % d in members[q]
    return count


class TestOmegaPlus:
    def test_examples(self):
        assert omega_plus_member(101) is True  # threshold ~ 20.4
        assert omega_plus_member(1024) is False  # threshold ~ 35.9, largest prime 2
        assert omega_plus_member(16) is False  # threshold ~ 15.2, largest prime 2

    def test_small_n_is_null(self):
        for n in range(2, 16):
            assert omega_plus_member(n) is None

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            omega_plus_member(1)

    def test_primes_above_threshold(self):
        for n in (17, 101, 509, 1009):
            assert omega_plus_member(n) is True


class TestRegionC:
    def test_examples(self):
        assert in_region_C(100, 1, 1) is True
        assert in_region_C(100, 25, 24) is False  # 49 * 47 = 2303 above threshold

    def test_unit_pair_always_inside(self):
        for n in (16, 50, 333, 4000):
            assert in_region_C(n, 1, 1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            in_region_C(15, 1, 1)


class TestSurveyN:
    def test_n23(self):
        rec = survey_n(23)
        assert rec.h_size == 55
        assert rec.ruled_two_pq >= 1
        assert row_of(sweep_window(23), 5, 6)["ruled_two_pq"]
        assert rec.p_plus == 23
        assert rec.frac_ruled == pytest.approx(rec.ruled_two_of_three / 55)

    def test_n5(self):
        rec = survey_n(5)
        assert rec.h_size == 1
        assert rec.ruled_two_pq == 0
        assert rec.ruled_two_of_three == 0
        assert rec.omega_plus is None
        assert rec.in_C == 0  # region undefined below 16, reported empty

    def test_n12_hooper_survives(self):
        rec = survey_n(12)
        assert rec.h_size == 9
        table = sweep_window(12)
        assert not row_of(table, 1, 4)["ruled_two_of_three"]
        assert not row_of(table, 4, 1)["ruled_two_of_three"]

    def test_mode_monotone_counts(self):
        for n in (12, 23, 61, 90):
            rec = survey_n(n)
            assert rec.ruled_two_pq <= rec.ruled_two_of_three <= rec.h_size
            assert rec.s_ge5 <= rec.h_size
            assert 0.0 <= rec.frac_ruled <= 1.0

    def test_q_div_bound(self):
        for n in range(5, 150):
            rec = survey_n(n)
            assert rec.q_div_P <= rec.h_size * 2 / rec.p_plus + n

    def test_no_family_member_ruled(self):
        for n in range(5, 121):
            table = sweep_window(n)
            ruled = table[table["ruled_two_of_three"]]
            for p, q in zip(ruled["p"].tolist(), ruled["q"].tolist()):
                label = classify(normalize(p, q, n - p - q)).family
                assert label == FAMILY_NONE

    def test_deep_audit(self):
        rec = survey_n(60, deep_audit=True)
        assert rec.e_n is not None
        assert 0 <= rec.e_n <= rec.h_size
        assert survey_n(60).e_n is None
        # exact values: a composite n, and n = 300 on the d = 25 prime-power path
        assert rec.e_n == 44
        assert survey_n(300, deep_audit=True).e_n == 1180

    def test_deep_audit_r_is_ceil_log_n(self, monkeypatch):
        # e_n does not move with R at desk scale, so pin R at the call
        seen = set()
        real = survey.exceptional_set

        def recording(n, q, R):
            seen.add((n, R))
            return real(n, q, R)

        monkeypatch.setattr(survey, "exceptional_set", recording)
        for n in (60, 97, 300):
            survey_n(n, deep_audit=True)
        assert seen == {(60, 5), (97, 5), (300, 6)}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            survey_n(4)

    def test_streaming_matches_table(self):
        etas = (0, Fraction(1, 7), Fraction(1, 10))
        cases = [(n, eta) for n in range(5, 301) for eta in etas]
        cases += [(n, 0) for n in (686, 1000, 1024, 2310)]
        # P = 23 divides some p: q_div_P counts the q column, not q and p alike
        cases += [(2300, Fraction(1, 7))]
        for n, eta in cases:
            assert record_tally(survey_n(n, eta)) == table_tally(n, eta), (n, eta)
        assert table_tally(2300, Fraction(1, 7))[5] == 3589

    def test_deep_audit_matches_table(self):
        for n in (60, 97, 250, 300):
            assert survey_n(n, deep_audit=True).e_n == table_e_n(n), n

    def test_deep_audit_exceptional_classes(self, monkeypatch):
        # the real sets are empty here, so only the fake reaches p mod d
        cases = [(n, eta) for n in (60, 97, 250, 256, 300) for eta in (0, Fraction(1, 7))]
        real = {case: survey_n(*case, deep_audit=True).e_n for case in cases}
        cut = [real[n, Fraction(1, 7)] for n in (60, 97, 250, 256, 300)]
        assert cut == [9, 0, 160, 378, 228]
        monkeypatch.setattr(survey, "exceptional_set", fake_exceptional_set)
        for case in cases:
            e_n = survey_n(*case, deep_audit=True).e_n
            assert e_n == table_e_n(*case, fake_classes), case
            assert e_n != real[case], case

    def test_deep_audit_lowered_threshold(self, monkeypatch):
        # the real sets are empty here, so lower the threshold through log:
        # 7 R (1 + log n)^2 / d becomes the median S(u) over every q and unit;
        # a tie at it cannot split the two counts, which read the same sets
        cases = [(n, eta) for n in (97, 250, 300) for eta in (0, Fraction(1, 7))]
        real = {case: survey_n(*case, deep_audit=True).e_n for case in cases}
        for n in (97, 250, 300):
            prof = factor_profile(n)
            P = prof.largest_prime
            d = P ** prof.valuation(P)
            R = ceil(log(n))
            masses = [
                s
                for q in range(1, (n - 3) // 2 + 1)
                if q % P
                for s in exceptional_set(n, q, R).s_values.values()
            ]
            log_n = (float(np.median(masses)) * d / (7.0 * R)) ** 0.5 - 1.0
            monkeypatch.setattr(fourier, "log", lambda x: log_n)
            for eta in (0, Fraction(1, 7)):
                e_n = survey_n(n, eta, deep_audit=True).e_n
                assert e_n == table_e_n(n, eta), (n, eta)
                assert e_n != real[n, eta], (n, eta)
            monkeypatch.undo()

    def test_memory_is_linear_in_n(self):
        # tallying a table with one row per window pair peaks at 41 MiB
        unit_set(2003)
        factor_profile(2003)
        tracemalloc.start()
        try:
            survey_n(2003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestSurveyRange:
    def test_counts(self):
        assert len(list(survey_range(5, 30, "all"))) == 26
        primes = list(survey_range(5, 30, "primes"))
        assert [r.n for r in primes] == [5, 7, 11, 13, 17, 19, 23, 29]

    def test_omega_filter(self):
        records = list(survey_range(5, 40, "omega_plus"))
        assert all(r.omega_plus is True for r in records)
        assert all(r.n >= 16 for r in records)
        assert all(omega_plus_member(r.n) for r in records)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(survey_range(4, 30))
        with pytest.raises(ValueError):
            list(survey_range(30, 5))
        with pytest.raises(ValueError):
            list(survey_range(5, 30, "weird"))

    def test_deterministic_and_parallel_identical(self):
        serial = list(survey_range(5, 45))
        again = list(survey_range(5, 45))
        parallel = list(survey_range(5, 45, workers=3))
        assert serial == again == parallel

    def test_pool_never_exceeds_denominators_or_cpus(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(survey, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 8)
        assert [r.n for r in survey_range(5, 7, workers=64)] == [5, 6, 7]
        assert [r.n for r in survey_range(5, 40, workers=64)] == list(range(5, 41))
        assert [r.n for r in survey_range(5, 40, workers=2)] == list(range(5, 41))
        monkeypatch.setattr(survey.os, "cpu_count", lambda: None)
        assert len(list(survey_range(5, 40, workers=64))) == 36  # serial, no pool
        assert sizes == [3, 8, 2]

    def test_eta_threads_through(self):
        plain = list(survey_range(30, 40, eta=0))
        trimmed = list(survey_range(30, 40, eta=Fraction(1, 20)))
        assert all(t.h_size <= p.h_size for t, p in zip(trimmed, plain))


class TestCsv:
    def test_header_and_rows(self):
        buffer = io.StringIO()
        rows = write_csv(survey_range(5, 30, "primes"), buffer)
        text = buffer.getvalue()
        lines = text.splitlines()
        assert rows == 8
        assert lines[0] == CSV_HEADER
        assert len(lines) == 9
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "5"
        assert first[2] == "na"
        assert first[-1] == "0.000000"

    def test_omega_serialization(self):
        values = {r.n: record_row(r).split(",")[2] for r in survey_range(5, 20)}
        assert values[5] == "na"
        assert values[16] == "false"
        assert values[17] == "true"

    def test_frac_six_digits(self):
        rec = survey_n(23)
        row = record_row(rec)
        frac = row.split(",")[-1]
        assert frac == f"{rec.frac_ruled:.6f}"
        assert len(frac.split(".")[1]) == 6

    def test_byte_identical_runs(self):
        one = io.StringIO()
        two = io.StringIO()
        write_csv(survey_range(5, 60), one)
        write_csv(survey_range(5, 60), two)
        assert one.getvalue().encode() == two.getvalue().encode()


class TestFilterHelpers:
    def test_prime_filter_matches_is_prime(self):
        records = list(survey_range(5, 80, "primes"))
        assert [r.n for r in records] == [n for n in range(5, 81) if is_prime(n)]

    def test_p_plus_column(self):
        for rec in survey_range(5, 60):
            assert rec.p_plus == factor_profile(rec.n).largest_prime
