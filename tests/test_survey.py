"""Unit tests for the survey statistics and CSV emission."""

import concurrent.futures
import io
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import ceil, log

import numpy as np
import pytest

import trisieve
from trisieve import fourier, survey
from trisieve.arith import factor_profile, is_prime, unit_set
from trisieve.criterion import _window_p, _word_rows, sweep_window
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
from trisieve.triangle import FAMILY_NONE, _window_lo, classify, normalize


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

    def test_block_prefix_is_exact(self):
        # survey_n counts region C as a prefix of each half-window block
        # (x, q), q ascending from x to (n - 2x - 1) // 2 with gcd(x, q, n) = 1.
        # A block depends on n and x alone and a cut eta only drops the
        # blocks with x < lo, so the blocks at eta 0 hold those at 1/7 and 1/24
        for n in [*range(16, 1201), 2048, 2310, 20011]:
            for x in range(1, (n - 1) // 4 + 1):
                q = np.arange(x, (n - 2 * x - 1) // 2 + 1)
                q = q[np.gcd(q, np.gcd(x, n)) == 1]
                want = np.count_nonzero(in_region_C(n, x, q))
                assert survey._region_c_count(n, x, q) == want, (n, x)
        # the floor of the bound is met with equality, at the pair (17, 19)
        # of n = 73 among others; the bound is an integer at no n < 20000
        assert 33 * 37 == int(73 ** (2.0 - 1.0 / (2.0 * log(log(73)))))
        assert in_region_C(73, 17, 19) and not in_region_C(73, 17, 20)


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

    def test_certified_deep_audit_sums_no_unit_mass(self, monkeypatch):
        # |W|_2 sqrt((2q-1)/d) clears the threshold at every q of these n
        # (worst ratios 0.18, 0.034 and 0.058), so the audit needs no S(u)
        def no_sums(d):
            raise AssertionError(f"S(u) summed mod {d}")

        monkeypatch.setattr(fourier, "unit_set", no_sums)
        assert survey_n(509, deep_audit=True).e_n == 0
        assert survey_n(60, deep_audit=True).e_n == 44
        assert survey_n(300, deep_audit=True).e_n == 1180
        exc = exceptional_set(509, 100, ceil(log(509)))
        # read later, s_values still holds every unit, summed once
        summed = []
        monkeypatch.setattr(fourier, "unit_set", lambda d: summed.append(d) or unit_set(d))
        assert set(exc.s_values) == set(range(1, 509))
        assert len(exc.s_values) == 508 and max(exc.s_values.values()) > 0
        assert summed == [509]

    def test_certified_deep_audit_takes_no_fft(self, monkeypatch):
        # the certificate bounds |mass|_2 by Parseval, so where it clears
        # every q the audit never takes the interval's FFT
        def no_fft(n, m):
            raise AssertionError(f"FFT of the interval {{1..{m}}} mod {n}")

        monkeypatch.setattr(fourier, "_interval_hats", no_fft)
        assert survey_n(509, deep_audit=True).e_n == 0
        assert survey_n(60, deep_audit=True).e_n == 44
        assert survey_n(300, deep_audit=True).e_n == 1180

    @pytest.mark.parametrize("n, worst", [(2003, 0.4378), (4001, 0.6663)])
    def test_deep_audit_at_larger_primes(self, n, worst, monkeypatch):
        # the certificate clears every q, so no S(u) is summed; its worst
        # ratio to the threshold over q lies within 1e-3 of worst: scaling
        # the threshold 7 R (1 + log n)^2 / d by worst + 1e-3 through log
        # still clears every q, scaling it by worst - 1e-3 leaves some q open.
        # At a prime n the bound grows with q (Parseval: |mass|_2^2 = (2q-1)/n),
        # so the scan runs from the top q down and stops at the first one open
        summed = []
        monkeypatch.setattr(fourier, "unit_set", lambda d: summed.append(d) or unit_set(d))
        assert survey_n(n, deep_audit=True).e_n == 0
        assert summed == []
        R = ceil(log(n))
        for c, opened in ((worst + 1e-3, False), (worst - 1e-3, True)):
            with monkeypatch.context() as m:
                m.setattr(fourier, "log", lambda x: c**0.5 * (1.0 + log(x)) - 1.0)
                for q in range((n - 3) // 2, 0, -1):
                    assert not exceptional_set(n, q, R).members
                    if summed:
                        break
            assert bool(summed) == opened, c

    def test_deep_audit_r_is_ceil_log_n(self, monkeypatch):
        # e_n does not move with R at desk scale, so pin R where it reaches
        # the certificate, which settles every q at these n
        seen = set()
        real = survey._certified

        def recording(n, q, R):
            seen.add((n, R))
            return real(n, q, R)

        monkeypatch.setattr(survey, "_certified", recording)
        for n in (60, 97, 300):
            survey_n(n, deep_audit=True)
        assert seen == {(60, 5), (97, 5), (300, 6)}

    def test_deep_audit_is_q_div_P(self):
        # every real exceptional set is empty at these n, so the audit
        # excludes exactly the P | p pairs, which by p <-> q symmetry number
        # q_div_P; the table counts P | p itself at the composites
        big = (547, 1009, 1900, 2002, 2048, 2310, 4001)
        for eta in (0, Fraction(1, 7)):
            for n in (*range(5, 401), *big):
                rec = survey_n(n, eta, deep_audit=True)
                assert rec.e_n == rec.q_div_P, (n, eta)
                assert type(rec.e_n) is int
        for n, eta in ((60, 0), (300, Fraction(1, 7)), (1900, 0), (2310, 0)):
            table = sweep_window(n, eta)
            P = factor_profile(n).largest_prime
            multiples = np.count_nonzero(table["p"] % P == 0)
            assert multiples == survey_n(n, eta).q_div_P > 0, (n, eta)

    def test_deep_audit_folds_weights_once_per_n(self, monkeypatch):
        # the certificate runs once over every q of n, so W is folded once
        folds = []
        real = fourier._folded_weights
        monkeypatch.setattr(fourier, "_folded_weights", lambda n: folds.append(n) or real(n))
        survey_n(300, deep_audit=True)
        assert folds == [300]
        survey_n(97, Fraction(1, 7), deep_audit=True)
        assert folds == [300, 97]
        assert real(300).size == 25

    def test_q_div_P_is_window_p_over_multiples_of_P(self, monkeypatch):
        # with no kernel blocks, survey_n counts only q_div_P, so n = 30030 is cheap
        monkeypatch.setattr(survey, "_half_window", lambda n, lo: iter(()))
        for eta in (0, Fraction(1, 7)):
            for n in (*range(5, 601), 2048, 2310, 4096, 30030):
                lo, P = _window_lo(n, eta), factor_profile(n).largest_prime
                multiples = [q for q in range(lo, (n - 2 * lo - 1) // 2 + 1) if q % P == 0]
                expected = sum(_window_p(n, q, lo).size for q in multiples)
                assert survey_n(n, eta).q_div_P == expected, (n, eta)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            survey_n(4)

    def test_streaming_matches_table(self):
        etas = (0, Fraction(1, 7), Fraction(1, 10))
        cases = [(n, eta) for n in range(5, 301) for eta in etas]
        cases += [(n, 0) for n in (*range(301, 401), 686, 1000, 1024, 1900, 2310)]
        # P = 23 divides some p: q_div_P counts the q column, not q and p alike;
        # below, P < lo, so the multiples of P start above lo, rounded up
        cases += [(n, Fraction(1, 7)) for n in (2300, 1900, 2310, 2048)]
        for n, eta in cases:
            tally = record_tally(survey_n(n, eta))
            assert tally == table_tally(n, eta), (n, eta)
            # Python ints, as in the record's repr, not numpy scalars
            assert all(type(count) is int for count in tally[:6]), (n, eta)
        assert table_tally(2300, Fraction(1, 7))[5] == 3589
        # P = 19 and 11 lie below n/4, so p and q both take multiples of P
        assert [table_tally(n)[5] for n in (1900, 2310)] == [16020, 34440]

    def test_deep_audit_matches_table(self):
        for n in (60, 97, 250, 300):
            assert survey_n(n, deep_audit=True).e_n == table_e_n(n), n

    def test_deep_audit_exceptional_classes(self, monkeypatch):
        # the real sets are empty here, so only the fake reaches p mod d
        cases = [(n, eta) for n in (60, 97, 250, 256, 300) for eta in (0, Fraction(1, 7))]
        real = {case: survey_n(*case, deep_audit=True).e_n for case in cases}
        cut = [real[n, Fraction(1, 7)] for n in (60, 97, 250, 256, 300)]
        assert cut == [9, 0, 160, 378, 228]
        # the certificate settles every q here, so leave every q open to it
        asked = []

        def asking(n, q, R):
            asked.append(q)
            return fake_exceptional_set(n, q, R)

        monkeypatch.setattr(survey, "_certified", lambda n, q, R: np.zeros(q.shape, bool))
        monkeypatch.setattr(survey, "exceptional_set", asking)
        for n, eta in cases:
            asked.clear()
            e_n = survey_n(n, eta, deep_audit=True).e_n
            assert e_n == table_e_n(n, eta, fake_classes), (n, eta)
            assert e_n != real[n, eta], (n, eta)
            lo, P = _window_lo(n, eta), factor_profile(n).largest_prime
            assert asked == [q for q in range(lo, (n - 2 * lo - 1) // 2 + 1) if q % P], (n, eta)

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

    def test_kernel_transients_fit_two_column_blocks(self):
        # beyond the bit columns, the kernel's temporaries stay within two
        # blocks of (n - 3) // 2 columns, also at x = 1, where every pair is
        # open and its q- and r-columns are all gathered. The bit array is
        # word-major, (words, n), so a column takes words * 8 bytes, and
        # the row build's reused buffers (1.2 MB at n = 4001) fit beside it
        n = 4001
        cols = _word_rows(n, 1)
        block = (n - 3) // 2 * cols.shape[0] * cols.itemsize
        survey_n(n)  # fills the unit and factor caches
        tracemalloc.start()
        try:
            survey_n(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cols.nbytes + 2 * block


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

        # survey_range imports the pool class only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)

        def allow(cpus):  # the affinity mask; os may lack sched_getaffinity
            affinity = set(range(cpus))
            monkeypatch.setattr(
                survey.os, "sched_getaffinity", lambda pid: affinity, raising=False
            )

        allow(8)
        monkeypatch.setattr(survey.os, "cpu_count", lambda: 8)
        assert [r.n for r in survey_range(5, 7, workers=64)] == [5, 6, 7]
        assert [r.n for r in survey_range(5, 40, workers=64)] == list(range(5, 41))
        assert [r.n for r in survey_range(5, 40, workers=2)] == list(range(5, 41))
        # pinned to one CPU (taskset -c 0) of a machine with more
        allow(1)
        assert len(list(survey_range(5, 40, workers=2))) == 36  # serial, no pool
        # a platform without affinity masks falls back to the CPU count
        monkeypatch.delattr(survey.os, "sched_getaffinity", raising=False)
        assert len(list(survey_range(5, 40, workers=64))) == 36
        monkeypatch.setattr(survey.os, "cpu_count", lambda: None)
        assert len(list(survey_range(5, 40, workers=64))) == 36  # serial, no pool
        assert sizes == [3, 8, 2, 8]

    def test_import_loads_no_process_pool(self):
        # a serial survey never starts a pool, so importing the package
        # leaves multiprocessing unloaded
        src = os.path.dirname(os.path.dirname(trisieve.__file__))
        code = "import sys, trisieve; print(sorted(m for m in sys.modules if "
        code += "m.startswith(('concurrent.futures.process', 'multiprocessing'))))"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n"

    def test_survey_loads_no_module(self):
        # the survey path imports nothing past import trisieve; np.unique,
        # for one, loads numpy.ma on its first call (14 ms, 1.2 MB)
        src = os.path.dirname(os.path.dirname(trisieve.__file__))
        code = (
            "import sys, trisieve\n"
            "from fractions import Fraction\n"
            "before = set(sys.modules)\n"
            "trisieve.survey_n(547, deep_audit=True)\n"
            "trisieve.survey_n(2048, Fraction(1, 7), deep_audit=True)\n"
            "trisieve.survey_n(2310)\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n"

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
