"""Named verification sweeps behind the CLI's `verify` subcommand.

Each suite returns (passed, message); on failure the message carries the
first counterexample found. Inequality checks that can be tight in exact
arithmetic (the coefficient bound at k = n/2, for instance) get a 1e-9
absolute allowance for closed-form rounding; everything else is compared
as computed.
"""

from __future__ import annotations

from math import log

from .arith import (
    divisors,
    factor_profile,
    ramanujan,
    ramanujan_divisor_sum,
    ramanujan_oracle,
)
from .criterion import MODE_TWO_OF_THREE, find_witness
from .fourier import interval_hat, sigma_residue, spectral_S, verify_error_bound
from .triangle import (
    FAMILY_HOOPER,
    FAMILY_ONE,
    FAMILY_TWO,
    classify,
    hard_window_pairs,
    normalize,
)

_SLACK = 1e-9


def ramanujan_suite(max_n: int) -> tuple[bool, str]:
    """Closed form == exponential-sum oracle == divisor identity, for all
    n <= max_n and every residue t. Rejects max_n < 1."""
    if max_n < 1:
        raise ValueError(f"ramanujan suite needs max_n >= 1, got {max_n}")
    for n in range(1, max_n + 1):
        for t in range(n):
            closed = ramanujan(n, t)
            oracle = ramanujan_oracle(n, t)
            divisor_sum = ramanujan_divisor_sum(n, t)
            if closed != oracle or closed != divisor_sum:
                return False, (
                    f"counterexample at n={n}, t={t}: closed={closed} "
                    f"oracle={oracle} divisor_sum={divisor_sum}"
                )
    return True, f"ramanujan: closed form = oracle = divisor sum for all n <= {max_n}"


def _m_grid(n: int) -> list[int]:
    return sorted({m for m in (1, n // 3, n - 1) if m >= 1})


def fourier_bounds_suite(max_n: int) -> tuple[bool, str]:
    """Coefficient decay and total-mass bounds for the interval
    coefficients for 2 <= n <= max_n, then the residue-class mass bounds
    over every divisor for n <= 300. Rejects max_n < 2."""
    if max_n < 2:
        raise ValueError(f"fourier-bounds suite needs max_n >= 2, got {max_n}")
    for n in range(2, max_n + 1):
        for m in _m_grid(n):
            total = 0.0
            for k in range(n):
                value = abs(interval_hat(n, m, k))
                total += value
                if k and value > 1.0 / (2 * min(k, n - k)) + _SLACK:
                    return False, f"coefficient bound fails at n={n}, m={m}, k={k}"
            if total > 1.0 + log(n) + _SLACK:
                return False, f"mass bound fails at n={n}, m={m}: {total:.9f}"
    for n in range(2, 301):
        for m in _m_grid(n):
            for d in divisors(n):
                tail = (1.0 + log(n / d)) / d
                for b in range(d):
                    value = sigma_residue(n, m, d, b)
                    if b == 0:
                        cap = m / n + tail
                    else:
                        cap = 1.0 / (2 * b) + 1.0 / (2 * (d - b)) + tail
                    if value > cap + _SLACK:
                        return False, (
                            f"residue mass bound fails at n={n}, m={m}, d={d}, b={b}: "
                            f"{value:.9f} > {cap:.9f}"
                        )
    return True, (
        f"interval coefficient bounds hold to n = {max_n}; "
        "residue-class mass bounds hold to n = 300"
    )


def spectral_suite() -> tuple[bool, str]:
    """Reconstruction residual below 1e-6 for every window pair of n = 5,
    7, 12, 23, 36 and 60, and for 50 pairs taken at a fixed stride for
    n = 101 and 202."""
    checked = 0
    try:
        for n in (5, 7, 12, 23, 36, 60):
            for p, q in hard_window_pairs(n):
                spectral_S(p, q, n)
                checked += 1
        for n in (101, 202):
            pairs = hard_window_pairs(n)
            step = max(1, len(pairs) // 50)
            for p, q in pairs[::step][:50]:
                spectral_S(p, q, n)
                checked += 1
    except ArithmeticError as exc:
        return False, f"spectral reconstruction failed: {exc}"
    return True, f"spectral reconstruction residual < 1e-6 on {checked} pairs"


def error_bound_suite(n: int, q: int, R: float) -> tuple[bool, str]:
    """Refined error bound over all admissible p, plus the cardinality cap
    phi(d)/R on the exceptional residue classes. Raises ValueError when
    the window holds no p for q."""
    check = verify_error_bound(n, q, R)
    exc = check.exceptional
    cap = factor_profile(exc.d).totient / R
    size_ok = len(exc.members) <= cap
    ok = check.passed and size_ok
    message = (
        f"error bound n={n} q={q} R={R}: max ratio {check.max_ratio:.6f} "
        f"over {check.checked} admissible p; exceptional classes "
        f"{len(exc.members)} (cap {cap:.2f})"
    )
    if not ok:
        message = "FAILED " + message
    return ok, message


def regression_families_suite(max_n: int) -> tuple[bool, str]:
    """The known lattice families must never be ruled out in two-of-three
    mode: the {1,1,n-2} family, the obtuse {1,2,n-3} members with even
    denominator, and the sporadic {1,4,7}/12 triangle. Rejects max_n < 5."""
    if max_n < 5:
        raise ValueError(f"regression-families suite needs max_n >= 5, got {max_n}")
    cases: list[tuple[int, int, int, str]] = []
    for n in range(5, max_n + 1):
        cases.append((1, 1, n, FAMILY_ONE))
    for n in range(8, max_n + 1, 2):
        cases.append((1, 2, n, FAMILY_TWO))
        cases.append((2, 1, n, FAMILY_TWO))
    if max_n >= 12:
        cases.append((1, 4, 12, FAMILY_HOOPER))
        cases.append((4, 1, 12, FAMILY_HOOPER))
    for p, q, n, family in cases:
        label = classify(normalize(p, q, n - p - q)).family
        if label != family:
            return False, (
                f"classification drifted for ({p},{q},{n - p - q})/{n}: got {label}"
            )
        report = find_witness(p, q, n, MODE_TWO_OF_THREE)
        if report.ruled_out:
            return False, (
                f"known lattice triangle ({p},{q})/{n} was ruled out "
                f"(witness {report.witness})"
            )
    return True, f"known families survive: {len(cases)} triangles checked up to n = {max_n}"
