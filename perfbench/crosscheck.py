"""One-time cross-check of the stored survey references against the
pointwise oracles.

For the smallest denominator of each survey pool, recompute the CSV row
pair by pair with ``find_witness`` (both modes) and ``count_S``; enumerate
the window, the region-C test, the largest prime factor and omega_plus
here, from their definitions. For the deep-audit pool, also recompute e_n
with numpy's FFT for the interval coefficients instead of trisieve's
closed form. Prints one line per denominator; exits 1 on any mismatch.

    python3 perfbench/crosscheck.py        # about ten minutes, one core
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import audit_r, audit_threshold, exceptional_masses, largest_prime  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def window(n: int, eta: Fraction):
    for p in range(1, n):
        for q in range(1, n):
            if 2 * (p + q) >= n:
                break
            if math.gcd(p, q, n) == 1 and min(p, q) * eta.denominator > eta.numerator * n:
                yield p, q


def csv_row(n: int, eta: Fraction) -> str:
    from trisieve import count_S, find_witness

    P = largest_prime(n)
    loglog = math.log(math.log(n))
    omega = "true" if P >= n ** (1.0 / loglog) else "false"
    c_bound = n ** (2.0 - 1.0 / (2.0 * loglog))
    h = pq = two3 = ge5 = in_c = q_div = 0
    for p, q in window(n, eta):
        h += 1
        pq += find_witness(p, q, n, "two_pq").ruled_out
        two3 += find_witness(p, q, n, "two_of_three").ruled_out
        ge5 += count_S(p, q, n) >= 5
        in_c += (2 * p - 1) * (2 * q - 1) <= c_bound
        q_div += q % P == 0
    return f"{n},{P},{omega},{h},{pq},{two3},{ge5},{in_c},{q_div},{two3 / h:.6f}"


def e_n(n: int) -> tuple[int, float]:
    """Exceptional-region size and the largest S(u)/threshold seen."""
    P = largest_prime(n)
    R = audit_r(n)
    members, worst = {}, 0.0
    count = 0
    for p, q in window(n, Fraction(0)):
        if q % P == 0:
            continue
        if p % P == 0:
            count += 1
            continue
        if q not in members:
            d, _, s, classes = exceptional_masses(n, q, R)
            worst = max(worst, float(s.max() / audit_threshold(n, d, R)))
            members[q] = (d, set(classes))
        d, classes = members[q]
        count += p % d in classes
    return count, worst


def main() -> int:
    ok = True
    for name in ("survey-prime", "survey-cut", "deep-audit"):
        w = WORKLOADS[name]
        ref = json.loads((HERE / "reference" / f"{name}.json").read_text())
        n = min(w.pool)
        stored = ref["outputs"][str(n)]
        eta = Fraction(w.flags[w.flags.index("--eta") + 1]) if "--eta" in w.flags else Fraction(0)
        row = csv_row(n, eta)
        same = row == stored["stdout"].splitlines()[1]
        line = f"{name} n={n}: oracle row {row} {'matches' if same else 'DIFFERS from'} reference"
        if "--deep-audit" in w.flags:
            count, worst = e_n(n)
            audit = f"# deep-audit n={n} e_n={count}\n"
            same_audit = audit == stored["stderr"]
            same = same and same_audit
            line += (
                f"; FFT e_n={count} (max S(u)/threshold {worst:.4f}) "
                f"{'matches' if same_audit else 'DIFFERS from'} reference"
            )
        ok = ok and same
        print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
