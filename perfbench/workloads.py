"""The benchmark's workloads: input pools, seeded draws, and the CLI argv of
every call.

Standard library only and no trisieve import, so that the inputs of a run
can be named without the program under test.

Each run draws its inputs from a fixed pool with ``random.Random(seed)``.
The draws are stratified: the sorted pool is cut into as many contiguous
strata as a round of the run makes calls, one input comes from each
stratum, and the picks lie symmetric about the middle of the pool
(stratum i at relative position u, stratum k-1-i at 1 - u). Call cost
rises with n, so the total work of a round, and its median call, then
hardly depend on the seed, and run-to-run spreads measure the program
rather than the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

THREADS = ["--threads", "1"]


def primes_between(lo: int, hi: int) -> tuple[int, ...]:
    """Primes in [lo, hi] by trial division."""
    return tuple(
        n
        for n in range(max(lo, 2), hi + 1)
        if all(n % d for d in range(2, int(n**0.5) + 1))
    )


def survey_argv(n: int, flags: tuple[str, ...]) -> list[str]:
    """One survey call that covers the single denominator n."""
    return THREADS + ["survey", "--min", str(n), "--max", str(n), *flags]


@dataclass(frozen=True)
class Workload:
    name: str
    # nominal seconds per call on the reference machine (2 cores, Python
    # 3.11); only sizes a run so that it lasts about --seconds
    seconds_per_call: float
    pool: tuple[int, ...]
    # survey flags; None marks the pointwise stream
    flags: tuple[str, ...] | None


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey-prime",
            3.3,
            primes_between(1900, 2300),
            ("--filter", "primes"),
        ),
        Workload(
            "survey-cut",
            0.75,
            tuple(range(1900, 2301)),
            ("--filter", "all", "--eta", "1/7"),
        ),
        Workload(
            "deep-audit",
            2.4,
            primes_between(480, 620),
            ("--filter", "primes", "--deep-audit"),
        ),
        Workload(
            "pointwise",
            0.05,
            tuple(range(1000, 3001)),
            None,
        ),
    )
}

# a survey-cut round takes consecutive n in this many blocks, one per stratum
CUT_BLOCKS = 4
# p90 needs at least ten samples beyond it
MIN_POINTWISE_CALLS = 102
POINTWISE_KINDS = ("check", "count", "spectrum")


def _stratified(pool, k: int, rng: random.Random, width: int = 1) -> list[list[int]]:
    """k runs of `width` consecutive pool items, one inside each of k
    contiguous strata. Strata i and k-1-i take mirrored positions, so the
    picks lie symmetric about the middle of the pool."""
    u = [rng.random() for _ in range(k // 2)]
    picks = []
    for i in range(k):
        m = k - 1 - i
        pos = u[i] if i < m else 1.0 - u[m] if i > m else 0.5
        lo = len(pool) * i // k
        hi = len(pool) * (i + 1) // k
        slots = hi - lo - width + 1
        if slots < 1:
            raise ValueError(f"stratum {i} of {k} is narrower than {width}")
        start = lo + min(int(pos * slots), slots - 1)
        picks.append(list(pool[start : start + width]))
    return picks


def _window_pair(n: int, rng: random.Random) -> tuple[int, int]:
    """A pair with p, q >= 1, 2(p + q) < n and gcd(p, q, n) = 1."""
    while True:
        s = rng.randint(2, (n - 1) // 2)
        p = rng.randint(1, s - 1)
        q = s - p
        if gcd(p, q, n) == 1:
            return p, q


def pointwise_argv(kind: str, p: int, q: int, n: int) -> list[str]:
    argv = THREADS + [kind, str(p), str(q), str(n)]
    if kind == "check":
        argv += ["--mode", "two-of-three"]
    return argv


def draw_calls(name: str, seed: int, seconds: float) -> list[list[str]]:
    """The argv of every call one round makes, in order, sized to last
    about `seconds`. The same (name, seed, seconds) always gives the same
    list."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    if w.flags is None:
        per_kind = max(MIN_POINTWISE_CALLS // 3, round(seconds / w.seconds_per_call / 3))
        calls = []
        for kind in POINTWISE_KINDS:
            for (n,) in _stratified(w.pool, per_kind, rng):
                calls.append(pointwise_argv(kind, *_window_pair(n, rng), n))
        rng.shuffle(calls)
        return calls
    # even, so that every stratum has a mirrored partner
    count = 2 * max(1, round(seconds / w.seconds_per_call / 2))
    if name == "survey-cut":
        width = max(1, round(count / CUT_BLOCKS))
        ns = [n for block in _stratified(w.pool, CUT_BLOCKS, rng, width) for n in block]
    else:
        ns = [n for (n,) in _stratified(w.pool, count, rng)]
    rng.shuffle(ns)
    return [survey_argv(n, w.flags) for n in ns]


def audit_qs(n: int) -> tuple[int, ...]:
    """q values at which a deep-audit run checks exceptional_set for n, from
    the narrowest interval to the widest a window pair allows."""
    return (1, n // 6, (n - 3) // 2)


def survey_n(argv: list[str]) -> int:
    """The denominator a survey argv covers."""
    return int(argv[argv.index("--min") + 1])
