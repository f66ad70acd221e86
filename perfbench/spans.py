"""Span recorder for the traced run.

Each public function of a layer is wrapped by rebinding its name in the
module that calls it: ``from .x import f`` copies the reference, so
wrapping ``trisieve.x.f`` alone would miss those callers. A span records
(name, start, end, parent) into flat arrays; spans nest, so a layer's self
time is its span time minus the time its child spans cover, and the self
times of all spans add up to the root spans (one per CLI call).

Which end-to-end figure each layer should move, and where it should stay flat:

    arith      call_ms_p50 on pointwise; flat on survey-prime
    triangle   wall_s on survey-cut; small on deep-audit
    criterion  wall_s, pairs_per_s, peak_rss_mb on survey-prime and
               call_ms_p50 on pointwise; near flat on deep-audit
    survey     wall_s on survey-prime and deep-audit; flat on pointwise
    fourier    wall_s on deep-audit and call_ms_p90, wall_s, peak_rss_mb on
               pointwise; flat on survey-prime and survey-cut
    cli        call_ms_p50 on pointwise; negligible on the surveys
"""

from __future__ import annotations

import importlib
import time
from array import array
from math import gcd

import numpy as np

# (module whose global is rebound, attribute, span name); a name may be
# rebound in several modules, each rebinding feeding the same span name
WRAPPED = (
    ("trisieve.survey", "survey_n", "survey.survey_n"),
    ("trisieve.survey", "sweep_window", "criterion.sweep_window"),
    ("trisieve.survey", "exceptional_set", "fourier.exceptional_set"),
    ("trisieve.fourier", "sigma_residue", "fourier.sigma_residue"),
    ("trisieve.fourier", "ramanujan_table", "fourier.ramanujan_table"),
    ("trisieve.fourier", "count_S", "criterion.count_S"),
    ("trisieve.fourier", "unit_set", "arith.unit_set"),
    ("trisieve.criterion", "hard_window_pairs", "triangle.hard_window_pairs"),
    ("trisieve.criterion", "unit_set", "arith.unit_set"),
    ("trisieve.criterion", "count_S", "criterion.count_S"),
    ("trisieve.cli", "count_S", "criterion.count_S"),
    ("trisieve.cli", "find_witness", "criterion.find_witness"),
    ("trisieve.cli", "spectral_S", "fourier.spectral_S"),
)

# lru_cache'd originals whose cache_info() gives the hit ratios
CACHED = (
    ("trisieve.arith", "unit_set", "arith.unit_set"),
    ("trisieve.arith", "factor_profile", "arith.factor_profile"),
    ("trisieve.fourier", "ramanujan_table", "fourier.ramanujan_table"),
)


# what a span keeps of its call, to derive the computed counts afterwards
def _n_and_len(args, kwargs, result):
    return (args[0] if args else kwargs["n"]), len(result)


FACTS = {
    "triangle.hard_window_pairs": _n_and_len,
    "criterion.sweep_window": _n_and_len,
    "criterion.find_witness": lambda args, kwargs, result: result.ruled_out,
    "fourier.spectral_S": lambda args, kwargs, result: (
        args[2] if len(args) > 2 else kwargs["n"]
    ),
}


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.facts: dict[str, list] = {name: [] for name in FACTS}
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        fact = FACTS.get(name)
        facts = self.facts.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if fact is not None:
                facts.append(fact(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every WRAPPED name; a name the program lacks raises."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))

    def write(self, path) -> None:
        """Spans as TSV: span, call (root span of its CLI call), name,
        start, end, parent; times in seconds of perf_counter."""
        root = array("l", bytes(8 * len(self.start)))
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tcall\tname\tstart\tend\tparent\n")
            for i, (nid, par) in enumerate(zip(self.name_id, self.parent)):
                root[i] = i if par < 0 else root[par]
                out.write(
                    f"{i}\t{root[i]}\t{self.names[nid]}\t{self.start[i]!r}\t"
                    f"{self.end[i]!r}\t{par}\n"
                )

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds of every span name."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.uint16)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }


def cache_infos() -> dict[str, float]:
    """Hit ratio of each lru_cache'd original; 0 when it was never called."""
    ratios = {}
    for module_name, attr, name in CACHED:
        fn = getattr(importlib.import_module(module_name), attr)
        if not hasattr(fn, "cache_info"):  # a span wrapper around the cached original
            fn = fn.__wrapped__
        info = fn.cache_info()
        calls = info.hits + info.misses
        ratios[f"{name}.hit_ratio"] = info.hits / calls if calls else 0.0
    return ratios


def _totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _candidates(n: int) -> int:
    """(p, q) candidates hard_window_pairs scans: q in [1, (n-2p-1)//2]."""
    return sum(max(0, (n - 2 * p - 1) // 2) for p in range(1, (n - 1) // 2 + 1))


def computed_counts(facts: dict[str, list]) -> dict[str, float]:
    """Counts derived from the inputs and results the spans saw; they repeat
    exactly for the same inputs."""
    hwp = facts["triangle.hard_window_pairs"]
    sweeps = facts["criterion.sweep_window"]
    witness = facts["criterion.find_witness"]
    scanned = sum(_candidates(n) for n, _ in hwp)
    pairs = sum(k for _, k in hwp)
    return {
        "triangle.hard_window_pairs.pairs": pairs,
        "triangle.hard_window_pairs.kept_ratio": pairs / scanned if scanned else 0.0,
        "criterion.sweep_window.pairs": sum(k for _, k in sweeps),
        "criterion.mask_bits": sum(n * _totient(n) for n, _ in sweeps),
        "criterion.find_witness.ruled_ratio": sum(witness) / len(witness) if witness else 0.0,
        "fourier.spectral_S.index_bytes": sum(8 * n * n for n in facts["fourier.spectral_S"]),
    }
