"""trisieve benchmark: four command-line workloads, end to end and per layer.

    python3 perfbench/run.py --workload survey-prime --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run draws its inputs from --seed
(see workloads.py), drives ``trisieve.cli.run(argv)`` in a fresh child
process with ``--threads 1``, checks every output, prints one line per
metric and then, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. The calls of a
run are sized to --seconds and split into three rounds; each round makes
the same calls in a fresh process, and the figures are medians over the
rounds. Set-up is timed in every such process and in a few that only set
up, and reported as their median. --trace 1 runs one round untraced and
one with spans around every layer's public functions (spans.py), and
reports the per-layer metrics; the difference of the two wall times is the
tracing overhead.

Survey outputs are compared byte for byte with reference/*.json, made at
the commit named in those files. Pointwise outputs, and on deep-audit the
masses exceptional_set returns for each drawn n at a few q, are recomputed
by oracle.py, which shares no code with trisieve.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import audit_ok, pointwise_ok
from workloads import WORKLOADS, survey_n

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# an untraced run makes the same calls in ROUNDS fresh processes and reports
# medians over them, so a burst of load from elsewhere on the machine that
# hits one round does not move the figures; a traced run makes one round
ROUNDS = 3
SETUP_PROBES = 4
# a run must end within 180 s; children share what is left of this
RUN_BUDGET_S = 170.0

LAYER_SPANS = {
    "arith.unit_set.s": ("arith.unit_set", "s"),
    "arith.unit_set.calls": ("arith.unit_set", "calls"),
    "triangle.hard_window_pairs.s": ("triangle.hard_window_pairs", "s"),
    "criterion.sweep_window.self_s": ("criterion.sweep_window", "self_s"),
    "criterion.count_S.s": ("criterion.count_S", "s"),
    "criterion.count_S.calls": ("criterion.count_S", "calls"),
    "criterion.find_witness.s": ("criterion.find_witness", "s"),
    "survey.survey_n.self_s": ("survey.survey_n", "self_s"),
    "survey.survey_n.calls": ("survey.survey_n", "calls"),
    "fourier.exceptional_set.s": ("fourier.exceptional_set", "s"),
    "fourier.exceptional_set.calls": ("fourier.exceptional_set", "calls"),
    "fourier.sigma_residue.s": ("fourier.sigma_residue", "s"),
    "fourier.sigma_residue.calls": ("fourier.sigma_residue", "calls"),
    "fourier.spectral_S.self_s": ("fourier.spectral_S", "self_s"),
    "fourier.spectral_S.calls": ("fourier.spectral_S", "calls"),
    "fourier.ramanujan_table.s": ("fourier.ramanujan_table", "s"),
    "cli.run.self_s": ("cli.run", "self_s"),
    "cli.run.calls": ("cli.run", "calls"),
}
LAYERS = ("arith", "triangle", "criterion", "survey", "fourier", "cli")


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start child.py; returns (set-up seconds, parsed result or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(seconds), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child of {workload} ran past the time budget")
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"{mode} child of {workload} failed:\n{err[-4000:]}")
    return setup_s, (json.loads(out.splitlines()[-1]) if mode != "probe" else None)


def load_references(workload: str) -> dict[str, dict[str, str]]:
    if WORKLOADS[workload].flags is None:
        return {}
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["outputs"]


def check(workload: str, result: dict, refs: dict) -> list[str]:
    """Outputs that differ from the reference, as readable lines."""
    bad = []
    for argv, (code, out, err) in zip(result["calls"], result["outputs"]):
        if WORKLOADS[workload].flags is None:
            ok = code == 0 and err == "" and pointwise_ok(argv, out)
        else:
            ref = refs[str(survey_n(argv))]
            ok = code == 0 and out == ref["stdout"] and err == ref["stderr"]
        if not ok:
            bad.append(f"{' '.join(argv)} -> exit {code}: {out!r} {err!r}")
    for n, q, d, units, s_values, members in result.get("audits", []):
        if not audit_ok(n, q, d, units, s_values, members):
            bad.append(f"exceptional_set({n}, {q}) -> d={d}, members {members}, S(u) off")
    return bad


def outputs(result: dict) -> int:
    """Outputs a child result holds: one per call, one per audited (n, q)."""
    return len(result["outputs"]) + len(result.get("audits", []))


def pairs_screened(workload: str, calls: list[list[str]], refs: dict) -> int:
    """Window pairs the calls cover: h_size of each survey row, or one per
    pointwise call."""
    if WORKLOADS[workload].flags is None:
        return len(calls)
    rows = (refs[str(survey_n(argv))]["stdout"].splitlines()[1] for argv in calls)
    return sum(int(row.split(",")[3]) for row in rows)


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, seed, seconds, deadline, refs):
    round_s = seconds / ROUNDS
    setups = [
        spawn(workload, seed, round_s, "probe", deadline)[0] for _ in range(SETUP_PROBES)
    ]
    rounds = []
    for _ in range(ROUNDS):
        setup_s, result = spawn(workload, seed, round_s, "run", deadline)
        setups.append(setup_s)
        rounds.append(result)
    bad = [line for result in rounds for line in check(workload, result, refs)]
    # every round makes the same calls: take each call's median over rounds
    per_call = zip(*(r["latency_s"] for r in rounds))
    latency_ms = [1000 * statistics.median(ts) for ts in per_call]
    p90, beyond = nearest_rank(latency_ms, 90)
    wall = statistics.median(r["wall_s"] for r in rounds)
    values = {
        "wall_s": wall,
        "pairs_per_s": pairs_screened(workload, rounds[0]["calls"], refs) / wall,
        "call_ms_p50": statistics.median(latency_ms),
        "call_ms_p90": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "wall_s": f"median of {ROUNDS} rounds of {len(latency_ms)} calls",
        "call_ms_p90": f"{len(latency_ms)} calls, {beyond} beyond"
        + ("" if beyond >= 10 else " (fewer than 10: read as the slowest call)"),
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    return values, notes, sum(outputs(r) for r in rounds), bad


def per_layer(workload, seed, seconds, deadline, refs):
    _, plain = spawn(workload, seed, seconds / ROUNDS, "run", deadline)
    _, traced = spawn(workload, seed, seconds / ROUNDS, "trace", deadline)
    bad = check(workload, plain, refs) + check(workload, traced, refs)
    tr = traced["trace"]
    per_name = tr["per_name"]
    values = {metric: per_name[span][key] for metric, (span, key) in LAYER_SPANS.items()}
    values.update(tr["hit_ratios"])
    values.update(tr["counts"])
    pairs = values["criterion.sweep_window.pairs"]
    values["criterion.sweep_window.ns_per_pair"] = (
        1e9 * values["criterion.sweep_window.self_s"] / pairs if pairs else 0.0
    )
    layer_self = {
        layer: sum(v["self_s"] for k, v in per_name.items() if k.split(".")[0] == layer)
        for layer in LAYERS
    }
    values["criterion.self_s"] = layer_self["criterion"]
    values["fourier.self_s"] = layer_self["fourier"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["trace.bench_s"] = traced["wall_s"] - sum(layer_self.values())
    values["trace.spans"] = tr["spans"]

    notes = {name: "computed" for name in tr["counts"]}
    notes["trace.spans"] = f"written to {tr['span_file']}"
    if WORKLOADS[workload].flags is not None:
        expected = pairs_screened(workload, traced["calls"], refs)
        if not values["triangle.hard_window_pairs.pairs"] == pairs == expected:
            notes["criterion.sweep_window.pairs"] += (
                f"; does not match the {expected} pairs of the CSV rows"
            )
    notes["trace.bench_s"] = "self_s by layer: " + ", ".join(
        f"{layer} {s:.4f}" for layer, s in layer_self.items()
    )
    return values, notes, outputs(plain) + outputs(traced), bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "trisieve" / "__init__.py").is_file():
        print(f"no trisieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = load_references(args.workload)
    measure = per_layer if args.trace else end_to_end
    try:
        values, notes, attempted, bad = measure(
            args.workload, args.seed, args.seconds, deadline, refs
        )
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    print(
        f"# trisieve benchmark workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}{note}")
    print(
        f"{'fail_frac':40s} {len(bad) / attempted:>16.6g} ratio"
        f"  ({len(bad)} of {attempted} outputs differ from the reference)"
    )
    for line in bad[:10]:
        print(f"# wrong: {line}")
    print(
        json.dumps(
            {"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
