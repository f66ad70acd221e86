"""Record a baseline: every workload at seeds 1-10, plus two traced runs each.

    python3 perfbench/baseline.py

For each workload and end-to-end metric, prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. The two traced runs use the
same seed, and their computed counts must repeat exactly. Writes the runs,
the inputs of every round and the machine facts to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROUNDS
from workloads import WORKLOADS, draw_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
TRACED_RUNS = 2
# per-layer values that are counts or ratios of work, not times: they must repeat
COMPUTED = (
    "triangle.hard_window_pairs.pairs",
    "criterion.sweep_window.pairs",
    "criterion.mask_bits",
    "fourier.spectral_S.index_bytes",
    "arith.unit_set.calls",
    "criterion.count_S.calls",
    "survey.survey_n.calls",
    "fourier.exceptional_set.calls",
    "fourier.sigma_residue.calls",
    "fourier.spectral_S.calls",
    "cli.run.calls",
    "trace.spans",
    "triangle.hard_window_pairs.kept_ratio",
    "criterion.find_witness.ruled_ratio",
    "arith.unit_set.hit_ratio",
    "arith.factor_profile.hit_ratio",
    "fourier.ramanujan_table.hit_ratio",
)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def machine() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next(line for line in info if line.startswith("model name"))
        facts["cpu"] = model.split(":", 1)[1].strip()
    except (OSError, StopIteration):
        facts["cpu"] = platform.processor()
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            facts[f"L{level}"] = (index / "size").read_text().strip()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    facts["git_sha"] = sha.stdout.strip() or "unknown"
    return facts


def inputs(workload: str, seed: int, seconds: int) -> list[str]:
    """The calls every round of one run makes, shortened to what varies."""
    pointwise = WORKLOADS[workload].flags is None
    calls = draw_calls(workload, seed, seconds / ROUNDS)
    return [" ".join(a[2:6]) if pointwise else a[4] for a in calls]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    doc = {"machine": machine(), "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(bench(name, seed, seconds, 0))
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"{name:13s} seed {seed:3d} {shown}", flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]
            }
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(
                f"{name:13s} {m['name']:12s} median {med:12.6g} {m['unit']:8s} "
                f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} bound {m['bound']}{flag}",
                flush=True,
            )
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0
        traced = [bench(name, SEEDS[0], seconds, 1) for _ in range(TRACED_RUNS)]
        counts = [{k: t["metrics"][k]["value"] for k in COMPUTED} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        ok = ok and repeat and all(t["correct"] for t in traced)
        print(
            f"{name:13s} failed outputs {failed} of {sum(r['attempted'] for r in runs)}; "
            f"computed counts repeat over {len(traced)} traced runs: {repeat}",
            flush=True,
        )
        doc["workloads"][name] = {
            "end_to_end": summary,
            "runs": [
                {"seed": s, "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                for s, r in zip(SEEDS, runs)
            ],
            "inputs": {str(s): inputs(name, s, seconds) for s in SEEDS},
            "traced_seed": SEEDS[0],
            "per_layer": [{k: v["value"] for k, v in t["metrics"].items()} for t in traced],
            "computed_counts_repeat": repeat,
        }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
