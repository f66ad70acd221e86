"""One workload run in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE

MODE is `probe` (import and draw the inputs, then exit), `run` (also time
the calls) or `trace` (time them with spans on). Every mode prints `ready`
once set-up is done, so the parent can time set-up from process start.
`run` and `trace` then print one JSON line with the outputs, the per-call
latencies, the wall time of the timed phase and the peak RSS of this
process. On deep-audit they then call ``exceptional_set`` for every drawn n
at a few q, untimed, and add what it returned for the parent to check. A
fresh process per run means the lru_caches start cold, as they do for a
user of the command line.

trisieve is imported from the checkout's src/ (the parent sets PYTHONPATH,
as the tier-1 tests do); a trisieve found anywhere else is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(workload: str, seed: int, seconds: float, mode: str) -> None:
    import trisieve
    from trisieve import cli

    if Path(trisieve.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"trisieve imported from {trisieve.__file__}, not {SRC}")
    from workloads import WORKLOADS, draw_calls, survey_n  # perfbench/ is sys.path[0]

    calls = draw_calls(workload, seed, seconds)
    run = cli.run
    recorder = None
    if mode == "trace":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
        run = recorder.wrap(cli.run, "cli.run")
    print("ready", flush=True)
    if mode == "probe":
        return

    outputs = []
    latency = []
    clock = time.perf_counter
    t_start = clock()
    for argv in calls:
        err = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stderr(err):
            outcome = run(argv)
        latency.append(clock() - t0)
        outputs.append([outcome.exit_code, outcome.stdout_payload, err.getvalue()])
    wall_s = clock() - t_start

    result = {
        "calls": calls,
        "outputs": outputs,
        "latency_s": latency,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        from spans import cache_infos, computed_counts

        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"{workload}.spans.tsv"
        recorder.write(span_file)
        result["trace"] = {
            "spans": len(recorder.start),
            "span_file": str(span_file.relative_to(HERE.parent)),
            "per_name": recorder.per_name(),
            "hit_ratios": cache_infos(),
            "counts": computed_counts(recorder.facts),
        }
    if "--deep-audit" in (WORKLOADS[workload].flags or ()):
        result["audits"] = audits(sorted({survey_n(argv) for argv in calls}))
    print(json.dumps(result), flush=True)


def audits(ns: list[int]) -> list[list]:
    """[n, q, d, units, S(u) per unit, exceptional classes] for each n and
    each of its audit q, as trisieve.fourier.exceptional_set gives them."""
    from oracle import audit_r
    from trisieve.fourier import exceptional_set
    from workloads import audit_qs

    found = []
    for n in ns:
        for q in audit_qs(n):
            es = exceptional_set(n, q, audit_r(n))
            units = sorted(es.s_values)
            found.append(
                [n, q, es.d, units, [es.s_values[u] for u in units], sorted(es.members)]
            )
    return found


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4])
