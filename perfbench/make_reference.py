"""Regenerate the stored reference outputs of the survey workloads.

Runs every denominator of a survey workload's pool through
``trisieve.cli.run`` and stores its stdout and stderr byte for byte, so that
a benchmark run at any seed can be checked without recomputing. The stored
files were made at the commit recorded in them; regenerate them only at a
commit whose survey output is known to be correct.

    python3 perfbench/make_reference.py survey-prime survey-cut deep-audit
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, survey_argv  # noqa: E402


def main(names: list[str]) -> None:
    from trisieve.cli import run

    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    for name in names:
        w = WORKLOADS[name]
        outputs = {}
        for n in w.pool:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                outcome = run(survey_argv(n, w.flags))
            if outcome.exit_code != 0:
                raise SystemExit(f"{name}: n={n} exited {outcome.exit_code}")
            outputs[str(n)] = {"stdout": outcome.stdout_payload, "stderr": err.getvalue()}
            print(f"{name} n={n}", file=sys.stderr, flush=True)
        path = HERE / "reference" / f"{name}.json"
        doc = {"workload": name, "commit": sha, "flags": list(w.flags), "outputs": outputs}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
