"""Command-line front end: single checks, spectra, surveys, verify suites.

Exit codes: 0 success, 1 usage or precondition error, 2 a verification
suite reported a failed bound. All state flows through flags; identical
argv yields byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import suites
from .criterion import count_S, find_witness
from .fourier import spectral_S
from .survey import survey_range, write_csv


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    stdout_payload: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route that to exit code 1 instead,
    # reserving 2 for failed verification suites
    def error(self, message: str):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# built once per process: each parse_args call fills a fresh Namespace
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="trisieve",
        description=(
            "Screen rational triangles in the hard obtuse window with the "
            "usable-unit obstruction; inspect the spectral split of the "
            "pair count; run density surveys and bound-verification suites."
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="K",
        help="worker processes for surveys (output is order-independent)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    check = sub.add_parser("check", help="test one triangle for the obstruction")
    check.set_defaults(handler=_cmd_check)
    check.add_argument("p", type=int)
    check.add_argument("q", type=int)
    check.add_argument("n", type=int)
    check.add_argument(
        "--mode", choices=("two-pq", "two-of-three"), default="two-pq"
    )

    count = sub.add_parser("count", help="print S(p, q) for one pair")
    count.set_defaults(handler=_cmd_count)
    count.add_argument("p", type=int)
    count.add_argument("q", type=int)
    count.add_argument("n", type=int)

    spectrum = sub.add_parser(
        "spectrum", help="print S, main term, error term, and residual"
    )
    spectrum.set_defaults(handler=_cmd_spectrum)
    spectrum.add_argument("p", type=int)
    spectrum.add_argument("q", type=int)
    spectrum.add_argument("n", type=int)

    survey = sub.add_parser("survey", help="emit per-denominator CSV statistics")
    survey.set_defaults(handler=_cmd_survey)
    survey.add_argument("--min", type=int, required=True)
    survey.add_argument("--max", type=int, required=True)
    survey.add_argument(
        "--filter", choices=("all", "primes", "omega-plus"), default="all"
    )
    survey.add_argument(
        "--eta",
        default="0",
        metavar="NUM/DEN",
        help="exact window truncation, a fraction below 1/6",
    )
    survey.add_argument(
        "--deep-audit",
        action="store_true",
        help="also count exceptional-class pairs per denominator (slow)",
    )
    survey.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.set_defaults(handler=_cmd_verify)
    suite = verify.add_subparsers(dest="suite", required=True)
    # run_suite looks its suite up at call time: build_parser's result is cached
    for name, max_n, run_suite in (
        ("ramanujan", 200, lambda a: suites.ramanujan_suite(a.max_n)),
        ("fourier-bounds", 500, lambda a: suites.fourier_bounds_suite(a.max_n)),
        ("regression-families", 60, lambda a: suites.regression_families_suite(a.max_n)),
    ):
        ranged = suite.add_parser(name)
        ranged.add_argument("--max-n", type=int, default=max_n)
        ranged.set_defaults(run_suite=run_suite)
    suite.add_parser("spectral").set_defaults(run_suite=lambda a: suites.spectral_suite())
    error_bound = suite.add_parser("error-bound")
    error_bound.add_argument("--n", type=int, required=True)
    error_bound.add_argument("--q", type=int, required=True)
    error_bound.add_argument("--r", type=float, required=True, help="parameter R >= 2")
    error_bound.set_defaults(run_suite=lambda a: suites.error_bound_suite(a.n, a.q, a.r))
    return parser


def _cmd_check(args) -> CommandOutcome:
    report = find_witness(args.p, args.q, args.n, args.mode.replace("-", "_"))
    s = count_S(args.p, args.q, args.n)
    if report.ruled_out:
        held = ",".join(report.inequalities_held)
        line = f"RULED OUT  witness={report.witness}  ineqs={held}  S={s}"
    else:
        line = f"NOT RULED OUT  S={s}"
    return CommandOutcome(0, line + "\n")


def _cmd_count(args) -> CommandOutcome:
    return CommandOutcome(0, f"{count_S(args.p, args.q, args.n)}\n")


def _cmd_spectrum(args) -> CommandOutcome:
    dec = spectral_S(args.p, args.q, args.n)
    line = (
        f"S={dec.s_direct}  M={dec.main_term:.6f}  "
        f"E={dec.error_term:.6f}  residual={dec.residual:.3e}"
    )
    return CommandOutcome(0, line + "\n")


def _audited(records):
    for record in records:
        print(f"# deep-audit n={record.n} e_n={record.e_n}", file=sys.stderr)
        yield record


def _cmd_survey(args) -> CommandOutcome:
    eta = Fraction(args.eta)
    records = survey_range(
        args.min,
        args.max,
        filter=args.filter.replace("-", "_"),
        eta=eta,
        deep_audit=args.deep_audit,
        workers=args.threads,
    )
    if args.deep_audit:
        records = _audited(records)
    # build the whole CSV first: a failing survey must not truncate --out
    buffer = io.StringIO()
    write_csv(records, buffer)
    if not args.out:
        return CommandOutcome(0, buffer.getvalue())
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())
    return CommandOutcome(0, "")


def _cmd_verify(args) -> CommandOutcome:
    ok, message = args.run_suite(args)
    return CommandOutcome(0 if ok else 2, message + "\n")


def run(argv: list[str]) -> CommandOutcome:
    """Parse argv and dispatch; never raises for user-level errors."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError:
        return CommandOutcome(1, "")
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandOutcome(code, "")
    try:
        return args.handler(args)
    except (ValueError, TypeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandOutcome(1, "")


def main(argv: list[str] | None = None) -> None:
    outcome = run(sys.argv[1:] if argv is None else list(argv))
    if outcome.stdout_payload:
        sys.stdout.write(outcome.stdout_payload)
    raise SystemExit(outcome.exit_code)
