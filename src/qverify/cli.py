"""Command-line front door.

Exit codes of `qverify verify`: 0 when no flaw was found, 1 when a verified
witness reaches the error condition, 2 on usage or internal errors, and 3
when the model checker is needed but unavailable — distinct so CI can skip
instead of failing a build on a missing toolchain.  Any exception that is not
a verdict exits 2 with a one-line message, never 1.
"""
from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache
from pathlib import Path

from .checker import CheckerConfig, CheckerUnavailableError, checker_flag_table, run_model_checker
from .cnf import CnfFormula, parse_dimacs
from .oracle import DEFAULT_BUDGET
from .optimizers import KINDS, OptimizerSpec
from .pipeline import SOLVERS, build_problem, dump_json, report_dict, solve, write_text_atomic
from .solvers import Sat
from .sweep import (
    DEFAULT_CONVERGENCE_INSTANCES,
    DEFAULT_RATE_INSTANCES,
    parse_instance_spec,
    sweep_convergence,
    sweep_heatmap,
    sweep_rates,
)
from .synthetic import generate_synthetic, instance_names

EXIT_NO_FLAW = 0
EXIT_FLAW = 1
EXIT_ERROR = 2
EXIT_CHECKER_MISSING = 3


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in [low, high]; usage error (exit 2) otherwise."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f"in {low}..{high}" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    parse.__name__ = "integer"
    return parse


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: it depends on no request, so it is
    built on first use and reused; `parse_args` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="qverify",
        description="Decide reachability of error conditions by reducing CNF "
                    "to a gap-guaranteed QUBO and solving it with simulated "
                    "quantum algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="decide one instance")
    source = verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--source", type=Path, help="C source file for the model checker")
    source.add_argument("--dimacs", type=Path, help="CNF file in DIMACS format")
    source.add_argument("--synthetic", metavar="NAME[:k=v,...]",
                        help=f"catalog instance; names: {', '.join(instance_names())}")
    verify.add_argument("--check", action="append", default=[],
                        choices=sorted(checker_flag_table()),
                        help="error condition for the model checker (repeatable)")
    verify.add_argument("--unwind", type=_int_in(1), default=1, help="loop unwinding bound")
    verify.add_argument("--solver", choices=SOLVERS, default="brute")
    verify.add_argument("--optimizer", choices=KINDS, default="trust-region")
    verify.add_argument("--layers", type=_int_in(1), default=None,
                        help="circuit depth for qaoa/vqe")
    verify.add_argument("--degree", type=_int_in(1), default=None,
                        help="filter half-degree for qsvt (default: automatic)")
    verify.add_argument("--shots", type=_int_in(1), default=2048)
    verify.add_argument("--max-iterations", type=_int_in(1), default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--oracle-budget", type=_int_in(0, DEFAULT_BUDGET),
                        default=DEFAULT_BUDGET,
                        help=f"exhaustive-enumeration cap, in variables (0..{DEFAULT_BUDGET})")
    verify.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    verify.add_argument("--trace-file", type=Path, default=None,
                        help="write the raw convergence trace as CSV")

    sweep = sub.add_parser("sweep", help="grid studies emitting CSVs")
    sweep_sub = sweep.add_subparsers(dest="study", required=True)

    conv = sweep_sub.add_parser("convergence", help="optimizer curves for qaoa and vqe")
    conv.add_argument("--out", type=Path, required=True, help="output directory")
    conv.add_argument("--instance", action="append", default=None,
                      metavar="NAME[:k=v,...]")
    conv.add_argument("--runs", type=_int_in(1), default=5)
    conv.add_argument("--seed", type=int, default=42)
    conv.add_argument("--max-iterations", type=_int_in(1), default=200)
    conv.add_argument("--jobs", type=_int_in(1), default=1)

    rates = sweep_sub.add_parser("rates", help="qsvt success rates across the catalog")
    rates.add_argument("--out", type=Path, required=True, help="output directory")
    rates.add_argument("--instance", action="append", default=None,
                       metavar="NAME[:k=v,...]")
    rates.add_argument("--shots", type=_int_in(1), default=100_000)
    rates.add_argument("--seed", type=int, default=42)
    rates.add_argument("--jobs", type=_int_in(1), default=1)

    heat = sweep_sub.add_parser("heatmap", help="filter quality over degree and gap")
    heat.add_argument("--out", type=Path, required=True, help="output directory")
    heat.add_argument("--max-degree", type=_int_in(1), default=60,
                      help="largest half-degree d")
    heat.add_argument("--max-inverse-gap", type=_int_in(2), default=20,
                      help="smallest gap is 1 over this")

    return parser


def _load_formula(args) -> tuple[CnfFormula, str]:
    if args.synthetic is not None:
        label, name, params = parse_instance_spec(args.synthetic)
        return generate_synthetic(name, params), label
    if args.dimacs is not None:
        return parse_dimacs(args.dimacs.read_text()), str(args.dimacs)
    config = CheckerConfig(source=args.source, checks=tuple(args.check),
                           unwind=args.unwind)
    return run_model_checker(config), str(args.source)


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    formula, instance = _load_formula(args)
    problem = build_problem(formula, oracle_budget=args.oracle_budget)
    optimizer = OptimizerSpec(kind=args.optimizer, max_iterations=args.max_iterations)
    report = solve(problem, args.solver, optimizer=optimizer, layers=args.layers,
                   degree=args.degree, shots=args.shots, seed=args.seed)
    if args.trace_file is not None:
        rows = [f"{i},{v!r}" for i, v in report.convergence_trace]
        write_text_atomic(args.trace_file, "\n".join(["iteration,value", *rows]) + "\n")
    duration_ms = round((time.perf_counter() - started) * 1000.0, 3)
    payload = report_dict(
        problem, report, instance, duration_ms,
        trace_file=str(args.trace_file) if args.trace_file else None,
    )
    text = dump_json(payload)
    if args.out is not None:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_FLAW if isinstance(report.verdict, Sat) else EXIT_NO_FLAW


def _cmd_sweep(args) -> int:
    if args.study == "convergence":
        path = sweep_convergence(
            args.out, tuple(args.instance or DEFAULT_CONVERGENCE_INSTANCES),
            runs=args.runs, seed=args.seed, max_iterations=args.max_iterations,
            jobs=args.jobs,
        )
    elif args.study == "rates":
        path = sweep_rates(
            args.out, tuple(args.instance or DEFAULT_RATE_INSTANCES),
            seed=args.seed, shots=args.shots, jobs=args.jobs,
        )
    else:
        path = sweep_heatmap(args.out, max_half_degree=args.max_degree,
                             max_inverse_gap=args.max_inverse_gap)
    sys.stdout.write(f"{path}\n")
    return EXIT_NO_FLAW


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except CheckerUnavailableError as exc:
        print(f"qverify: {exc}", file=sys.stderr)
        return EXIT_CHECKER_MISSING
    except Exception as exc:  # bad input or internal error: never exit 1
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"qverify: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
