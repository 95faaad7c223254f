"""Command-line front door.

Exit codes of `qverify verify`: 0 when no flaw was found, 1 when a verified
witness reaches the error condition, 2 on usage or internal errors, and 3
when the model checker is needed but unavailable — distinct so CI can skip
instead of failing a build on a missing toolchain.  Any exception that is not
a verdict exits 2 with a one-line message, never 1.
"""
from __future__ import annotations

import argparse
import ctypes
import inspect
import platform
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
from .sweep import parse_instance_spec, sweep_convergence, sweep_heatmap, sweep_rates
from .synthetic import generate_synthetic, instance_names

EXIT_NO_FLAW = 0
EXIT_FLAW = 1
EXIT_ERROR = 2
EXIT_CHECKER_MISSING = 3

# glibc's mmap threshold follows the largest block freed so far (about 1 MB
# here), and a block at or above it is a fresh mmap, faulted in page by page
# at about 2.3 us a page on a 2-CPU host.  Below 64 MiB every numpy array of
# a request now comes from the heap.
_MMAP_THRESHOLD = 64 << 20
# glibc trims the heap top once more than twice that threshold lies free
# there.  A 16-qubit qsvt request frees about 2.5 MB at its end, so the next
# one faulted 480 pages back in; up to 256 MiB of free heap is now kept.
_TRIM_THRESHOLD = 256 << 20


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
    verify.add_argument("--unwind", type=_int_in(1), help="loop unwinding bound")
    verify.add_argument("--solver", choices=SOLVERS, default="brute")
    verify.add_argument("--optimizer", dest="kind", choices=KINDS)
    verify.add_argument("--layers", type=_int_in(1), help="circuit depth for qaoa/vqe")
    verify.add_argument("--degree", type=_int_in(1),
                        help="filter half-degree for qsvt (default: automatic)")
    verify.add_argument("--shots", type=_int_in(1))
    verify.add_argument("--max-iterations", type=_int_in(1))
    verify.add_argument("--seed", type=_int_in(0))
    verify.add_argument("--oracle-budget", type=_int_in(0, DEFAULT_BUDGET),
                        help=f"exhaustive-enumeration cap, in variables (0..{DEFAULT_BUDGET})")
    verify.add_argument("--out", type=Path, help="write the JSON report here")
    verify.add_argument("--trace-file", type=Path, help="write the raw convergence trace as CSV")

    sweep = sub.add_parser("sweep", help="grid studies emitting CSVs")
    sweep_sub = sweep.add_subparsers(dest="study", required=True)

    # each sweep's dests are its function's keywords
    conv = sweep_sub.add_parser("convergence", help="optimizer curves for qaoa and vqe")
    conv.set_defaults(run=sweep_convergence)
    conv.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, required=True,
                      help="output directory")
    conv.add_argument("--instance", dest="instances", action="append",
                      metavar="NAME[:k=v,...]")
    conv.add_argument("--runs", type=_int_in(1))
    conv.add_argument("--seed", type=_int_in(0))
    conv.add_argument("--max-iterations", type=_int_in(1))
    conv.add_argument("--jobs", type=_int_in(1))

    rates = sweep_sub.add_parser("rates", help="qsvt success rates across the catalog")
    rates.set_defaults(run=sweep_rates)
    rates.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, required=True,
                       help="output directory")
    rates.add_argument("--instance", dest="instances", action="append",
                       metavar="NAME[:k=v,...]")
    rates.add_argument("--shots", type=_int_in(1))
    rates.add_argument("--seed", type=_int_in(0))
    rates.add_argument("--jobs", type=_int_in(1))

    heat = sweep_sub.add_parser("heatmap", help="filter quality over degree and gap")
    heat.set_defaults(run=sweep_heatmap)
    heat.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, required=True,
                      help="output directory")
    heat.add_argument("--max-degree", dest="max_half_degree", metavar="MAX_DEGREE",
                      type=_int_in(1), help="largest half-degree d")
    heat.add_argument("--max-inverse-gap", type=_int_in(2), help="smallest gap is 1 over this")

    return parser


def _given(args, *names) -> dict:
    """The options among ``names`` that the request named.  The rest are
    left to the defaults of the function they feed, their one home."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _load_formula(args) -> tuple[CnfFormula, str]:
    if args.synthetic is not None:
        label, name, params = parse_instance_spec(args.synthetic)
        return generate_synthetic(name, params), label
    if args.dimacs is not None:
        return parse_dimacs(args.dimacs.read_text()), str(args.dimacs)
    config = CheckerConfig(source=args.source, checks=tuple(args.check),
                           **_given(args, "unwind"))
    return run_model_checker(config), str(args.source)


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    formula, instance = _load_formula(args)
    if formula.num_variables > DEFAULT_BUDGET:
        # no solver takes more (the oracle's cap is the largest), and the
        # reduction would first build Python objects for every declared variable
        raise ValueError(f"{formula.num_variables} CNF variables exceed "
                         f"{DEFAULT_BUDGET}, the most any solver takes")
    problem = build_problem(formula, **_given(args, "oracle_budget"))
    optimizer = OptimizerSpec(**_given(args, "kind", "max_iterations"))
    report = solve(problem, args.solver, optimizer=optimizer,
                   **_given(args, "layers", "degree", "shots", "seed"))
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
    path = args.run(**_given(args, *inspect.signature(args.run).parameters))
    sys.stdout.write(f"{path}\n")
    return EXIT_NO_FLAW


@lru_cache(maxsize=1)
def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed heap pages for the next solve in this
    process, rather than give them back to the kernel and fault them in
    again; once per process, and a no-op off glibc.  Library callers keep
    their own allocator policy: only the program's entry sets this."""
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3) first: M_TRIM_THRESHOLD (-1) alone would also pin
    # the mmap threshold at its 128 KiB start, and every large array would
    # be mapped afresh
    if mallopt(-3, _MMAP_THRESHOLD):
        mallopt(-1, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
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
