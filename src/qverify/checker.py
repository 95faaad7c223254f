"""Bounded model checker frontend.

A C source file plus a list of error conditions goes in; the checker's CNF
encoding of "some enabled check fails within the unwinding bound" comes back
as a parsed formula.  The checker executable is the one the QVERIFY_CHECKER
environment variable names, or else a `cbmc` on PATH; any checker that takes
CBMC's command line can stand in.  `checker_flag_table` lists the error
conditions and the CBMC flags that enable each.
"""
from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

from .cnf import CnfError, CnfFormula, parse_dimacs

ENV_VAR = "QVERIFY_CHECKER"
DEFAULT_EXECUTABLE = "cbmc"


class CheckerError(RuntimeError):
    """The checker ran but produced no usable CNF."""


class CheckerUnavailableError(CheckerError):
    """No checker executable could be resolved."""


def checker_flag_table() -> dict[str, tuple[str, ...]]:
    """The CBMC flags that enable each named error condition."""
    return {
        "bounds": ("--bounds-check",),
        "overflow": ("--signed-overflow-check", "--unsigned-overflow-check"),
        "div-by-zero": ("--div-by-zero-check",),
        "pointer": ("--pointer-check",),
        "conversion": ("--conversion-check",),
        "nan": ("--nan-check",),
        "memory-leak": ("--memory-leak-check",),
    }


@dataclass(frozen=True)
class CheckerConfig:
    source: Path
    checks: tuple[str, ...] = ()
    unwind: int = 1

    def __post_init__(self):
        if self.unwind < 1:
            raise ValueError("unwind bound must be positive")
        table = checker_flag_table()
        unknown = [c for c in self.checks if c not in table]
        if unknown:
            known = ", ".join(sorted(table))
            raise ValueError(f"unknown checks {unknown}; known: {known}")

    def argv(self, executable: str) -> list[str]:
        table = checker_flag_table()
        flags = [flag for check in self.checks for flag in table[check]]
        return [executable, str(self.source), "--dimacs", *flags,
                "--unwind", str(self.unwind)]


def resolve_checker() -> str | None:
    """Resolved checker path, or None when nothing suitable exists."""
    candidate = os.environ.get(ENV_VAR) or DEFAULT_EXECUTABLE
    if os.path.sep in candidate:
        return candidate if os.access(candidate, os.X_OK) else None
    return shutil.which(candidate)


_CLAUSE_LINE = re.compile(r"^(-?\d+\s+)*0$")


def _extract_dimacs(stdout: str) -> str:
    """CBMC surrounds the DIMACS block with progress chatter; keep the header
    and clause lines only."""
    lines = []
    seen_header = False
    for line in stdout.splitlines():
        stripped = line.strip()
        if stripped.startswith("p cnf "):
            seen_header = True
            lines.append(stripped)
        elif seen_header and _CLAUSE_LINE.match(stripped):
            lines.append(stripped)
    if not seen_header:
        raise CheckerError("checker output contains no DIMACS header")
    return "\n".join(lines) + "\n"


def run_model_checker(config: CheckerConfig) -> CnfFormula:
    """Run the checker on the configured source and parse its CNF output."""
    executable = resolve_checker()
    if executable is None:
        raise CheckerUnavailableError(
            f"no model checker found; install cbmc or point {ENV_VAR} at one"
        )
    if not config.source.exists():
        raise CheckerError(f"source file {config.source} does not exist")
    import subprocess  # only the checker frontend starts a process

    proc = subprocess.run(
        config.argv(executable), capture_output=True, text=True, check=False,
    )
    try:
        return parse_dimacs(_extract_dimacs(proc.stdout), provenance="model-checker")
    except (CheckerError, CnfError) as exc:
        detail = proc.stderr.strip().splitlines()
        hint = f" ({detail[-1]})" if detail else ""
        raise CheckerError(
            f"checker exited {proc.returncode} without usable CNF{hint}"
        ) from exc
