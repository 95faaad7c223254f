from .filters import (
    DegreeCapError,
    FilterPolynomial,
    choose_degree,
    eval_filter,
    filter_quality_log2_mu,
)
from .grover import grover_iterations, grover_schedule, solve_grover
from .qsvt import BlockEncoding, build_block_encoding, solve_qsvt
from .report import (
    NoSolutionFound,
    Sat,
    SolverReport,
    first_verified,
)
from .vqa import (
    qaoa_energy_gradient,
    qaoa_state,
    solve_qaoa,
    solve_vqe,
    vqe_energy_gradient,
    vqe_state,
)

__all__ = [
    "BlockEncoding",
    "DegreeCapError",
    "FilterPolynomial",
    "NoSolutionFound",
    "Sat",
    "SolverReport",
    "build_block_encoding",
    "choose_degree",
    "eval_filter",
    "filter_quality_log2_mu",
    "first_verified",
    "grover_iterations",
    "grover_schedule",
    "qaoa_energy_gradient",
    "qaoa_state",
    "solve_grover",
    "solve_qaoa",
    "solve_qsvt",
    "solve_vqe",
    "vqe_energy_gradient",
    "vqe_state",
]
