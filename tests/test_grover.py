import math

import numpy as np
import pytest

from qverify.cnf import CnfFormula, parse_dimacs
from qverify.simulator import grover_diffusion, phase_oracle, uniform_superposition
from qverify.solvers import NoSolutionFound, Sat, grover_iterations, grover_schedule, solve_grover
from qverify.sweep import parse_instance_spec
from qverify.synthetic import generate_synthetic


def test_iteration_count_formula():
    assert grover_iterations(6, 1) == 6   # floor(pi/4 * 8)
    assert grover_iterations(6, 2) == 4
    assert grover_iterations(4, 1) == 3
    assert grover_iterations(2, 4) == 0


def test_schedule_covers_powers_of_two():
    assert grover_schedule(6) == [(0, 6), (1, 4), (2, 3), (3, 2), (4, 1), (5, 1)]
    assert grover_schedule(1) == [(0, 1)]


def test_single_solution_amplitude_matches_closed_form():
    formula = generate_synthetic("unique", {})
    state = uniform_superposition(6)
    for _ in range(6):
        state = grover_diffusion(phase_oracle(state, formula))
    simulated = float(state.probabilities()[42])
    closed_form = math.sin(13 * math.asin(1 / 8)) ** 2
    assert abs(simulated - closed_form) < 1e-12


def test_unique_instance_finds_the_witness():
    formula = generate_synthetic("unique", {})
    report = solve_grover(formula, seed=0)
    assert report.verdict == Sat(witness=42)
    assert report.witness_string(formula) == "101010"
    assert report.config["doubled"] is False


def test_doubling_rescues_half_satisfiable_instances():
    # xor on 2 variables has 2 solutions out of 4; every k in the plain
    # schedule overshoots, so the doubled register must find it
    formula = generate_synthetic("xor", {"n": 2})
    report = solve_grover(formula, seed=1)
    assert isinstance(report.verdict, Sat)
    assert formula.evaluate(report.verdict.witness)
    assert report.config["doubled"] is True


def test_contradiction_exhausts_schedule():
    formula = parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    report = solve_grover(formula, seed=2)
    assert isinstance(report.verdict, NoSolutionFound)
    assert "doubled" in report.verdict.reason
    assert report.best_value == 1.0


def test_empty_formula_is_trivially_satisfiable():
    report = solve_grover(CnfFormula(3, ()), seed=0)
    assert report.verdict == Sat(witness=0)


def test_witnesses_are_always_formula_checked():
    rng = np.random.default_rng(14)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        clauses = []
        for _ in range(int(rng.integers(1, 5))):
            vs = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
            clauses.append(" ".join(
                str(int(v + 1) * (1 if rng.integers(2) else -1)) for v in vs
            ) + " 0")
        formula = parse_dimacs(f"p cnf {n} {len(clauses)}\n" + "\n".join(clauses) + "\n")
        report = solve_grover(formula, seed=trial)
        if isinstance(report.verdict, Sat):
            assert formula.evaluate(report.verdict.witness)
        else:
            assert not any(formula.evaluate(a) for a in range(1 << n))


def test_shots_accounting():
    report = solve_grover(generate_synthetic("unique", {}), shots=512, seed=3)
    assert report.shots_used % 512 == 0
    assert report.shots_used >= 512


# a 5-variable formula holding the four-clause core over variables 2 and 5
_UNSAT_CORE = "p cnf 5 7\n1 -3 0\n2 4 -5 0\n-4 5 0\n2 5 0\n2 -5 0\n-2 5 0\n-2 -5 0\n"

# (instance, seed, shots, witness, convergence_trace, shots_used, config),
# recorded from the per-point loop that restarted every schedule point from
# |s> and applied phase_oracle and grover_diffusion one iteration at a time
GOLDEN = [
    ('unique', 0, 1024, 42, [(0, 0.9951171875)],
     1024, {'shots_per_point': 1024, 'doubled': False, 'guessed_k': 0}),
    ('unique', 9, 64, 42, [(0, 1.0)],
     64, {'shots_per_point': 64, 'doubled': False, 'guessed_k': 0}),
    ('three-solutions', 0, 1024, 1229, [(0, 0.0), (1, 0.0), (2, 0.34765625)],
     3072, {'shots_per_point': 1024, 'doubled': False, 'guessed_k': 2}),
    ('three-solutions', 4, 256, 298, [(0, 0.0), (1, 0.0), (2, 0.33203125)],
     768, {'shots_per_point': 256, 'doubled': False, 'guessed_k': 2}),
    ('xor:n=2', 1, 1024, 1, [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.5068359375)],
     4096, {'shots_per_point': 1024, 'doubled': True, 'guessed_k': 1}),
    ('xor:n=2', 3, 32, 2, [(0, 0.0), (1, 0.375)],
     64, {'shots_per_point': 32, 'doubled': False, 'guessed_k': 1}),
    ('unsat-core', 0, 1024, None,
     [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 0.0), (6, 0.0), (7, 0.0), (8, 0.0),
      (9, 0.0), (10, 0.0283203125)], 11264, {'shots_per_point': 1024}),
    ('unsat-core', 2, 100, None,
     [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.12), (4, 0.08), (5, 0.0), (6, 0.0), (7, 0.0), (8, 0.0),
      (9, 0.05), (10, 0.06)], 1100, {'shots_per_point': 100}),
    # an outcome seen in exactly 2/3 / 2^k of the shots is kept
    ('three-solutions', 8, 6, 1229, [(0, 0.0), (1, 0.3333333333333333)],
     12, {'shots_per_point': 6, 'doubled': False, 'guessed_k': 1}),
    ('semi-unique', 4, 6, 581, [(0, 0.6666666666666666)],
     6, {'shots_per_point': 6, 'doubled': False, 'guessed_k': 0}),
]


@pytest.mark.parametrize("spec, seed, shots, witness, trace, shots_used, config", GOLDEN)
def test_golden_reports(spec, seed, shots, witness, trace, shots_used, config):
    if spec == "unsat-core":
        formula = parse_dimacs(_UNSAT_CORE)
    else:
        _, name, params = parse_instance_spec(spec)
        formula = generate_synthetic(name, params)
    report = solve_grover(formula, shots=shots, seed=seed)
    if witness is None:
        assert report.verdict == NoSolutionFound(
            "schedule exhausted, including the doubled register")
    else:
        assert report.verdict == Sat(witness)
    assert report.convergence_trace == trace
    assert all(type(value) is float for _, value in report.convergence_trace)
    assert report.shots_used == shots_used
    assert report.config == config
