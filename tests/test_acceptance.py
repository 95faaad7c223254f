"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Everything here is recomputed from scratch — no cached artifacts.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qverify.checker import resolve_checker
from qverify.cli import main
from qverify.cnf import Clause, CnfFormula, parse_dimacs, satisfying_mask
from qverify.optimizers import KINDS, OptimizerSpec
from qverify.pipeline import build_problem
from qverify.reduction import cnf_to_qubo, extend_assignment, qubo_to_ising
from qverify.simulator import (
    DiagonalHamiltonian,
    grover_diffusion,
    phase_oracle,
    uniform_superposition,
)
from qverify.solvers import (
    FilterPolynomial,
    NoSolutionFound,
    Sat,
    choose_degree,
    eval_filter,
    solve_grover,
    solve_qaoa,
    solve_qsvt,
    vqe_energy_gradient,
)
from qverify.solvers.vqa import vqe_state
from qverify.sweep import sweep_convergence, sweep_heatmap, sweep_rates
from qverify.synthetic import generate_synthetic

from conftest import random_formula

DATA = Path(__file__).parent / "data"

IN_BUDGET = [
    ("or:n=3", "or", {"n": 3}),
    ("or:n=4", "or", {"n": 4}),
    ("xor:n=2", "xor", {"n": 2}),
    ("xor:n=3", "xor", {"n": 3}),
    ("unique", "unique", {}),
    ("semi-unique", "semi-unique", {}),
    ("two-solutions", "two-solutions", {}),
    ("two-solutions-overlap", "two-solutions-overlap", {}),
    ("three-solutions", "three-solutions", {}),
    ("addition", "addition", {}),
    ("flow", "flow", {}),
    ("indicator", "indicator", {}),
]

CONTRADICTIONS = [
    "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n",
    "p cnf 3 3\n1 0\n-1 0\n2 3 0\n",
]


def _assignment_bits(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)


def _literal_columns(bits: np.ndarray, clause: Clause) -> list[np.ndarray]:
    return [bits[:, lit.variable - 1] ^ int(lit.negated) for lit in clause.literals]


def _extended_assignments(formula: CnfFormula, bits: np.ndarray) -> np.ndarray:
    """All forced extensions at once, mirroring extend_assignment's chain."""
    columns = [bits]
    for clause in formula.clauses:
        if clause.width <= 2:
            continue
        lits = _literal_columns(bits, clause)
        acc = lits[0]
        for lit_col in lits[1:-1]:
            acc = acc | lit_col
            columns.append(acc[:, None])
    return np.hstack(columns)


def _unsat_counts(formula: CnfFormula, bits: np.ndarray) -> np.ndarray:
    counts = np.zeros(bits.shape[0], dtype=np.int64)
    for clause in formula.clauses:
        cols = _literal_columns(bits, clause)
        counts += 1 - np.bitwise_or.reduce(np.stack(cols), axis=0)
    return counts


def _clause_chain_min_is_penalty(clause: Clause) -> bool:
    """min over the clause's auxiliary chain == 1 - (clause satisfied),
    verified over every combination of its literal variables."""
    w = clause.width
    renamed = Clause(tuple(
        type(lit)(variable=i + 1, negated=lit.negated)
        for i, lit in enumerate(clause.literals)
    ))
    mini = cnf_to_qubo(CnfFormula(w, (renamed,)))
    table = mini.objective_table()
    aux = mini.num_auxiliary
    by_input = table.reshape(1 << aux, 1 << w).min(axis=0)
    bits = _assignment_bits(w)
    satisfied = np.bitwise_or.reduce(
        np.stack(_literal_columns(bits, renamed)), axis=0
    )
    return np.array_equal(by_input, 1 - satisfied)


def _decomposes_into_clause_terms(formula: CnfFormula, qubo) -> bool:
    """The full coefficient table is exactly the sum of single-clause tables
    with each clause's auxiliaries shifted to its fold-left slots."""
    n = formula.num_variables
    total: dict[tuple[int, int], int] = {}
    offset = 0
    next_aux = n
    for clause in formula.clauses:
        part = cnf_to_qubo(CnfFormula(n, (clause,)))
        shift = next_aux - n
        for (i, j), c in part.coeffs.items():
            i2 = i if i < n else i + shift
            j2 = j if j < n else j + shift
            total[(i2, j2)] = total.get((i2, j2), 0) + c
        offset += part.offset
        next_aux += part.num_auxiliary
    total = {k: c for k, c in total.items() if c != 0}
    return total == qubo.coeffs and offset == qubo.offset


def test_criterion_01_reduction_soundness_and_completeness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    spot_checked = 0
    for trial in range(500):
        formula = random_formula(rng, max_vars=10, max_clauses=15, max_width=5)
        qubo = cnf_to_qubo(formula)
        bits = _assignment_bits(formula.num_variables)
        sat = satisfying_mask(formula)
        unsat = _unsat_counts(formula, bits)

        # the forced extension realizes the unsatisfied-clause count...
        extended = _extended_assignments(formula, bits)
        dense = qubo.dense()
        objective = ((extended @ dense) * extended).sum(axis=1) + qubo.offset
        assert np.array_equal(objective, unsat), trial
        # ...and no other auxiliary choice beats it: the objective splits into
        # per-clause chains over disjoint auxiliaries, each with min = penalty
        assert _decomposes_into_clause_terms(formula, qubo), trial
        assert all(_clause_chain_min_is_penalty(c) for c in formula.clauses), trial

        minimum = int(unsat.min())
        assert (minimum == 0) == bool(sat.any()), trial
        if not sat.any():
            assert minimum >= 1, trial
        assert np.array_equal(unsat == 0, sat), trial

        # direct full-space cross-check where the register is small enough
        if qubo.num_vars <= 18 and spot_checked < 40:
            spot_checked += 1
            table = qubo.objective_table()
            assert int(table.min()) == minimum, trial
            zero_projected = np.unique(
                np.nonzero(table == 0)[0] & ((1 << formula.num_variables) - 1)
            )
            assert np.array_equal(zero_projected, np.nonzero(sat)[0]), trial
    elapsed = time.perf_counter() - started
    assert spot_checked >= 20
    assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_02_auxiliary_count_formula():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        formula = random_formula(rng, max_vars=10, max_clauses=15, max_width=5)
        qubo = cnf_to_qubo(formula)
        assert qubo.num_auxiliary == sum(
            max(0, clause.width - 2) for clause in formula.clauses
        )


def test_criterion_03_ising_equals_qubo_exactly():
    rng = np.random.default_rng(7)
    checked = 0
    for _, name, params in IN_BUDGET:
        qubo = cnf_to_qubo(generate_synthetic(name, params))
        if qubo.num_vars > 16:
            continue
        checked += 1
        ising = qubo_to_ising(qubo)
        h, couplings, offset, scale = ising.scaled_integer_form()
        n = qubo.num_vars
        spins = 1 - 2 * _assignment_bits(n)
        energies = np.full(1 << n, offset, dtype=np.int64)
        energies += spins @ h
        energies += ((spins @ couplings) * spins).sum(axis=1)
        assert np.array_equal(energies, qubo.objective_table() * scale), name
        # rational spot-check through the Fraction route
        for a in rng.integers(0, 1 << n, size=50):
            energy = ising.energy_of_assignment(int(a))
            assert energy == Fraction(int(qubo.objective(int(a)))), name
    assert checked >= 10
    # random formulas, full Fraction route on small registers
    for _ in range(10):
        formula = random_formula(rng, max_vars=5, max_clauses=6, max_width=4)
        qubo = cnf_to_qubo(formula)
        if qubo.num_vars > 10:
            continue
        ising = qubo_to_ising(qubo)
        for a in range(1 << qubo.num_vars):
            assert ising.energy_of_assignment(a) == qubo.objective(a)


def test_criterion_04_grover_unique_and_contradiction():
    formula = generate_synthetic("unique", {})
    state = uniform_superposition(6)
    for _ in range(6):
        state = grover_diffusion(phase_oracle(state, formula))
    probability = float(state.probabilities()[42])
    assert abs(probability - math.sin(13 * math.asin(1 / 8)) ** 2) < 1e-9

    report = solve_grover(formula, seed=0)
    assert report.verdict == Sat(witness=42)
    assert report.witness_string(formula) == "101010"

    for text in CONTRADICTIONS:
        report = solve_grover(parse_dimacs(text), seed=1)
        assert isinstance(report.verdict, NoSolutionFound)


def test_criterion_05_qaoa_addition_with_both_optimizers(tmp_path):
    formula = generate_synthetic("addition", {})
    problem = build_problem(formula)
    for kind in KINDS:
        solved = 0
        for seed in (0, 1, 2, 3, 4):
            spec = OptimizerSpec(kind=kind, max_iterations=200)
            report = solve_qaoa(problem.qubo, formula, layers=3,
                                optimizer=spec, seed=seed)
            if isinstance(report.verdict, Sat):
                assert formula.evaluate(report.verdict.witness)
                solved += 1
        assert solved >= 3, f"{kind}: {solved}/5"

    csv_path = sweep_convergence(tmp_path, runs=5, seed=42, max_iterations=200)
    runs: dict[tuple, list[float]] = {}
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "instance,solver,optimizer,seed,iteration,normalized_value"
    for row in rows[1:]:
        instance, solver, optimizer, seed, iteration, value = row.split(",")
        runs.setdefault((instance, solver, optimizer, seed), []).append(float(value))
    assert len(runs) == 2 * len(KINDS) * 5
    for key, values in runs.items():
        running = np.minimum.accumulate(values)
        assert np.all(np.diff(running) <= 0.0), key


def test_criterion_06_vqe_gradient_against_finite_differences():
    qubo = cnf_to_qubo(generate_synthetic("or", {"n": 3}))
    assert qubo.num_vars == 3
    ising = qubo_to_ising(qubo)
    hamiltonian = DiagonalHamiltonian(ising.n, ising.energy_table())
    layers = 2
    rng = np.random.default_rng(99)
    for _ in range(20):
        params = rng.uniform(-np.pi, np.pi, 3 * (layers + 1))

        def energy(p):
            state = vqe_state(3, layers, p)
            return float(np.real(np.vdot(
                state.amplitudes, hamiltonian.values * state.amplitudes
            )))

        exact = vqe_energy_gradient(hamiltonian, layers, params)
        step = 1e-5
        for i in range(params.size):
            hi, lo = params.copy(), params.copy()
            hi[i] += step
            lo[i] -= step
            fd = (energy(hi) - energy(lo)) / (2 * step)
            assert abs(exact[i] - fd) < 1e-4


def test_criterion_07_filter_grid_and_hand_case():
    for d in range(1, 61):
        for k in range(2, 21):
            f = FilterPolynomial(half_degree=d, delta=1.0 / k)
            assert eval_filter(f, 0.0) == 1.0
            xs = np.linspace(1.0 / k, 1.0, 101)
            assert np.all(np.abs(eval_filter(f, xs)) <= 1 + 1e-9), (d, k)
    hand = FilterPolynomial(half_degree=1, delta=0.5)
    assert abs(eval_filter(hand, 0.5) - 0.6) < 1e-12
    assert abs(eval_filter(hand, 1.0) + 0.6) < 1e-12


def test_criterion_08_qsvt_leakage_rates_and_reference_pairs(tmp_path):
    # satisfiable catalog: only CNF-verified witnesses; every surviving
    # non-solution weight obeys the computed multiple-of-delta ceiling.
    # two-solutions has rate ~4e-5, so shots must overwhelm the rarest rate
    for label, name, params in IN_BUDGET:
        formula = generate_synthetic(name, params)
        problem = build_problem(formula)
        report = solve_qsvt(problem.qubo, formula, problem.gap,
                            shots=200_000, seed=5)
        assert isinstance(report.verdict, Sat), label
        assert formula.evaluate(report.verdict.witness), label
        delta = report.config["delta"]
        half = report.config["degree"] // 2
        scale = report.config["scale"]
        f = FilterPolynomial(half, delta)
        multiples = np.arange(1, int(1 / delta) + 1) * delta
        leakage_ceiling = float(np.max(eval_filter(f, multiples) ** 2))
        for value in problem.spectrum.value_histogram:
            if value == 0:
                continue
            survived = float(eval_filter(f, value / scale) ** 2)
            assert survived <= leakage_ceiling + 1e-12, (label, value)

    # contradictions: the post-selection rate is capped by the band ripple
    for text in CONTRADICTIONS:
        formula = parse_dimacs(text)
        problem = build_problem(formula)
        report = solve_qsvt(problem.qubo, formula, problem.gap, seed=6)
        assert isinstance(report.verdict, NoSolutionFound)
        delta = report.config["delta"]
        half = report.config["degree"] // 2
        ripple = float(eval_filter(FilterPolynomial(half, delta), delta) ** 2)
        assert report.rate <= ripple + 1e-12

    # sampled rates at 10^5 shots sit within 3 sigma of the exact amplitudes
    csv_path = sweep_rates(tmp_path, shots=100_000, seed=42)
    rows = csv_path.read_text().splitlines()[1:]
    assert len(rows) == 11
    for row in rows:
        label, _, _, _, degree, rate, verdict = row.split(",")
        name, _, tail = label.partition(":")
        params = dict(kv.split("=") for kv in tail.split(",") if kv)
        formula = generate_synthetic(name, {k: int(v) for k, v in params.items()})
        problem = build_problem(formula)
        check = solve_qsvt(problem.qubo, formula, problem.gap, shots=1, seed=0)
        exact = check.rate
        assert check.config["degree"] == int(degree), label
        sigma = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(float(rate) - exact) <= 3 * sigma, (label, rate, exact)
        assert verdict == "sat"

    # reference (gap, degree) pairs exercised as filter configurations; the
    # odd listed degrees round up to the nearest even 2d
    for gap, degree in [(1 / 9, 51), (1 / 5, 21), (1 / 4, 17), (1 / 10, 53),
                        (1 / 6, 30)]:
        half = (degree + 1) // 2
        f = FilterPolynomial(half, gap)
        assert eval_filter(f, 0.0) == 1.0
        xs = np.linspace(gap, 1.0, 101)
        assert np.all(np.abs(eval_filter(f, xs)) <= 1 + 1e-9)
    # three catalog instances realize reference gaps exactly; run them at the
    # reference degree
    for name, params, half in [("or", {"n": 4}, 9), ("indicator", {}, 11),
                               ("unique", {}, 15)]:
        formula = generate_synthetic(name, params)
        problem = build_problem(formula)
        report = solve_qsvt(problem.qubo, formula, problem.gap,
                            degree=half, seed=8)
        assert report.config["degree"] == 2 * half
        assert isinstance(report.verdict, Sat)


def test_criterion_09_degree_capacity_bound():
    for label, name, params in IN_BUDGET:
        problem = build_problem(generate_synthetic(name, params))
        n = problem.qubo.num_vars
        delta = min(float(problem.gap.exact_gap), 63 / 64)
        d = choose_degree(delta, n)
        # independent route: mu = T_d(y(0))^2 via the cosh closed form
        y0 = (1 + delta * delta) / (1 - delta * delta)
        mu = math.cosh(d * math.acosh(y0)) ** 2
        assert 1 + math.log2(mu) >= n, (label, d)


def test_criterion_10_heatmap_range_and_monotonicity(tmp_path):
    csv_path = sweep_heatmap(tmp_path)
    columns: dict[str, list[tuple[int, float]]] = {}
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "d,delta,value"
    for row in rows[1:]:
        d, delta, value = row.split(",")
        v = float(value)
        assert -math.pi / 2 < v < math.pi / 2
        columns.setdefault(delta, []).append((int(d), v))
    assert len(columns) == 19  # delta = 1/2 .. 1/20
    for delta, pairs in columns.items():
        pairs.sort()
        assert [d for d, _ in pairs] == list(range(1, 61))
        values = [v for _, v in pairs]
        assert all(b >= a for a, b in zip(values, values[1:])), delta


SNIPPETS = [
    ("div_by_zero.c", "div-by-zero"),
    ("out_of_bounds.c", "bounds"),
    ("overflow.c", "overflow"),
]


def test_criterion_11_end_to_end_with_model_checker(tmp_path, capsys):
    if resolve_checker() is None:
        # no checker on this machine: the distinct exit code is the contract
        for source, check in SNIPPETS:
            code = main(["verify", "--source", str(DATA / source),
                         "--check", check])
            assert code == 3, source
        capsys.readouterr()
        pytest.skip("model checker unavailable; exit code 3 verified on all "
                    "three snippets")
    for source, check in SNIPPETS:
        out = tmp_path / f"{source}.json"
        code = main(["verify", "--source", str(DATA / source), "--check", check,
                     "--solver", "brute", "--out", str(out)])
        assert code == 1, source
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "sat"
        assert set(payload["witness"]) <= {"0", "1"}
        if payload["n_qubo_vars"] <= 14:
            again = tmp_path / f"{source}.qaoa.json"
            code = main(["verify", "--source", str(DATA / source),
                         "--check", check, "--solver", "qaoa",
                         "--out", str(again)])
            assert code == 1, source
            assert json.loads(again.read_text())["verdict"] == "sat"
