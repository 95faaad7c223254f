import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qverify.cnf import Clause, CnfFormula, parse_dimacs
from qverify.oracle import qubo_spectrum
from qverify.reduction import (
    Auxiliary,
    GapInfo,
    Original,
    cnf_to_qubo,
    compute_gap,
    extend_assignment,
    qubo_to_ising,
)

from conftest import random_formula
from reference import (
    clause_penalty,
    eval_poly,
    qubo_from_json_dict,
    reduction_gadget,
    unsatisfied_count,
)


def test_penalty_width_one():
    # positive literal: 1 - x; negated: x
    pos = clause_penalty(Clause.of(1))
    neg = clause_penalty(Clause.of(-1))
    assert [eval_poly(pos, a) for a in (0, 1)] == [1, 0]
    assert [eval_poly(neg, a) for a in (0, 1)] == [0, 1]


def test_penalty_width_two_all_polarities():
    for na in (False, True):
        for nb in (False, True):
            codes = (-1 if na else 1, -2 if nb else 2)
            poly = clause_penalty(Clause.of(*codes))
            for assignment in range(4):
                holds = Clause.of(*codes).is_satisfied_by(assignment)
                assert eval_poly(poly, assignment) == (0 if holds else 1)


def test_penalty_example_values():
    # (x1 | x2) -> 1 - x1 - x2 + x1 x2, i.e. values 1,0,0,0
    poly = clause_penalty(Clause.of(1, 2))
    assert [eval_poly(poly, a) for a in range(4)] == [1, 0, 0, 0]


def test_penalty_rejects_wide_clause():
    with pytest.raises(ValueError, match="width"):
        clause_penalty(Clause.of(1, 2, 3))


def test_gadget_truth_table():
    """Zero exactly on the r = a OR b manifold, >= 1 off it, max 3."""
    for na in (False, True):
        for nb in (False, True):
            poly = reduction_gadget((0, na), (1, nb), 2)
            seen = set()
            for assignment in range(8):
                a = ((assignment >> 0) & 1) ^ na
                b = ((assignment >> 1) & 1) ^ nb
                r = (assignment >> 2) & 1
                value = eval_poly(poly, assignment)
                seen.add(value)
                if r == (a | b):
                    assert value == 0, (na, nb, assignment)
                else:
                    assert value >= 1, (na, nb, assignment)
            assert seen == {0, 1, 3}


def test_fold_left_structure():
    f = parse_dimacs("p cnf 5 2\n1 2 3 4 5 0\n1 2 0\n")
    q = cnf_to_qubo(f)
    assert q.num_original == 5
    assert q.num_auxiliary == 3  # width 5 folds three times, width 2 none
    assert q.variable_map[:5] == tuple(Original(v) for v in range(1, 6))
    assert q.variable_map[5:] == (Auxiliary(0, 0), Auxiliary(0, 1), Auxiliary(0, 2))
    assert q.clause_terms == 2
    assert q.gadget_terms == 3


def test_aux_count_formula():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = random_formula(rng)
        q = cnf_to_qubo(f)
        assert q.num_auxiliary == sum(max(0, cl.width - 2) for cl in f.clauses)


def test_objective_counts_unsatisfied_clauses():
    rng = np.random.default_rng(8)
    for _ in range(60):
        f = random_formula(rng, max_vars=7, max_clauses=8)
        q = cnf_to_qubo(f)
        for a in range(1 << f.num_variables):
            assert q.objective(extend_assignment(f, a)) == unsatisfied_count(f, a)


def test_objective_table_matches_scalar():
    f = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    q = cnf_to_qubo(f)
    table = q.objective_table()
    assert table.shape == (1 << q.num_vars,)
    for a in range(table.size):
        assert table[a] == q.objective(a)


def test_dense_is_upper_triangular_with_split_cross_terms():
    # symmetric-matrix reading: the off-diagonal coefficient 1 of (x1 | x2)
    # splits across Q[0][1] + Q[1][0]; we store it on the upper entry
    q = cnf_to_qubo(parse_dimacs("p cnf 2 1\n1 2 0\n"))
    dense = q.dense()
    assert dense[0, 1] == 1 and dense[1, 0] == 0
    assert dense[0, 0] == -1 and dense[1, 1] == -1
    assert q.offset == 1
    assert np.array_equal(dense, np.triu(dense))


def test_json_roundtrip():
    rng = np.random.default_rng(3)
    f = random_formula(rng)
    q = cnf_to_qubo(f)
    back = qubo_from_json_dict(q.to_json_dict())
    assert back == q


def test_ising_energy_equals_objective_exactly():
    rng = np.random.default_rng(21)
    for _ in range(40):
        f = random_formula(rng, max_vars=6, max_clauses=6, max_width=4)
        q = cnf_to_qubo(f)
        if q.num_vars > 12:
            continue
        ising = qubo_to_ising(q)
        for a in range(1 << q.num_vars):
            energy = ising.energy_of_assignment(a)
            assert energy.denominator == 1
            assert energy == q.objective(a)


def test_ising_integer_form_scale():
    q = cnf_to_qubo(parse_dimacs("p cnf 3 1\n1 2 3 0\n"))
    ising = qubo_to_ising(q)
    h, j, off, scale = ising.scaled_integer_form()
    assert scale in (1, 2, 4)  # denominators only come from the 1/2, 1/4 substitution
    table = ising.energy_table()
    assert np.array_equal(table * scale, np.rint(table * scale))
    assert np.array_equal(table, q.objective_table().astype(float))


def test_spin_convention():
    # assignment bit 1 maps to spin -1
    q = cnf_to_qubo(parse_dimacs("p cnf 1 1\n1 0\n"))
    ising = qubo_to_ising(q)
    assert ising.energy([1]) == 1   # x = 0 violates the unit clause
    assert ising.energy([-1]) == 0  # x = 1 satisfies it


def test_gap_info_invariants():
    with pytest.raises(ValueError, match="positive"):
        GapInfo(bound_M=0, estimated_gap=Fraction(1))
    with pytest.raises(ValueError, match="undercut"):
        GapInfo(bound_M=4, estimated_gap=Fraction(1, 4), exact_gap=Fraction(1, 5))


def test_compute_gap_counts_terms():
    q = cnf_to_qubo(parse_dimacs("p cnf 5 2\n1 2 3 4 5 0\n1 2 0\n"))
    info = compute_gap(q)
    assert info.bound_M == 2 + 3 * 3
    assert info.estimated_gap == Fraction(1, 11)
    assert info.exact_gap is None
    spectrum = qubo_spectrum(q)
    sharp = compute_gap(q, spectrum=spectrum)
    min_nonzero = min(v for v in spectrum.value_histogram if v != 0)
    assert sharp.exact_gap == Fraction(min_nonzero, sharp.max_value)
    assert sharp.estimated_gap <= sharp.exact_gap
    assert sharp.bound_M >= sharp.max_value


def test_compute_gap_empty_formula():
    q = cnf_to_qubo(CnfFormula(2, ()))
    info = compute_gap(q, spectrum=qubo_spectrum(q))
    assert info.bound_M == 1
    assert info.estimated_gap == Fraction(1)
    assert info.exact_gap is None  # constant-zero objective has no gap


def test_bound_dominates_max_on_random_formulas():
    rng = np.random.default_rng(5)
    for _ in range(30):
        f = random_formula(rng, max_vars=5, max_clauses=6, max_width=4)
        q = cnf_to_qubo(f)
        if q.num_vars > 14:
            continue
        info = compute_gap(q, spectrum=qubo_spectrum(q))
        if info.max_value is not None:
            assert info.bound_M >= info.max_value


def _imported_modules(path: Path) -> set[str]:
    """Every module an import in ``path`` names, at module level or inside a
    function, relative imports resolved against the ``qverify`` package."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the top of the package
                module = f"qverify.{module}".rstrip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_reduction_imports_nothing_from_the_oracle():
    import qverify.reduction

    names = _imported_modules(Path(qverify.reduction.__file__))
    assert "qverify.cnf" in names
    assert not any(name == "qverify.oracle" or name.startswith("qverify.oracle.")
                   for name in names)


def test_solvers_import_nothing_from_the_ising_side():
    import qverify.solvers

    modules = sorted(Path(qverify.solvers.__file__).parent.glob("*.py"))
    assert len(modules) >= 5
    ising_side = {"IsingModel", "qubo_to_ising", "hamiltonian_from_ising"}
    for path in modules:
        names = _imported_modules(path)
        assert not {name.rsplit(".", 1)[-1] for name in names} & ising_side, path.name
        attributes = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute)}
        assert "energy_table" not in attributes, path.name
