import numpy as np
import pytest

from qverify.cnf import (
    Clause,
    CnfError,
    CnfFormula,
    Literal,
    emit_dimacs,
    format_assignment,
    parse_dimacs,
    satisfying_mask,
)

from conftest import random_formula
from reference import unsatisfied_count

EXAMPLE = """\
c a comment
p cnf 3 2
1 -2 0
c mid-stream comment
2
3 0
"""


def test_parse_basic():
    f = parse_dimacs(EXAMPLE)
    assert f.num_variables == 3
    assert len(f.clauses) == 2
    assert f.clauses[0].literals == (Literal(1), Literal(2, negated=True))
    assert f.clauses[1].literals == (Literal(2), Literal(3))
    assert f.provenance == "dimacs-file"


def test_parse_multiline_clause_and_percent_comment():
    f = parse_dimacs("p cnf 2 1\n% solver chatter\n1\n2\n0\n")
    assert f.clauses[0].width == 2


def test_roundtrip():
    f = parse_dimacs(EXAMPLE)
    assert parse_dimacs(emit_dimacs(f)) == f


@pytest.mark.parametrize("text,fragment", [
    ("1 0\np cnf 1 1\n", "before"),
    ("p cnf 1 1\n", "declares 1 clauses"),
    ("p cnf 1 1\n1\n", "unterminated"),
    ("p cnf 1 1\n2 0\n", "out of declared range"),
    ("p cnf 2 1\n1 -1 0\n", "tautological"),
    ("p cnf 2 1\n0\n", "empty clause"),
    ("p cnf 2 2\np cnf 2 2\n", "duplicate header"),
    ("p dnf 2 1\n1 0\n", "malformed header"),
    ("p cnf 2 1\n1 x 0\n", "non-integer"),
    ("", "missing"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(CnfError, match=fragment):
        parse_dimacs(text)


def test_parse_dedupes_repeated_literal():
    f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert f.clauses[0].literals == (Literal(1), Literal(2))


def test_literal_holds():
    assert Literal(3).holds(0b100)
    assert not Literal(3).holds(0b011)
    assert Literal(3, negated=True).holds(0b011)
    assert Literal.from_int(-5) == Literal(5, negated=True)
    assert Literal.from_int(-5).to_int() == -5
    with pytest.raises(CnfError):
        Literal.from_int(0)
    with pytest.raises(CnfError):
        Literal(0)


def test_clause_invariants():
    with pytest.raises(CnfError):
        Clause(())
    with pytest.raises(CnfError):
        Clause.of(1, -1)
    with pytest.raises(CnfError):
        Clause.of(2, 2)


def test_formula_range_check():
    with pytest.raises(CnfError, match="exceeds"):
        CnfFormula(1, (Clause.of(2),))


def test_evaluate_and_count():
    f = parse_dimacs(EXAMPLE)  # (x1 | !x2) & (x2 | x3)
    assert f.evaluate(0b011)  # x1=1 x2=1 x3=0
    assert not f.evaluate(0b010)  # x2 alone falsifies the first clause
    assert unsatisfied_count(f, 0b010) == 1
    assert unsatisfied_count(f, 0b000) == 1  # x2|x3 fails, x1|!x2 holds
    assert CnfFormula(2, ()).evaluate(0)  # no clauses: trivially satisfiable


def test_satisfying_mask_matches_evaluate():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        f = random_formula(rng, max_vars=8)
        mask = satisfying_mask(f)
        for a in range(1 << f.num_variables):
            assert mask[a] == f.evaluate(a), (f, a)


def test_satisfying_mask_chunks_agree():
    rng = np.random.default_rng(99)
    f = random_formula(rng, max_vars=10)
    assert np.array_equal(satisfying_mask(f, chunk=64), satisfying_mask(f))


def test_satisfying_mask_is_the_same_for_every_chunk_size():
    # chunks of 1, 2, 4, ... entries up to beyond the whole array, and sizes
    # that are no power of two
    rng = np.random.default_rng(7)
    for _ in range(30):
        f = random_formula(rng, max_vars=9, max_width=6)
        want = [f.evaluate(a) for a in range(1 << f.num_variables)]
        for chunk in (1, 2, 3, 8, 100, 1 << f.num_variables, 1 << 12):
            assert satisfying_mask(f, chunk=chunk).tolist() == want, (f, chunk)
    with pytest.raises(ValueError):
        satisfying_mask(f, chunk=0)


def test_mask_budget():
    with pytest.raises(CnfError, match="cap"):
        satisfying_mask(CnfFormula(25, ()))


def test_format_assignment():
    assert format_assignment(42, 6) == "101010"
    assert format_assignment(0, 3) == "000"
    assert format_assignment(0, 0) == ""
