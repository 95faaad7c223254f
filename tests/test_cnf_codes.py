"""A formula holds signed-int clause codes: the one-pass parser and the
integer reduction against the object-building reference implementations
(`tests/reference.py`), on generated inputs."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qverify.cnf import Clause, CnfError, CnfFormula, emit_dimacs, parse_dimacs
from qverify.reduction import Qubo, cnf_to_qubo
from qverify.synthetic import generate_synthetic, instance_names

from reference import reference_cnf_to_qubo, reference_parse_dimacs
from test_properties import formulas

# lines that are not clause data, or not valid clause data
COMMENTS = ["c", "c a comment", "c 1 2 0", "cnf-ish comment"]
BLANKS = ["", "   ", "\t"]
PERCENTS = ["%", "% solver chatter", "%0"]
JUNK = ["1 x 0", "1.5 0", "- 0", "0x1 0", "2 -", "p"]


@st.composite
def dimacs_texts(draw):
    """DIMACS-like text: mostly well-formed, with every kind of defect the
    parser checks for drawn in at some rate."""
    n = draw(st.integers(0, 5))
    # one past the range each way, rarely
    literal = st.one_of(st.integers(-n, n), st.integers(-n, n), st.integers(-(n + 1), n + 1)) \
        .filter(bool)
    body = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["clause"] * 16 + ["empty", "tokens", "comment", "blank",
                                                      "percent", "satlib", "junk", "header"]))
        if kind == "clause":
            codes = draw(st.lists(literal, min_size=1, max_size=4)) + [0]
            body.append(" ".join(map(str, codes)))
        elif kind == "empty":
            body.append("0")
        elif kind == "tokens":  # terminators anywhere: split, joined and unterminated clauses
            body.append(" ".join(map(str, draw(st.lists(st.integers(-(n + 1), n + 1),
                                                        min_size=1, max_size=6)))))
        elif kind == "comment":
            body.append(draw(st.sampled_from(COMMENTS)))
        elif kind == "blank":
            body.append(draw(st.sampled_from(BLANKS)))
        elif kind == "percent":
            body.append(draw(st.sampled_from(PERCENTS)))
        elif kind == "satlib":  # SATLIB's trailer: a "%" line and a lone 0
            body += ["%", "0"]
        elif kind == "junk":
            body.append(draw(st.sampled_from(JUNK)))
        else:
            body.append(f"p cnf {n} {draw(st.integers(0, 3))}")
    if draw(st.booleans()):
        body = [f"  {line} " for line in body]
    closed = sum(line.split().count("0") for line in body if not line.strip().startswith("c"))
    count = draw(st.one_of(st.just(closed), st.integers(0, 8)))
    header = draw(st.sampled_from([f"p cnf {n} {count}"] * 24 + [
        None, "p cnf", f"p dnf {n} {count}", f"p cnf {n} x", f"p  cnf  {n}  {count}"]))
    if header is not None:
        body.insert(draw(st.sampled_from([0] * 7 + [len(body) // 2])), header)
    return draw(st.sampled_from(["\n", "\r\n"])).join(body) + draw(st.sampled_from(["\n", ""]))


def _outcome(parse, text: str):
    try:
        return parse(text)
    except CnfError as exc:
        return f"CnfError: {exc}"


@settings(max_examples=400, deadline=None)
@given(text=dimacs_texts())
@example("c a comment\n\np cnf 3 2\n1 -2 0\nc mid\n2\n3 0\n")          # comments, split clause
@example("p cnf 2 1\n1 2 0\n%\n0\n")                                   # SATLIB trailer
@example("p cnf 2 1\n1 2 0\n%\n")                                      # "%" without the lone 0
@example("p cnf 2 2\n1 2 0\n% chatter\n-1 0\n")                        # "%" before the last clause
@example("p cnf 3 1\n1 1 2 -3 2 0\n")                                  # duplicate literals
@example("p cnf 2 1\n1 2 1 -1 0\n")                                    # tautology
@example("p cnf 2 1\n1 3 0\n")                                         # out of range
@example("p cnf 2 3\n1 0\n")                                           # count disagrees
@example("p cnf 2 1\n0\n")                                             # empty clause
@example("p cnf 2 1\n1 2\n")                                           # unterminated
@example("p cnf 2 1\n1 x 0\n")                                         # non-integer token
@example("p cnf 2 1\n1 -1 0\np cnf 2 1\n")                             # duplicate header wins
@example("p cnf 2 1\n5 0\n1 z 0\n")                                    # a line error wins
@example("1 0\np cnf 1 1\n")                                           # clause before header
@example("p cnf -1 0\n")                                               # negative count
@example("p cnf 3 2\n1 2 0 -3\n0\n")                                   # two clauses, two lines
def test_parser_agrees_with_the_reference(text):
    new, ref = _outcome(parse_dimacs, text), _outcome(reference_parse_dimacs, text)
    assert new == ref
    if isinstance(ref, CnfFormula):
        assert new.codes == ref.codes
        assert new.clauses == ref.clauses


@settings(max_examples=200, deadline=None)
@given(formula=formulas(max_vars=8, max_clauses=10, max_width=6))
def test_reduction_agrees_with_the_reference(formula):
    new, ref = cnf_to_qubo(formula), reference_cnf_to_qubo(formula)
    assert new.coeffs == ref.coeffs
    assert new.offset == ref.offset
    assert new.variable_map == ref.variable_map
    assert (new.clause_terms, new.gadget_terms) == (ref.clause_terms, ref.gadget_terms)
    assert new == ref
    dense = new.dense()
    assert dense.dtype == np.int64
    upper = np.zeros_like(dense)
    for (i, j), coeff in ref.coeffs.items():
        upper[i, j] += coeff
    assert np.array_equal(dense, upper)


@settings(max_examples=200, deadline=None)
@given(formula=formulas(max_vars=8, max_clauses=10, max_width=6))
def test_emitted_text_parses_back_to_the_formula(formula):
    back = parse_dimacs(emit_dimacs(formula))
    assert back == formula
    assert back.clauses == formula.clauses


def test_dense_folds_a_lower_key_onto_the_upper_entry():
    qubo = Qubo(3, {(2, 0): 4, (0, 2): -1, (1, 1): 5}, 0, ())
    assert qubo.dense().tolist() == [[0, 0, 3], [0, 5, 0], [0, 0, 0]]


@pytest.mark.parametrize("name", instance_names())
def test_catalog_codes_build_the_same_formula_as_clause_objects(name):
    formula = generate_synthetic(name)
    built = CnfFormula(formula.num_variables, tuple(Clause.of(*c) for c in formula.codes),
                       provenance=formula.provenance)
    assert formula == built
    assert cnf_to_qubo(formula) == reference_cnf_to_qubo(built)


@pytest.mark.parametrize("codes", [((),), ((1, 0),), ((2, -2),), ((2, 1, 2),), ((1,), (-5,))])
def test_codes_are_rejected_as_clause_objects_are(codes):
    with pytest.raises(CnfError) as expected:
        CnfFormula(3, tuple(Clause.of(*c) for c in codes))
    with pytest.raises(CnfError) as raised:
        CnfFormula.from_codes(3, codes)
    assert str(raised.value) == str(expected.value)
