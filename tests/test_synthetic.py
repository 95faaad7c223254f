import pytest

from qverify.cnf import CnfError
from qverify.synthetic import (
    generate_synthetic,
    instance_names,
    resolve_params,
    value_bit_count,
)

from reference import enumerate_sat

# every parameterization exercised below stays inside the enumeration budget
CASES = [
    ("or", {"n": 1}), ("or", {"n": 3}), ("or", {"n": 5}),
    ("xor", {"n": 2}), ("xor", {"n": 3}), ("xor", {"n": 4}),
    ("xor", {"n": 5}), ("xor", {"n": 6}),
    ("unique", {}), ("semi-unique", {}), ("two-solutions", {}),
    ("two-solutions-overlap", {}), ("three-solutions", {}),
    ("addition", {"bits": 1}), ("addition", {"bits": 2}),
    ("flow", {"bits": 1}), ("flow", {"bits": 2}),
    ("indicator", {"bits": 1}),
]


@pytest.mark.parametrize("name,params", CASES)
def test_projection_matches_predicate(name, params):
    """The encoding may add helper variables, but projected onto the value
    bits its satisfying set must equal the defining predicate exactly."""
    from qverify.synthetic import CATALOG

    formula = generate_synthetic(name, params)
    merged = resolve_params(name, params)
    bits = value_bit_count(name, params)
    predicate = CATALOG[name].predicate
    expected = {v for v in range(1 << bits) if predicate(v, merged)}
    projected = {a & ((1 << bits) - 1) for a in enumerate_sat(formula)}
    assert projected == expected, (name, params)


@pytest.mark.parametrize("name,params", CASES)
def test_instances_are_satisfiable(name, params):
    assert enumerate_sat(generate_synthetic(name, params))


def test_known_sizes():
    assert generate_synthetic("unique").num_variables == 6
    assert generate_synthetic("or", {"n": 4}).num_variables == 4
    # chained xor allocates one helper per folded step
    assert generate_synthetic("xor", {"n": 6}).num_variables == 6 + 4


def _propagate(formula, fixed: dict[int, bool]) -> bool:
    """Unit-propagation satisfiability with all value variables pinned.

    The gate encodings are propagation-complete once their inputs are known,
    so this decides the instance without search; a stuck fixpoint would mean
    that assumption broke and the test should fail loudly.
    """
    values = dict(fixed)
    while True:
        progress = False
        for cl in formula.clauses:
            unassigned = []
            satisfied = False
            for lit in cl.literals:
                want = not lit.negated
                if lit.variable in values:
                    if values[lit.variable] == want:
                        satisfied = True
                        break
                else:
                    unassigned.append((lit.variable, want))
            if satisfied:
                continue
            if not unassigned:
                return False
            if len(unassigned) == 1:
                var, want = unassigned[0]
                values[var] = want
                progress = True
        if not progress:
            break
    for cl in formula.clauses:
        assert cl.is_satisfied_by(
            sum(1 << (v - 1) for v, b in values.items() if b)
        ), "propagation got stuck; encoding is not propagation-complete"
    return True


def test_indicator_two_bit_projection_by_propagation():
    # 33 variables is past the enumeration budget; unit propagation decides
    # the gate encoding exactly once the 8 value bits are pinned
    formula = generate_synthetic("indicator", {"bits": 2})
    for value in range(1 << 8):
        a, b, c, d = ((value >> (2 * i)) & 3 for i in range(4))
        fixed = {v + 1: bool((value >> v) & 1) for v in range(8)}
        assert _propagate(formula, fixed) == (2 * a + b > 2 * c + d), value


def test_provenance_label():
    assert generate_synthetic("unique").provenance == "synthetic:unique"
    assert generate_synthetic("flow").provenance == "synthetic:flow"


def test_unique_witness_is_42():
    assert enumerate_sat(generate_synthetic("unique")) == [42]


def test_catalog_listing():
    names = instance_names()
    assert names == sorted(names)
    assert {"or", "xor", "unique", "addition", "flow", "indicator"} <= set(names)


def test_param_validation():
    with pytest.raises(CnfError, match="unknown synthetic instance"):
        generate_synthetic("no-such-instance")
    with pytest.raises(CnfError, match="takes no parameter"):
        generate_synthetic("or", {"bits": 2})
    with pytest.raises(CnfError, match="must be >= 1"):
        generate_synthetic("or", {"n": 0})
    assert resolve_params("addition") == {"bits": 1}
    assert value_bit_count("addition", {"bits": 2}) == 8
    assert value_bit_count("flow") == 6
