"""Synthetic CNF instances with known satisfying sets.

Each instance is defined by a predicate over its *value variables* (the first
``value_bits`` CNF variables); encodings may add auxiliary variables but the
satisfying set projected onto the value variables always equals the predicate.
Multi-bit symbols are laid out least-significant bit first, symbols in the
order they appear in the defining condition.

Catalog:

    or          ⋀ x_j                n unit clauses (default n=3)
    xor         ⊕ x_j = 1            direct expansion for n <= 4, else a chain
                                     with one auxiliary per step
    unique            bits = 42       over 6 bits
    semi-unique       bits ∈ {42,69}  over 8 bits
    two-solutions     bits ∈ {15,240} over 14 bits
    two-solutions-overlap bits ∈ {85,204} over 8 bits
    three-solutions   bits ∈ {42,101,205} over 8 bits
    addition    a+b = 2c+d           w-bit symbols (default w=1)
    flow        (a=b=c) ∧ (d+e+f>1)  w-bit symbols (default w=1)
    indicator   2a+b > 2c+d          w-bit symbols (default w=1)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .cnf import CnfError, CnfFormula


class _Builder:
    """Collects clauses while allocating auxiliary variables past the values.

    A circuit bit is either a Python bool (constant) or a signed literal code.
    """

    def __init__(self, num_value_vars: int):
        self.num_vars = num_value_vars
        self.clauses: list[tuple[int, ...]] = []

    def fresh(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def clause(self, *codes: int) -> None:
        self.clauses.append(codes)

    # -- gates with constant folding; negation of a literal code is free -----

    def and_gate(self, x, y):
        if x is False or y is False:
            return False
        if x is True:
            return y
        if y is True:
            return x
        g = self.fresh()
        self.clause(-g, x)
        self.clause(-g, y)
        self.clause(g, -x, -y)
        return g

    def or_gate(self, x, y):
        if x is True or y is True:
            return True
        if x is False:
            return y
        if y is False:
            return x
        g = self.fresh()
        self.clause(g, -x)
        self.clause(g, -y)
        self.clause(-g, x, y)
        return g

    def xor_gate(self, x, y):
        if x is False:
            return y
        if y is False:
            return x
        if x is True:
            return (not y) if isinstance(y, bool) else -y
        if y is True:
            return -x
        g = self.fresh()
        self.clause(-g, x, y)
        self.clause(-g, -x, -y)
        self.clause(g, -x, y)
        self.clause(g, x, -y)
        return g

    def maj_gate(self, x, y, z):
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            if a is False:
                return self.and_gate(b, c)
            if a is True:
                return self.or_gate(b, c)
        g = self.fresh()
        self.clause(-g, x, y)
        self.clause(-g, x, z)
        self.clause(-g, y, z)
        self.clause(g, -x, -y)
        self.clause(g, -x, -z)
        self.clause(g, -y, -z)
        return g

    # -- assertions ----------------------------------------------------------

    def assert_true(self, bit) -> None:
        if bit is True:
            return
        if bit is False:
            raise CnfError("constraint is constantly false")
        self.clause(bit)

    def assert_equal(self, x, y) -> None:
        if isinstance(x, bool) and isinstance(y, bool):
            if x != y:
                raise CnfError("constraint is constantly false")
            return
        if isinstance(x, bool):
            x, y = y, x
        if y is True:
            self.clause(x)
        elif y is False:
            self.clause(-x)
        else:
            self.clause(-x, y)
            self.clause(x, -y)

    def assert_parity(self, bits, odd: bool) -> None:
        """Constrain the XOR of the given bits to ``odd``."""
        lits = []
        for b in bits:
            if b is True:
                odd = not odd
            elif b is not False:
                lits.append(b)
        while len(lits) > 4:
            lits = [self.xor_gate(lits[0], lits[1])] + lits[2:]
        if not lits:
            if odd:
                raise CnfError("constraint is constantly false")
            return
        if len(lits) == 1:
            self.clause(lits[0] if odd else -lits[0])
            return
        # forbid every assignment of the wrong parity
        k = len(lits)
        for point in range(1 << k):
            if (bin(point).count("1") % 2 == 1) != odd:
                self.clause(*(-lits[i] if (point >> i) & 1 else lits[i] for i in range(k)))

    # -- arithmetic (LSB-first bit vectors) -----------------------------------

    def ripple_add(self, xs, ys):
        width = max(len(xs), len(ys))
        xs = list(xs) + [False] * (width - len(xs))
        ys = list(ys) + [False] * (width - len(ys))
        out, carry = [], False
        for x, y in zip(xs, ys):
            xy = self.xor_gate(x, y)
            out.append(self.xor_gate(xy, carry))
            carry = self.maj_gate(x, y, carry)
        out.append(carry)
        return out

    def assert_greater(self, xs, ys) -> None:
        """Constrain the unsigned value of xs to exceed that of ys."""
        width = max(len(xs), len(ys))
        xs = list(xs) + [False] * (width - len(xs))
        ys = list(ys) + [False] * (width - len(ys))
        gt, eq = False, True
        for x, y in zip(reversed(xs), reversed(ys)):
            y_neg = (not y) if isinstance(y, bool) else -y
            gt = self.or_gate(gt, self.and_gate(eq, self.and_gate(x, y_neg)))
            eq = self.and_gate(eq, self.xor_gate(True, self.xor_gate(x, y)))
        self.assert_true(gt)

    def finish(self, name: str) -> CnfFormula:
        return CnfFormula.from_codes(self.num_vars, self.clauses, provenance=f"synthetic:{name}")


def _symbol_bits(first_var: int, width: int) -> list[int]:
    return list(range(first_var, first_var + width))


def _decode(value: int, offset: int, width: int) -> int:
    return (value >> offset) & ((1 << width) - 1)


# --------------------------------------------------------------- the catalog


def _build_or(params):
    n = params["n"]
    b = _Builder(n)
    for v in range(1, n + 1):
        b.clause(v)
    return b.finish("or")


def _build_xor(params):
    n = params["n"]
    b = _Builder(n)
    if n <= 4:
        b.assert_parity(list(range(1, n + 1)), odd=True)
    else:
        acc = 1
        for v in range(2, n):
            acc = b.xor_gate(acc, v)  # one auxiliary per chain step
        b.assert_parity([acc, n], odd=True)
    return b.finish("xor")


def _build_values(name: str, values: tuple[int, ...], width: int):
    def build(params):
        b = _Builder(width)
        if len(values) == 1:
            for j in range(width):
                b.clause((j + 1) if (values[0] >> j) & 1 else -(j + 1))
        else:
            selectors = [b.fresh() for _ in values]
            b.clause(*selectors)
            for sel, value in zip(selectors, values):
                for j in range(width):
                    b.clause(-sel, (j + 1) if (value >> j) & 1 else -(j + 1))
        return b.finish(name)

    return build


def _build_addition(params):
    w = params["bits"]
    b = _Builder(4 * w)
    a, bb, c, d = (_symbol_bits(1 + i * w, w) for i in range(4))
    if w == 1:
        # half adder written out: a+b = (carry, sum) must equal (c, d)
        b.assert_parity([a[0], bb[0], d[0]], odd=False)
        b.clause(-c[0], a[0])
        b.clause(-c[0], bb[0])
        b.clause(c[0], -a[0], -bb[0])
    else:
        lhs = b.ripple_add(a, bb)
        rhs = b.ripple_add([False] + c, d)
        for x, y in zip(lhs + [False] * len(rhs), rhs + [False] * len(lhs)):
            b.assert_equal(x, y)
    return b.finish("addition")


def _build_flow(params):
    w = params["bits"]
    b = _Builder(6 * w)
    a, bb, c, d, e, f = (_symbol_bits(1 + i * w, w) for i in range(6))
    for x, y in zip(a, bb):
        b.assert_equal(x, y)
    for x, y in zip(bb, c):
        b.assert_equal(x, y)
    if w == 1:
        # at least two of d, e, f
        b.clause(d[0], e[0])
        b.clause(d[0], f[0])
        b.clause(e[0], f[0])
    else:
        total = b.ripple_add(b.ripple_add(d, e), f)
        high = [s for s in total[1:] if s is not False]
        if not any(s is True for s in high):
            if not high:
                raise CnfError("constraint is constantly false")
            b.clause(*high)
    return b.finish("flow")


def _build_indicator(params):
    w = params["bits"]
    b = _Builder(4 * w)
    a, bb, c, d = (_symbol_bits(1 + i * w, w) for i in range(4))
    if w == 1:
        # 2a+b > 2c+d over single bits, minimized by hand to five 2-clauses
        b.clause(a[0], bb[0])
        b.clause(a[0], -c[0])
        b.clause(a[0], -d[0])
        b.clause(-c[0], -d[0])
        b.clause(bb[0], -c[0])
    else:
        b.assert_greater(b.ripple_add([False] + a, bb), b.ripple_add([False] + c, d))
    return b.finish("indicator")


def _pred_or(value, params):
    return value == (1 << params["n"]) - 1


def _pred_xor(value, params):
    return bin(value).count("1") % 2 == 1


def _pred_values(values):
    return lambda value, params: value in values


def _pred_addition(value, params):
    w = params["bits"]
    a, b, c, d = (_decode(value, i * w, w) for i in range(4))
    return a + b == 2 * c + d


def _pred_flow(value, params):
    w = params["bits"]
    a, b, c, d, e, f = (_decode(value, i * w, w) for i in range(6))
    return a == b == c and d + e + f > 1


def _pred_indicator(value, params):
    w = params["bits"]
    a, b, c, d = (_decode(value, i * w, w) for i in range(4))
    return 2 * a + b > 2 * c + d


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    defaults: dict
    value_bits: Callable[[dict], int]
    predicate: Callable[[int, dict], bool]
    build: Callable[[dict], CnfFormula]


CATALOG: dict[str, InstanceSpec] = {}


def _register(name, defaults, value_bits, predicate, build):
    CATALOG[name] = InstanceSpec(name, defaults, value_bits, predicate, build)


_register("or", {"n": 3}, lambda p: p["n"], _pred_or, _build_or)
_register("xor", {"n": 2}, lambda p: p["n"], _pred_xor, _build_xor)
for _name, _vals, _width in (
    ("unique", (42,), 6),
    ("semi-unique", (42, 69), 8),
    ("two-solutions", (15, 240), 14),
    ("two-solutions-overlap", (85, 204), 8),
    ("three-solutions", (42, 101, 205), 8),
):
    _register(_name, {}, lambda p, w=_width: w, _pred_values(_vals),
              _build_values(_name, _vals, _width))
_register("addition", {"bits": 1}, lambda p: 4 * p["bits"], _pred_addition, _build_addition)
_register("flow", {"bits": 1}, lambda p: 6 * p["bits"], _pred_flow, _build_flow)
_register("indicator", {"bits": 1}, lambda p: 4 * p["bits"], _pred_indicator, _build_indicator)


def instance_names() -> list[str]:
    return sorted(CATALOG)


def resolve_params(name: str, params: Mapping | None = None) -> dict:
    if name not in CATALOG:
        raise CnfError(f"unknown synthetic instance {name!r}; known: {', '.join(instance_names())}")
    spec = CATALOG[name]
    merged = dict(spec.defaults)
    for key, val in (params or {}).items():
        if key not in spec.defaults:
            raise CnfError(f"instance {name!r} takes no parameter {key!r}")
        merged[key] = int(val)
    for key, val in merged.items():
        if val < 1:
            raise CnfError(f"parameter {key}={val} must be >= 1")
    return merged


def value_bit_count(name: str, params: Mapping | None = None) -> int:
    merged = resolve_params(name, params)  # first: it rejects an unknown name
    return CATALOG[name].value_bits(merged)


def generate_synthetic(name: str, params: Mapping | None = None) -> CnfFormula:
    """Build a catalog instance; see the module docstring for the names."""
    merged = resolve_params(name, params)
    return CATALOG[name].build(merged)
