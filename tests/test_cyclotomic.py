"""Exact cyclotomic arithmetic: canonical forms, field axioms, root extraction."""

from __future__ import annotations

import ast
import operator
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyc_reference import (
    as_root_of_unity,
    ref_abs_squared,
    ref_add,
    ref_conj,
    ref_div,
    ref_galois,
    ref_inv,
    ref_minimize,
    ref_mul,
    ref_pow,
    totient,
)
import quasik
from quasik import Cyc
from quasik.cyclotomic import (
    _minimize,
    _reduce,
    conj_product_sum,
    cyclotomic_polynomial,
)


def test_zeta4_squared_is_minus_one():
    z = Cyc.zeta(4)
    assert z * z == Cyc(-1)


def test_zeta3_plus_square_is_minus_one():
    z = Cyc.zeta(3)
    assert z + z * z == Cyc(-1)


def test_rationals_normalize_to_conductor_one():
    assert (Cyc.zeta(5) ** 5).conductor == 1
    assert Cyc(Fraction(3, 7)).conductor == 1
    assert Cyc(True).coeffs == (1,) and type(Cyc(True).coeffs[0]) is int
    with pytest.raises(TypeError, match="floats are not allowed"):
        Cyc(0.5)
    for bad in ("1/2", b"1", None):  # only int and Fraction are taken
        with pytest.raises(TypeError, match="int or a Fraction"):
            Cyc(bad)
    assert (Cyc.zeta(8) * Cyc.zeta(8) ** 7).rational_value() == 1


def test_operands_that_are_not_exact_numbers_are_refused():
    # each operator returns NotImplemented for them, so Python names the
    # operator in its TypeError, and == is False instead of reading ._n
    z = Cyc.zeta(3)
    assert z != "x" and not z == "x"
    for other in (None, 0.5, object()):
        assert z != other and not z == other
        for op, sym in ((operator.add, "+"), (operator.sub, "-"), (operator.mul, "*")):
            for a, b in ((z, other), (other, z)):
                message = rf"^unsupported operand type\(s\) for {re.escape(sym)}: "
                with pytest.raises(TypeError, match=message):
                    op(a, b)
    assert 1 - z == Cyc(1) - z and Fraction(1, 2) - z == Cyc(Fraction(1, 2)) - z
    assert not Cyc(0) and not Cyc.zeta(4) + Cyc.zeta(4) ** 3
    assert Cyc.zeta(3) and Cyc(Fraction(-1, 2))


def test_conductor_is_minimized():
    assert (Cyc.zeta(6)).conductor == 3  # zeta_6 = -zeta_3^2
    assert (Cyc.zeta(6) ** 2).conductor == 3
    assert (Cyc.zeta(12) ** 3).conductor == 4
    assert (Cyc.zeta(12) ** 4).conductor == 3
    assert (Cyc.zeta(8) ** 2).conductor == 4


def test_inverse_of_roots_and_rationals():
    assert ref_inv(Cyc.zeta(8)) == Cyc.zeta(8) ** 7
    assert ref_inv(Cyc(2)) == Cyc(Fraction(1, 2))
    a = Cyc(1) + Cyc.zeta(3)
    assert a * ref_inv(a) == Cyc(1)
    with pytest.raises(ZeroDivisionError):
        ref_inv(Cyc(0))
    assert ref_pow(Cyc.zeta(8), -3) == Cyc.zeta(8) ** 5
    with pytest.raises(ValueError, match="^only non-negative powers are defined$"):
        Cyc.zeta(8) ** -1  # the library keeps only k >= 0


def test_rejections_have_exact_messages():
    with pytest.raises(ValueError, match="^conductor must be positive$"):
        Cyc.zeta(0)
    with pytest.raises(ValueError, match=r"^Cyc\(E\(7\)\) is not rational$"):
        Cyc.zeta(7).rational_value()
    with pytest.raises(ValueError, match="^galois exponent must be coprime to the conductor$"):
        Cyc.zeta(12).galois(2)


def test_division():
    assert ref_div(Cyc.zeta(5), Cyc.zeta(5)) == Cyc(1)
    assert ref_div(Cyc(3), Cyc(2)) == Cyc(Fraction(3, 2))
    assert ref_div(3, Cyc(2)) == Cyc(Fraction(3, 2))


def test_as_root_of_unity_examples():
    assert as_root_of_unity(Cyc(-1), 2) == 1
    assert as_root_of_unity(Cyc(1), 4) == 4  # the value 1 maps to m = l
    assert as_root_of_unity(Cyc.zeta(6) ** 2, 3) == 1
    assert as_root_of_unity(Cyc(2), 4) is None
    assert as_root_of_unity(Cyc.zeta(3), 2) is None


@pytest.mark.parametrize("l", range(1, 25))
def test_as_root_of_unity_round_trip(l):
    for m in range(1, l + 1):
        assert as_root_of_unity(Cyc.zeta(l) ** m, l) == m


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in (1, 2, 3, 4, 8, 9, 12, 15):
        assert len(cyclotomic_polynomial(n)) == totient(n) + 1
    # each division in cyclotomic_polynomial is exact: x^n - 1 is the product of
    # Phi_d over the divisors d of n
    for n in range(1, 61):
        prod = (1,)
        for phi in (cyclotomic_polynomial(d) for d in range(1, n + 1) if n % d == 0):
            prod = tuple(sum(prod[i] * phi[k - i] for i in range(len(prod)) if 0 <= k - i < len(phi))
                         for k in range(len(prod) + len(phi) - 1))
        assert prod == (-1,) + (0,) * (n - 1) + (1,)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cycs(draw):
    n = draw(_conductors)
    k = draw(st.integers(min_value=0, max_value=n - 1))
    value = Cyc.zeta(n, k) * draw(_rationals)
    if draw(st.booleans()):
        m = draw(_conductors)
        j = draw(st.integers(min_value=0, max_value=m - 1))
        value = value + Cyc.zeta(m, j) * draw(_rationals)
    return value


@settings(max_examples=60, deadline=None)
@given(cycs(), cycs(), cycs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == Cyc(0)
    if not a.is_zero:
        assert a * ref_inv(a) == Cyc(1)


@settings(max_examples=60, deadline=None)
@given(cycs(), cycs())
def test_conjugation(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    norm = ref_abs_squared(a)
    assert norm.conj() == norm  # |z|^2 is fixed by conjugation, i.e. real
    if norm.is_rational:
        assert norm.rational_value() >= 0
    assert ref_abs_squared(a * 0) == Cyc(0)


@settings(max_examples=40, deadline=None)
@given(cycs())
def test_canonical_form_round_trip(a):
    # rebuilding from the canonical coefficients reproduces the value
    rebuilt = Cyc(0)
    for k, coeff in enumerate(a.coeffs):
        rebuilt = rebuilt + Cyc.zeta(a.conductor, k) * coeff
    assert rebuilt == a
    assert rebuilt.conductor == a.conductor


@st.composite
def dense_cycs(draw):
    """Values built straight from a dense coefficient list, without Cyc arithmetic."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 24]))
    dense = draw(st.lists(
        st.one_of(st.just(Fraction(0)), _rationals), min_size=n, max_size=n
    ))
    return Cyc._normalize(n, dense)


@settings(max_examples=100, deadline=None)
@given(dense_cycs(), dense_cycs(), st.integers(min_value=1, max_value=50))
def test_arithmetic_matches_the_dense_reference(a, b, j):
    assert a + b == ref_add(a, b)
    assert a - b == ref_add(a, -b)
    assert a * b == ref_mul(a, b)
    assert a.conj() == ref_conj(a)
    if all(j % p for p in (2, 3, 5, 7) if a.conductor % p == 0):
        assert a.galois(j) == ref_galois(a, j)
    for value in (a + b, a * b, a.conj()):
        assert all(type(c) in (int, Fraction) for c in value.coeffs)


def test_conj_product_sum_of_integer_vectors():
    # 3 * zeta_8 * conj(zeta_8^3) + 2 * conj(zeta_8^2) = 5 * zeta_8^6 = -5i
    terms = [(3, ((1, 1),), ((3, 1),)), (2, ((0, 1),), ((2, 1),))]
    total = conj_product_sum(terms, 8)
    assert total == Cyc.zeta(4) * -5
    assert total.coeffs == (0, -5) and all(type(c) in (int, Fraction) for c in total.coeffs)
    # the 6 sixth roots of unity, each paired with 1, sum to 0
    assert conj_product_sum(((1, ((x, 1),), ((0, 1),)) for x in range(6)), 6) == 0


def test_render():
    assert Cyc(Fraction(1, 2)).render() == "1/2"
    assert Cyc.zeta(4).render() == "E(4)"
    assert (-Cyc.zeta(4)).render() == "-E(4)"
    assert (Cyc.zeta(5) ** 2).render() == "E(5)^2"
    assert Cyc(0).render() == "0"


@st.composite
def integer_cycs(draw):
    """Values built from integers only: roots of unity and integer character sums."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24]))
    if draw(st.booleans()):
        return Cyc.zeta(n, draw(st.integers(min_value=0, max_value=n - 1)))
    sparse = st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1), st.integers(-3, 3)),
        min_size=1, max_size=4,
    ).map(tuple)
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), sparse, sparse), max_size=3))
    return conj_product_sum(terms, n)


@settings(max_examples=80, deadline=None)
@given(integer_cycs(), integer_cycs(), st.integers(min_value=1, max_value=50))
def test_values_built_from_integers_have_int_coefficients(a, b, j):
    values = [Cyc(3), a, b, a + b, a - b, a * b, a * 5, -a, a.conj(), a ** 3]
    if gcd(j, a.conductor) == 1:
        values.append(a.galois(j))
    for value in values:
        assert all(type(c) is int for c in value.coeffs), value.coeffs
    assert type(Cyc(3).rational_value()) is Fraction


# -- the conductor descent against the Gaussian-elimination reference -------------


def _prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


_BY_KIND = {
    "p^2 | n": [n for n in range(1, 121) if any(n % (p * p) == 0 for p in _prime_factors(n))],
    "odd p || n": [
        n for n in range(1, 121) if any(p > 2 and n % (p * p) for p in _prime_factors(n))
    ],
    "n = 2 mod 4": [n for n in range(1, 121) if n % 4 == 2],
    "rational": list(range(1, 121)),
}


def _embedded(n, d, vector, stray=None):
    """Canonical coordinates at n of sum_j vector[j] * zeta_d^j, plus c * zeta_n^k."""
    dense = [0] * n
    for j, c in enumerate(vector):
        dense[j * (n // d)] += c
    if stray is not None:
        k, c = stray
        dense[k] += c
    return n, _reduce(n, dense)


_coefficients = st.one_of(st.integers(-3, 3), _rationals)


@st.composite
def embedded_values(draw):
    """A value of Q(zeta_d) written at a multiple n <= 120 of d, maybe off by one term."""
    kind = draw(st.sampled_from(sorted(_BY_KIND)))
    n = draw(st.sampled_from(_BY_KIND[kind]))
    if kind == "rational":
        return _embedded(n, 1, [draw(_coefficients)])
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    vector = draw(st.lists(_coefficients, min_size=d, max_size=d))
    stray = None
    if draw(st.booleans()):
        stray = (draw(st.integers(0, n - 1)), draw(_coefficients.filter(bool)))
    return _embedded(n, d, vector, stray)


@settings(max_examples=80, deadline=None)
@given(embedded_values())
@example(_embedded(36, 9, [0, 1, 0, 0, 0, 0, 0, 0, 2]))  # p^2 | n: descends 36 -> 18 -> 9
@example(_embedded(36, 12, [0, 1] + [0] * 10))  # zeta_12 stops at 12
@example(_embedded(45, 15, [Fraction(1, 2)] * 15, (1, 1)))  # stray term keeps 45
@example(_embedded(105, 21, [0, 1] + [0] * 19))  # odd p || n: 5 splits off, 3 and 7 stay
@example(_embedded(30, 30, [0, 0, 0, 0, 0, -1]))  # zeta_30^5 = zeta_6: n = 2 mod 4
@example(_embedded(60, 1, [Fraction(-7, 3)]))  # rational
def test_descent_matches_the_elimination_reference(value):
    n, coeffs = value
    got = _minimize(n, coeffs)
    assert got == ref_minimize(n, coeffs)
    assert all(type(c) in (int, Fraction) for c in got[1])


def test_no_true_division_in_src():
    # `/` on two ints makes a float; exact quotients are written Fraction(a, b)
    hits = []
    for path in sorted(Path(quasik.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits


def test_no_cap_parameters_in_src():
    # every size cap travels in one quasik.Limits value
    hits = []
    for path in sorted(Path(quasik.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in ("max_order", "cap", "tuple_cap"):
                        hits.append(f"{path.name}:{node.lineno}:{arg.arg}")
    assert not hits
