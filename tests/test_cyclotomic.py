"""Exact cyclotomic arithmetic: canonical forms, field axioms, root extraction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyc_reference import ref_add, ref_conj, ref_galois, ref_mul
from quasik import Cyc, as_root_of_unity
from quasik.cyclotomic import conj_product_sum, cyclotomic_polynomial, totient


def test_zeta4_squared_is_minus_one():
    z = Cyc.zeta(4)
    assert z * z == Cyc(-1)


def test_zeta3_plus_square_is_minus_one():
    z = Cyc.zeta(3)
    assert z + z * z == Cyc(-1)


def test_rationals_normalize_to_conductor_one():
    assert (Cyc.zeta(5) ** 5).conductor == 1
    assert Cyc(Fraction(3, 7)).conductor == 1
    assert (Cyc.zeta(8) * Cyc.zeta(8) ** 7).rational_value() == 1


def test_conductor_is_minimized():
    assert (Cyc.zeta(6)).conductor == 3  # zeta_6 = -zeta_3^2
    assert (Cyc.zeta(6) ** 2).conductor == 3
    assert (Cyc.zeta(12) ** 3).conductor == 4
    assert (Cyc.zeta(12) ** 4).conductor == 3
    assert (Cyc.zeta(8) ** 2).conductor == 4


def test_inverse_of_roots_and_rationals():
    assert Cyc.zeta(8).inv() == Cyc.zeta(8) ** 7
    assert Cyc(2).inv() == Cyc(Fraction(1, 2))
    a = Cyc(1) + Cyc.zeta(3)
    assert a * a.inv() == Cyc(1)
    with pytest.raises(ZeroDivisionError):
        Cyc(0).inv()


def test_division():
    assert Cyc.zeta(5) / Cyc.zeta(5) == Cyc(1)
    assert Cyc(3) / Cyc(2) == Cyc(Fraction(3, 2))


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
        assert a * a.inv() == Cyc(1)


@settings(max_examples=60, deadline=None)
@given(cycs(), cycs())
def test_conjugation(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    norm = a.abs_squared()
    assert norm.conj() == norm  # |z|^2 is fixed by conjugation, i.e. real
    if norm.is_rational:
        assert norm.rational_value() >= 0
    assert (a * 0).abs_squared() == Cyc(0)


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
        assert all(type(c) is Fraction for c in value.coeffs)


def test_conj_product_sum_of_integer_vectors():
    # 3 * zeta_8 * conj(zeta_8^3) + 2 * conj(zeta_8^2) = 5 * zeta_8^6 = -5i
    terms = [(3, ((1, 1),), ((3, 1),)), (2, ((0, 1),), ((2, 1),))]
    total = conj_product_sum(terms, 8)
    assert total == Cyc.zeta(4) * -5
    assert total.coeffs == (0, -5) and all(type(c) is Fraction for c in total.coeffs)
    # the 6 sixth roots of unity, each paired with 1, sum to 0
    assert conj_product_sum(((1, ((x, 1),), ((0, 1),)) for x in range(6)), 6) == 0


def test_render():
    assert Cyc(Fraction(1, 2)).render() == "1/2"
    assert Cyc.zeta(4).render() == "E(4)"
    assert (-Cyc.zeta(4)).render() == "-E(4)"
    assert (Cyc.zeta(5) ** 2).render() == "E(5)^2"
    assert Cyc(0).render() == "0"
