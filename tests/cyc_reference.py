"""Reference cyclotomic arithmetic and character sums for the oracles.

These are the dense-list Cyc operations that quasik used before every sum
went through cyclotomic.conj_product_sum, and the character sums built by
chaining them one term at a time.  They share only the canonical-form
constructor Cyc._normalize with the library, so a fault in the summation
routine shows up as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from quasik import Cyc, generated_subgroup_of_tuple

_ZERO = Fraction(0)


def _dense_at(a: Cyc, m: int) -> list[Fraction]:
    step = m // a.conductor
    dense = [_ZERO] * m
    for k, c in enumerate(a.coeffs):
        if c:
            dense[(k * step) % m] += c
    return dense


def ref_add(a: Cyc, b: Cyc) -> Cyc:
    if a.conductor == b.conductor:
        dense = [x + y for x, y in zip(a.coeffs, b.coeffs)]
        return Cyc._normalize(a.conductor, dense)
    m = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    dense = _dense_at(a, m)
    for k, c in enumerate(_dense_at(b, m)):
        dense[k] += c
    return Cyc._normalize(m, dense)


def ref_mul(a: Cyc, b: Cyc) -> Cyc:
    if b.conductor == 1:
        q = b.coeffs[0]
        if q == 0:
            return Cyc(0)
        return Cyc._make(a.conductor, tuple(c * q for c in a.coeffs))
    if a.conductor == 1:
        return ref_mul(b, a)
    m = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    da = _dense_at(a, m)
    db = _dense_at(b, m)
    out = [_ZERO] * (2 * m)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                if cb:
                    out[i + j] += ca * cb
    for i in range(m, 2 * m):
        if out[i]:
            out[i - m] += out[i]
            out[i] = _ZERO
    return Cyc._normalize(m, out[:m])


def ref_galois(a: Cyc, j: int) -> Cyc:
    n = a.conductor
    if gcd(j, n) != 1:
        raise ValueError("galois exponent must be coprime to the conductor")
    dense = [_ZERO] * n
    for k, c in enumerate(a.coeffs):
        if c:
            dense[(k * j) % n] += c
    return Cyc._normalize(n, dense)


def ref_conj(a: Cyc) -> Cyc:
    if a.conductor == 1:
        return a
    return ref_galois(a, a.conductor - 1)


def ref_inner_product(chi, psi) -> Cyc:
    """(1/|G|) sum over classes of |class| * chi * conj(psi), one Cyc op per term."""
    table = chi.table
    acc = Cyc(0)
    for c, cls in enumerate(table.classes):
        term = ref_mul(ref_mul(chi.values[c], ref_conj(psi.values[c])), Cyc(cls.size))
        acc = ref_add(acc, term)
    return ref_mul(acc, Cyc(Fraction(1, table.group.order)))


def ref_fs_indicator(table, irrep: int) -> int:
    G = table.group
    acc = Cyc(0)
    for cls in table.classes:
        sq = G.mul(cls.rep, cls.rep)
        acc = ref_add(acc, ref_mul(table.value_at_element(irrep, sq), Cyc(cls.size)))
    val = ref_mul(acc, Cyc(Fraction(1, G.order))).rational_value()
    assert val.denominator == 1 and val in (-1, 0, 1)
    return int(val)


def ref_fixed_space_dimension(chi, d) -> int:
    gamma = generated_subgroup_of_tuple(d.group, d.sigma)
    acc = Cyc(0)
    for x in gamma.elements:
        acc = ref_add(acc, chi.value_at_element(x))
    val = ref_mul(acc, Cyc(Fraction(1, gamma.order))).rational_value()
    assert val.denominator == 1
    return int(val)
