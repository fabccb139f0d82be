"""Hermite form: row-echelon shape, a unimodular transform and the rank.

Also the Smith normal form that the kernel references solve with: known
forms, transformation identities, unimodularity.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyc_reference import ref_smith_normal_form
from quasik.snf import hermite_form


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _det(m):
    n = len(m)
    mat = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c]:
                f = mat[r][c] * inv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return det


def _rank(m):
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check(a):
    s, u, v = ref_smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert _matmul(_matmul(u, [list(r) for r in a]), v) == s
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    diag = [s[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz  # nonzero entries come first
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    return diag


def test_known_forms():
    assert _check([[2, 4], [6, 8]]) == [2, 4]  # det = -8, gcd = 2
    assert _check([[1, 0], [0, 1]]) == [1, 1]
    assert _check([[0, 0], [0, 0]]) == [0, 0]
    assert _check([[6]]) == [6]
    assert _check([[2, 0], [0, 3]]) == [1, 6]
    assert _check([[4, 6], [6, 9]]) == [1, 0]  # rank 1


def test_rectangular():
    assert _check([[2], [3], [4]]) == [1]
    assert _check([[12, 8, 6]]) == [2]
    assert _check([[1, 2, 3], [4, 5, 6]]) == [1, 3]


def test_smith_normal_form_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        _check(a)


@pytest.mark.parametrize("matrix", [[[1.5, 2], [3, 4]], [[Fraction(3, 2)]], [[Fraction(2)]],
                                    [[True, 0], [0, 1]], [["1"]]])
def test_entries_must_be_ints(matrix):
    # int() gave the Smith form of [[1, 2], [3, 4]] for the first; a non-int entry
    # is a TypeError, as it is for Cyc
    with pytest.raises(TypeError, match="^Hermite form entries must be ints$"):
        hermite_form(matrix)
    with pytest.raises(TypeError, match="^Smith normal form entries must be ints$"):
        ref_smith_normal_form(matrix)


@st.composite
def _matrices_with_zero_lines(draw):
    """Up to 5 x 5, entries in [-30, 30], with some rows and columns zeroed."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=m, max_size=m))
    zero_rows, zero_cols = draw(st.sets(st.integers(0, m - 1))), draw(st.sets(st.integers(0, n - 1)))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def _check_hermite(a):
    r, u, rank = hermite_form(a)
    assert _matmul(u, a) == r
    assert abs(_det(u)) == 1
    assert rank == _rank(a)
    assert not any(any(row) for row in r[rank:])
    pivots = [next(j for j, x in enumerate(row) if x) for row in r[:rank]]
    assert pivots == sorted(set(pivots))  # each pivot right of the one above
    assert all(r[i][j] > 0 for i, j in enumerate(pivots))
    # the pivot product is the covolume of the row lattice, as is the product
    # of the Smith diagonal: kernel's enumeration cap reads one for the other
    s = ref_smith_normal_form(a)[0]
    diag = [s[i][i] for i in range(min(len(a), len(a[0])))]
    assert rank == sum(1 for x in diag if x)
    if rank == len(a[0]):
        assert prod(r[i][j] for i, j in enumerate(pivots)) == prod(diag)


@settings(max_examples=400, deadline=None)
@given(_matrices_with_zero_lines())
def test_hermite_form_matches_the_reference(matrix):
    _check_hermite(matrix)


@pytest.mark.parametrize("matrix", [[[0]], [[1]], [[-7]], [[12]], [[0], [0]], [[0, 0, 0]],
                                    [[0, 5], [0, 0]], [[-4], [6], [0], [-9]],
                                    # wide, k < n: the rank, with no n x n transform
                                    [[0, 0, -3]], [[6, 10, 15]], [[2, 4, 6], [1, 3, 5]],
                                    [[0, 2, 0, 4], [0, -3, 0, -6]]])
def test_small_and_zero_shapes_match_the_reference(matrix):
    _check_hermite(matrix)
