"""Smith normal form of a matrix of exact ints, with the transformation matrices."""

from __future__ import annotations

from typing import Sequence


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (S, U, V) with U * A * V = S, U and V unimodular, and S diagonal
    with non-negative entries s_1 | s_2 | ... (invariant factors first).
    """
    a = [list(row) for row in matrix]
    if any(type(x) is not int for row in a for x in row):
        raise TypeError("Smith normal form entries must be ints")
    m = len(a)
    n = len(a[0]) if m else 0
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        for k in range(n):
            a[dst][k] += q * a[src][k]
        for k in range(m):
            U[dst][k] += q * U[src][k]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    for s in range(min(m, n)):
        while True:
            # move a least-magnitude nonzero entry of the trailing block to (s, s)
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != s:
                swap_rows(s, best[0])
            if best[1] != s:
                swap_cols(s, best[1])
            if a[s][s] < 0:
                negate_row(s)
            done = True
            for i in range(s + 1, m):
                if a[i][s]:
                    add_row(s, i, -(a[i][s] // a[s][s]))
                    if a[i][s]:
                        done = False
            for j in range(s + 1, n):
                if a[s][j]:
                    add_col(s, j, -(a[s][j] // a[s][s]))
                    if a[s][j]:
                        done = False
            if not done:
                continue
            # force divisibility of the trailing block by the pivot
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if a[i][j] % a[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, s, 1)

    return a, U, V
