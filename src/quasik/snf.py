"""Smith normal form of a matrix of exact ints, with the transformation matrices."""

from __future__ import annotations

from typing import Sequence


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (S, U, V) with U * A * V = S, U and V unimodular, and S diagonal
    with non-negative entries s_1 | s_2 | ... (invariant factors first).
    Each operation is made in place, on S and on U (rows) or V (columns).
    """
    a = [list(row) for row in matrix]
    if any(type(x) is not int for row in a for x in row):
        raise TypeError("Smith normal form entries must be ints")
    m = len(a)
    n = len(a[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s in range(min(m, n)):
        while True:
            # move a least-magnitude nonzero entry of the trailing block to (s, s)
            best = 0
            for r in range(s, m):
                for c in range(s, n):
                    if a[r][c] and (not best or abs(a[r][c]) < best):
                        best, i, j = abs(a[r][c]), r, c
            if not best:
                break
            if i != s:
                a[s], a[i], U[s], U[i] = a[i], a[s], U[i], U[s]
            if j != s:
                for row in a + V:
                    row[s], row[j] = row[j], row[s]
            if a[s][s] < 0:
                a[s], U[s] = [-x for x in a[s]], [-x for x in U[s]]
            p, done = a[s][s], True
            for i in range(s + 1, m):  # row i -= q * row s
                if a[i][s]:
                    q = a[i][s] // p
                    row, src, urow, usrc = a[i], a[s], U[i], U[s]
                    for k in range(n):
                        row[k] -= q * src[k]
                    for k in range(m):
                        urow[k] -= q * usrc[k]
                    done = done and not a[i][s]
            for j in range(s + 1, n):  # column j -= q * column s
                if a[s][j]:
                    q = a[s][j] // p
                    for row in a:
                        row[j] -= q * row[s]
                    for row in V:
                        row[j] -= q * row[s]
                    done = done and not a[s][j]
            if not done:
                continue
            # force divisibility of the trailing block by the pivot
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[s] = [x + y for x, y in zip(a[s], a[offender])]
            U[s] = [x + y for x, y in zip(U[s], U[offender])]
    return a, U, V
