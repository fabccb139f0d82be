"""Hermite (row-echelon) form of a matrix of exact ints, with its row transform.
The module keeps its Smith-form name: the benchmark's spans import it by name."""

from __future__ import annotations

from typing import Sequence


def hermite_form(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], int]:
    """Row-reduce an integer k x n matrix A by unimodular row operations.

    Returns (R, U, rank) with U * A = R, U unimodular k x k, and R in
    row-echelon form with positive pivots; rows from rank on are zero.
    Each column is cleared below its pivot by Euclid, in place on R and U,
    and no n x n transform is built.
    """
    a = [list(row) for row in matrix]
    if any(type(x) is not int for row in a for x in row):
        raise TypeError("Hermite form entries must be ints")
    k = len(a)
    U = [[0] * k for _ in range(k)]
    for i in range(k):
        U[i][i] = 1
    r = 0
    for c in range(len(a[0]) if k else 0):
        while r < k:
            # move a least-magnitude nonzero entry of column c, rows r.., to row r
            best = 0
            for i in range(r, k):
                x = a[i][c]
                if x and (not best or abs(x) < best):
                    best, s = abs(x), i
            if not best:
                break
            a[r], a[s], U[r], U[s] = a[s], a[r], U[s], U[r]
            if a[r][c] < 0:
                a[r], U[r] = [-x for x in a[r]], [-x for x in U[r]]
            p, src, usrc, done = a[r][c], a[r], U[r], True
            for i in range(r + 1, k):  # row i -= q * row r
                if a[i][c]:
                    q = a[i][c] // p
                    row, urow = a[i], U[i]
                    for j in range(c, len(row)):  # both rows are zero left of c
                        row[j] -= q * src[j]
                    for j in range(k):
                        urow[j] -= q * usrc[j]
                    done = done and not a[i][c]
            if done:
                r += 1
                break
    return a, U, r
