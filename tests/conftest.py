"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest

from quasik import (
    ClassFunction,
    Cyc,
    LambdaRep,
    TwistedIrrep,
    alternating_group,
    build_group,
    commuting_tuples,
    cyclic_group,
    dihedral_group,
    lambda_basis,
    lambda_desc,
    quaternion_group,
    symmetric_group,
)

# tests that start `python -m quasik` children give them the src/ that
# pytest's pythonpath setting gives this process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def battery_groups():
    """Fresh instances of the acceptance battery (no shared caches)."""
    groups = [cyclic_group(k) for k in range(1, 13)]
    groups += [
        symmetric_group(3),
        symmetric_group(4),
        alternating_group(4),
        dihedral_group(4),
        quaternion_group(),
    ]
    return groups


@pytest.fixture(scope="session")
def battery():
    return battery_groups()


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return quaternion_group()


@contextmanager
def counting_instances(cls):
    """The argument tuples of each cls(...) made inside the block; a NamedTuple's
    _make bypasses __new__, and no src/ caller makes a tuple class that way."""
    made, new = [], cls.__new__

    def counted(klass, *args, **kwargs):
        made.append((args, kwargs))
        return new(klass, *args, **kwargs)

    with mock.patch.object(cls, "__new__", counted):
        yield made


# -- class functions that are no characters ----------------------------------------


def non_genuine_class_functions(table):
    """chi_i - chi_j for i != j, each row halved, and each class indicator."""
    rows = [table.irreducible(i) for i in range(len(table.rows))]
    out = [a + b.scale(-1) for a in rows for b in rows if a is not b]
    out += [ClassFunction(table, tuple(Cyc(Fraction(1, 2)) * v for v in r.values)) for r in rows]
    out += [
        ClassFunction(table, tuple(Cyc(int(c == k)) for c in range(table.n_classes)))
        for k in range(table.n_classes)
    ]
    return out


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# -- group-theory oracles ---------------------------------------------------------


def brute_conjugation_orbits(G):
    """Partition of the elements into conjugation orbits, computed directly."""
    remaining = set(range(G.order))
    orbits = []
    while remaining:
        a = min(remaining)
        orbit = {G.conjugate(g, a) for g in range(G.order)}
        remaining -= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def brute_commuting_pair_count(G):
    return sum(
        1 for a in range(G.order) for b in range(G.order) if G.commutes(a, b)
    )


def brute_tuple_orbit_count(G, k):
    """Number of simultaneous-conjugation orbits of pairwise-commuting k-tuples."""
    tuples = [()]
    for _ in range(k):
        tuples = [
            t + (b,)
            for t in tuples
            for b in range(G.order)
            if all(G.commutes(a, b) for a in t)
        ]
    seen = set()
    count = 0
    for t in tuples:
        if t in seen:
            continue
        seen.update(tuple(G.conjugate(g, a) for a in t) for g in range(G.order))
        count += 1
    return count


def class_count_checksum(G):
    """Sum over conjugacy classes [g] of the class count of C_G(g)."""
    from quasik import centralizer, conjugacy_classes, subgroup_table

    total = 0
    for cls in conjugacy_classes(G):
        sub, _ = subgroup_table(centralizer(G, (cls.rep,)))
        total += len({tuple(sorted({sub.conjugate(g, a) for g in range(sub.order)}))
                      for a in range(sub.order)})
    return total


def brute_contains_conjugate(G, gamma_elems, h_elems):
    hset = set(h_elems)
    for b in range(G.order):
        binv = G.inverse(b)
        if all(G.mul(G.mul(binv, g), b) in hset for g in gamma_elems):
            return True
    return False


# -- kernel oracle -----------------------------------------------------------------


def _minor_gcd(A, n):
    """gcd of all n x n minors (0 when the matrix has column rank < n)."""
    def det(rows):
        k = len(rows)
        if k == 1:
            return rows[0][0]
        total = 0
        for j in range(k):
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * det(sub)
            total += term if j % 2 == 0 else -term
        return total

    g = 0
    for idx in combinations(range(len(A)), n):
        g = gcd(g, abs(det([A[i] for i in idx])))
    return g


def oracle_kernel_grid(rep: LambdaRep):
    """Denominator-bounded brute-force kernel.

    The grid denominator is 2 * lcm(entry orders) * lcm(weight denominators),
    widened by the gcd of the maximal minors of the cleared weight matrix so
    that, by Cramer's rule, every solution of the congruence system lies on
    the grid whenever the weight matrix has full column rank.

    For speed the scan works with integer residues: a pair (a, t) acts
    trivially on a component exactly when the component's value at a equals
    degree * e^(2 pi i r) for the grid-rational r = -(w . t), and for fixed a
    that pins r to at most one residue class.

    Returns (rank_deficient, points, grid_denominator, total_pairs).
    """
    from cyc_reference import as_root_of_unity

    d = rep.desc
    n = d.sigma.n
    C = d.cent_group
    comps = [c for c, _ in rep.components]
    weights = [c.weight for c in comps]
    wden = 1
    for row in weights:
        for w in row:
            wden = lcm(wden, w.denominator)
    delta = 2 * lcm(*d.sigma.orders) * wden
    big_den = lcm(wden, C.exponent())
    A = [[int(w * big_den) for w in row] for row in weights]
    g = _minor_gcd(A, n) if len(A) >= n else 0
    rank_deficient = g == 0
    if not rank_deficient:
        delta = lcm(delta, g)
    m_den = wden * delta  # denominator of w . t on the grid
    int_weights = [[int(w * wden) for w in c.weight] for c in comps]
    zero = (Fraction(0),) * n
    points = []
    total = C.order * delta**n
    for a in range(C.order):
        # the unique residue class of -(w . t) mod 1 that makes each
        # component trivial at a, as a numerator over m_den; None = impossible
        allowed: list[int] | None = []
        for c in comps:
            deg = d.table.degrees[c.lam]
            val = d.table.value_at_element(c.lam, a)
            la = C.order_of(a)
            m = as_root_of_unity(val * Fraction(1, deg), la)
            if m is None:
                allowed = None
                break
            r = Fraction(m % la, la)
            if (r * m_den).denominator != 1:
                allowed = None  # scalar is not representable on the grid
                break
            allowed.append(int(r * m_den))
        if allowed is None:
            continue
        for kvec in product(range(delta), repeat=n):
            trivial = True
            for v, j in zip(int_weights, allowed):
                if (-sum(vi * ki for vi, ki in zip(v, kvec))) % m_den != j:
                    trivial = False
                    break
            if trivial:
                t = tuple(Fraction(k, delta) for k in kvec)
                if (a, t) != (C.identity, zero):
                    points.append((a, t))
    return rank_deficient, tuple(sorted(points)), delta, total


def oracle_cost_bound(rep: LambdaRep) -> int:
    """Predicted oracle grid size, used to keep randomized instances small."""
    d = rep.desc
    comps = [c for c, _ in rep.components]
    weights = [c.weight for c in comps]
    wden = 1
    for row in weights:
        for w in row:
            wden = lcm(wden, w.denominator)
    delta = 2 * lcm(*d.sigma.orders) * wden
    big_den = lcm(wden, d.cent_group.exponent())
    A = [[int(w * big_den) for w in row] for row in weights]
    g = _minor_gcd(A, d.sigma.n) if len(A) >= d.sigma.n else 0
    if g:
        delta = lcm(delta, g)
    return (delta ** d.sigma.n) * d.cent_group.order


def random_lambda_reps(count: int, seed: int = 20260810):
    """Deterministic stream of randomized representations over small groups."""
    rng = random.Random(seed)
    small = [
        build_group("cyclic:2"),
        build_group("cyclic:3"),
        build_group("cyclic:4"),
        build_group("cyclic:6"),
        build_group("cyclic:8"),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
    ]
    exp_small = [G for G in small if G.exponent() <= 4]
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 40 * count, "random generator failed to produce cheap instances"
        n = rng.choice([1, 1, 2])
        G = rng.choice(small if n == 1 else exp_small)
        orbits = commuting_tuples(G, n)
        orbit = orbits[rng.randrange(len(orbits))]
        desc = lambda_desc(G, orbit.representative)
        basis = lambda_basis(desc)
        k = rng.randint(1, min(3, len(basis)))
        comps = []
        for b in rng.sample(basis, k):
            shift = tuple(rng.randint(-2, 2) for _ in range(n))
            weight = tuple(w + s for w, s in zip(b.weight, shift))
            comps.append((TwistedIrrep(b.lam, weight), rng.randint(1, 2)))
        rep = LambdaRep(desc, comps)
        if rep.is_empty or oracle_cost_bound(rep) > 250_000:
            continue
        out.append(rep)
    return out
