"""Reference cyclotomic arithmetic and character sums for the oracles.

These are the dense-list Cyc operations that quasik used before every sum
went through cyclotomic.conj_product_sum, and the character sums built by
chaining them one term at a time.  They share only the canonical-form
constructor Cyc._normalize with the library, so a fault in the summation
routine shows up as a disagreement.

Also here: the conductor minimization by exact Gaussian elimination over
every divisor that the prime descent in cyclotomic._minimize replaced, and
the Cyc operations the library itself no longer needs (inverse, division,
negative powers, |z|^2 and root-of-unity extraction), the central scalars
read at each element's order l before lambda_desc and kernel read one
exponent at exp(C), the kernel solver that enumerated Fraction candidates
before lambdarep.kernel ran in integers, the per-class Smith-form solve
that kernel made before it hoisted one particular solution per class out of
a shared residue loop (both filtered every Smith residue for the points in
[0,1)^n before kernel walked only kernel points) with the mat_vec they use,
the commuting-tuple scan that groups.commuting_tuples ran before it
descended through centralizers, and that descent as it asked groups.centralizer
for every node and every orbit before each node read its children off its
own rows, with the quasi_coefficients built on it, the restrictions that v_sigma,
fixed_part_rep, the external sum and restrict_lambda made by pulling a
class function back and decomposing it before every restriction in
lambdarep read one memoized branching matrix from
chartable.restriction_multiplicities, the decompose that took one
inner_product per irreducible before the character was expanded once, and
the character-table split and lift that tried every eigenvalue in F_p and
lifted every irreducible before chartable found the eigenvalues first and
lifted one character per Galois class.  Last, the checks that were made
once too often: the table verification that also checked the degree sum and
column orthogonality, which row orthogonality of a square table implies, and
hom_from_images with its pass over all pairs of elements, which its
generator-edge check already implies.  And the Smith normal form with one
closure per row and column operation that quasik.snf computed before it
made each operation in place, and the Smith-form kernel solve that
lambdarep.kernel made before it row-reduced once to a Hermite form.  And
the group scans that one generating set per group replaced: the identity
scan over every candidate, the cubic associativity loop, the per-element
order walk, the all-pairs is_abelian and the all-element class loop.  And
the direct product that built each cell by two GroupTable.mul calls before
groups.direct_product read rows of its factors' tables, and the quasi JSON
document that serialize_quasi encoded with json.dumps(indent=2) before it
wrote the same bytes in one pass.  And the coordinates that
chartable._coordinates recovered from a class function's values, by row
identity, the regular character or a class sum, before ClassFunction held
its coordinates in Irr(G).  And the permutation group closure that formed
one permutation product per table cell before group_from_generators built
each row from a generator's row, with the quaternion group's unit-product
rule table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence

from quasik import Cyc, subgroup_from_generators
from quasik.chartable import (
    CharacterTable,
    ClassFunction,
    EigVector,
    RepDecomposition,
    _primitive_root,
    _products,
    _smallest_valid_prime,
    central_scalar,
    character_table,
    decompose,
    inner_product,
)
from quasik.cyclotomic import _reduce, conj_product_sum
from quasik.errors import (
    GroupInputError,
    HomomorphismError,
    QuasiError,
    SizeLimitError,
    VirtualCharacterError,
)
from quasik.groups import (
    CommTuple,
    ConjugacyClass,
    GroupTable,
    Homomorphism,
    Limits,
    TupleOrbit,
    _check_elements,
    centralizer,
    class_index_map,
    conjugacy_classes,
    cycle_label,
    make_comm_tuple,
    subgroup_table,
)
from quasik.lambdarep import (
    KERNEL_ENUM_CAP,
    KernelDescription,
    LambdaDesc,
    LambdaRep,
    TwistedIrrep,
    lambda_desc,
)
from quasik.quasicalc import QuasiRecord, QuasiTable

_ZERO = Fraction(0)
_ONE = Fraction(1)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order."""
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _subfield_basis(n: int, d: int) -> tuple[tuple, ...]:
    """Canonical forms at conductor n of zeta_d^j for j < phi(d)."""
    step = n // d
    cols = []
    for j in range(totient(d)):
        dense = [_ZERO] * n
        dense[(step * j) % n] = _ONE
        cols.append(_reduce(n, dense))
    return tuple(cols)


def _solve_in_subfield(n: int, d: int, coeffs: tuple) -> Optional[tuple]:
    """Express coeffs (canonical at n) over the basis of Q(zeta_d), if possible."""
    cols = _subfield_basis(n, d)
    rows = totient(n)
    width = len(cols)
    # Augmented matrix [cols | coeffs], solved by exact Gaussian elimination.
    mat = [[cols[j][i] for j in range(width)] + [coeffs[i]] for i in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1, mat[r][c])  # exact on int and Fraction entries alike
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if mat[i][width]:
            return None
    sol = [_ZERO] * width
    for i, c in enumerate(pivots):
        sol[c] = mat[i][width]
    return tuple(sol)


def ref_minimize(n: int, coeffs: tuple) -> tuple[int, tuple]:
    """Least conductor and coordinates of a value canonical at n, trying every divisor."""
    if n == 1:
        return 1, coeffs
    if all(c == 0 for c in coeffs[1:]):
        return 1, (coeffs[0],)
    for d in divisors(n):
        if d < 3 or d == n:
            continue
        sol = _solve_in_subfield(n, d, coeffs)
        if sol is not None:
            return d, sol
    return n, coeffs


def ref_inv(a: Cyc) -> Cyc:
    """Inverse through the Galois norm: a * prod_{j != 1} a^(sigma_j) is rational."""
    if a.is_zero:
        raise ZeroDivisionError("inverse of zero cyclotomic value")
    if a.conductor == 1:
        return Cyc(Fraction(1, a.rational_value()))
    prod = Cyc(1)
    for j in range(2, a.conductor):
        if gcd(j, a.conductor) == 1:
            prod = prod * a.galois(j)
    norm = a * prod
    return prod * Cyc(Fraction(1, norm.rational_value()))


def ref_div(a, b) -> Cyc:
    """a / b for Cyc, int or Fraction operands."""
    a, b = a if isinstance(a, Cyc) else Cyc(a), b if isinstance(b, Cyc) else Cyc(b)
    if b.is_zero:
        raise ZeroDivisionError("division by zero cyclotomic value")
    if b.conductor == 1:
        return a * Cyc(Fraction(1, b.rational_value()))
    return a * ref_inv(b)


def ref_pow(a: Cyc, k: int) -> Cyc:
    """a ** k for every integer k, negative ones through ref_inv."""
    return ref_inv(a) ** -k if k < 0 else a ** k


def ref_abs_squared(a: Cyc) -> Cyc:
    """|z|^2 = z * conj(z); always real (conjugation-fixed), and rational
    whenever z is a rational multiple of a root of unity."""
    return a * a.conj()


@lru_cache(maxsize=None)
def _zeta_powers(l: int) -> tuple[Cyc, ...]:
    z = Cyc.zeta(l)
    powers = [Cyc(1)]
    for _ in range(l - 1):
        powers.append(powers[-1] * z)
    return tuple(powers)


def as_root_of_unity(c: Cyc, l: int) -> Optional[int]:
    """Return m with c = zeta_l^m and 0 < m <= l, mapping the value 1 to m = l.

    Returns None when c is not an l-th root of unity.
    """
    if l < 1:
        raise ValueError("order must be positive")
    powers = _zeta_powers(l)
    for m in range(1, l + 1):
        if c == powers[m % l]:
            return m
    return None


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
    table, a, b = chi.table, chi.values, psi.values
    acc = Cyc(0)
    for c, cls in enumerate(table.classes):
        term = ref_mul(ref_mul(a[c], ref_conj(b[c])), Cyc(cls.size))
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
    gamma = subgroup_from_generators(d.group, d.sigma.entries)
    acc = Cyc(0)
    for x in gamma.elements:
        acc = ref_add(acc, chi.value_at_element(x))
    val = ref_mul(acc, Cyc(Fraction(1, gamma.order))).rational_value()
    assert val.denominator == 1
    return int(val)


# The order-l reading of a central scalar that CharacterTable.scalar_exponent
# made, and lambda_desc and kernel through it, before both read the single
# exponent x of eig[lam][class] at e = exp(C) through central_exponent.
def ref_scalar_exponent(table: CharacterTable, irrep: int, element: int, l: int) -> Optional[int]:
    """m with element acting on irrep as the scalar zeta_l^m, 0 < m <= l.

    None when element does not act as a scalar, or acts by a root of
    unity whose order does not divide l.
    """
    vec = table.eig[irrep][table.class_of[element]]
    if len(vec) != 1:
        return None
    m, rem = divmod(vec[0][0] * l, table.exponent)
    if rem:
        return None
    return m or l


def ref_lambda_weights(d: LambdaDesc) -> tuple[tuple[Fraction, ...], ...]:
    """weights[lam][i] = m/l with lam(sigma_i) = zeta_l^m, l the order of sigma_i."""
    pairs = [(d.to_parent.index(s), l) for s, l in zip(d.sigma.entries, d.sigma.orders)]
    return tuple(
        tuple(Fraction(central_scalar(d.table, lam, s, l)[0], l) for s, l in pairs)
        for lam in range(len(d.table.rows))
    )


def _scalar_argument(d: LambdaDesc, lam: int, a: int) -> Optional[Fraction]:
    """Fraction r with the action of a on lam equal to e^(2 pi i r), or None."""
    la = d.cent_group.order_of(a)
    m = ref_scalar_exponent(d.table, lam, a, la)
    if m is None:
        return None
    return Fraction(m % la, la)


# The matrix-vector product that quasik.snf exported while kernel still used it.
def mat_vec(M: Sequence[Sequence[int]], v: Sequence) -> list:
    return [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M))]


def ref_kernel(rep: LambdaRep) -> KernelDescription:
    """Exact kernel of the action, by integer linear algebra.

    An element [a, t] acts on a component (lam, w) by rho_lam(a) * e^(2 pi i w.t),
    so it is in the kernel iff a acts as a scalar on every component and the
    congruences w_j . t = -arg_j(a) (mod 1) hold simultaneously.  Solutions are
    reduced to the canonical fundamental domain t in [0,1)^n.
    """
    d = rep.desc
    n = d.sigma.n
    C = d.cent_group
    trivial_row = d.table.trivial_index()
    zero = (Fraction(0),) * n
    comps = [c for c, _ in rep.components]
    if not comps or all(c.lam == trivial_row and c.weight == zero for c in comps):
        return KernelDescription(torus_rank=n, finite_points=(), full_group=True)

    weights = [c.weight for c in comps]
    den = lcm(*(w.denominator for row in weights for w in row), C.exponent())
    A = [[int(w * den) for w in row] for row in weights]
    S, U, V = ref_smith_normal_form(A)
    diag = [S[i][i] for i in range(min(len(S), n))]
    rank = sum(1 for s in diag if s)
    torus_rank = n - rank

    points: list[tuple[int, tuple[Fraction, ...]]] = []
    if torus_rank > 0:
        # rank deficiency already decides non-faithfulness; points are not finite
        return KernelDescription(torus_rank=torus_rank, finite_points=())
    combos = 1
    for s in diag:
        combos *= s
    if combos * C.order > KERNEL_ENUM_CAP:
        raise SizeLimitError("kernel solution enumeration exceeds the cap")
    for a in range(C.order):
        args: list[Fraction] = []
        for c in comps:
            arg = _scalar_argument(d, c.lam, a)
            if arg is None:
                break
            args.append(arg)
        if len(args) != len(comps):
            continue
        b = [int(-arg * den) for arg in args]
        c_vec = mat_vec(U, b)
        if any(c_vec[i] % den for i in range(rank, len(comps))):
            continue
        choices = [
            [Fraction(c_vec[i] + den * k, diag[i]) for k in range(diag[i])] for i in range(n)
        ]
        for y in product(*choices):
            t = [sum(Fraction(V[i][j]) * y[j] for j in range(n)) % den for i in range(n)]
            if all(coord < 1 for coord in t):
                points.append((a, tuple(t)))
    e = C.identity
    finite = tuple(sorted(p for p in points if p != (e, zero)))
    return KernelDescription(torus_rank=0, finite_points=finite)


# The class loop that lambdarep.kernel ran before it read the table's
# central_exponents columns: per class, the full U b over every row and its
# own residue choices y, each multiplied by V, and the candidates outside
# [0,1)^n thrown away, as kernel did until it walked a Hermite basis of the
# solution lattice.  The exponent x is read from eig here, as
# CharacterTable.central_exponent read it.
def _eig_exponent(table: CharacterTable, irrep: int, cls: int) -> Optional[int]:
    vec = table.eig[irrep][cls]
    return vec[0][0] if len(vec) == 1 else None


def ref_kernel_per_class(rep: LambdaRep) -> KernelDescription:
    """Exact kernel of the action, one Smith-form solve per class of C(sigma)."""
    d = rep.desc
    n = d.sigma.n
    C = d.cent_group
    trivial_row = d.table.trivial_index()
    zero = (Fraction(0),) * n
    comps = [c for c, _ in rep.components]
    if not comps or all(c.lam == trivial_row and c.weight == zero for c in comps):
        return KernelDescription(torus_rank=n, finite_points=(), full_group=True)

    weights = [c.weight for c in comps]
    e = d.table.exponent
    den = lcm(*(w.denominator for row in weights for w in row), e)
    A = [[int(w * den) for w in row] for row in weights]
    if len(A) < n:
        # rank A < n, read off the k x k Gram matrix A A^T (same rank over Q)
        # before the Smith transforms of A would build an n x n V
        S = ref_smith_normal_form([[sum(map(mul, r, s)) for s in A] for r in A])[0]
        rank = sum(1 for i, row in enumerate(S) if row[i])
        return KernelDescription(torus_rank=n - rank, finite_points=())
    S, U, V = ref_smith_normal_form(A)
    diag = [S[i][i] for i in range(min(len(S), n))]
    rank = sum(1 for s in diag if s)
    torus_rank = n - rank

    points: list[tuple[int, tuple[Fraction, ...]]] = []
    if torus_rank > 0:
        # rank deficiency already decides non-faithfulness; points are not finite
        return KernelDescription(torus_rank=torus_rank, finite_points=())
    if prod(diag) * C.order > KERNEL_ENUM_CAP:
        raise SizeLimitError("kernel solution enumeration exceeds the cap")
    L = lcm(*diag)
    period = L * den
    for ci, cls in enumerate(d.table.classes):
        # the class acts on lam by zeta_e^x (e divides den); each class is solved once
        xs = [_eig_exponent(d.table, c.lam, ci) for c in comps]
        if None in xs:
            continue
        c_vec = mat_vec(U, [-x * (den // e) for x in xs])
        if any(c_vec[i] % den for i in range(rank, len(comps))):
            continue
        # L * y_i over the residues y_i = (c_i + den k) / s_i mod den
        choices = [
            [(c_vec[i] + den * k) * (L // diag[i]) for k in range(diag[i])] for i in range(n)
        ]
        for y in product(*choices):
            T = [x % period for x in mat_vec(V, y)]
            if all(x < L for x in T):
                t = tuple(Fraction(x, L) for x in T)
                points += [(g, t) for g in cls.members]
    finite = tuple(sorted(p for p in points if p != (C.identity, zero)))
    return KernelDescription(torus_rank=0, finite_points=finite)


# The solve that lambdarep.kernel made before one Hermite form replaced the
# Smith form: the k x k Gram matrix's rank when k < n, then U A V = S, the
# coset -W (U xs)_{i<n} + W e Z^n with W = V diag(L/s_i), and a walk along
# a lower-triangular Hermite basis of W e Z^n found by Euclid with a sign fix.
def ref_kernel_smith(rep: LambdaRep) -> KernelDescription:
    """Exact kernel of the action, walked from the Smith form of the weights."""
    d = rep.desc
    n = d.sigma.n
    C = d.cent_group
    trivial_row = d.table.trivial_index()
    comps = [c for c, _ in rep.components]
    if not comps or all(c.lam == trivial_row and not any(c.weight) for c in comps):
        return KernelDescription(torus_rank=n, finite_points=(), full_group=True)

    e = d.table.exponent
    A = [[w.numerator * (e // w.denominator) for w in c.weight] for c in comps]
    if len(A) < n:
        S = ref_smith_normal_form([[sum(map(mul, r, s)) for s in A] for r in A])[0]
        rank = sum(1 for i, row in enumerate(S) if row[i])
        return KernelDescription(torus_rank=n - rank, finite_points=())
    S, U, V = ref_smith_normal_form(A)
    diag = [S[i][i] for i in range(n)]
    torus_rank = diag.count(0)
    if torus_rank > 0:
        return KernelDescription(torus_rank=torus_rank, finite_points=())
    if prod(diag) * C.order > KERNEL_ENUM_CAP:
        raise SizeLimitError("kernel solution enumeration exceeds the cap")
    L = lcm(*diag)
    W = [[v * (L // s) for v, s in zip(row, diag)] for row in V]
    # columns H[i] of a Hermite basis of W e Z^n: H[i][j] = 0 for j < i, H[i][i] > 0
    H = [[row[i] * e for row in W] for i in range(n)]
    for i in range(n):
        while True:  # Euclid along row i: the least nonzero entry first, then the zeros
            H[i:] = sorted(H[i:], key=lambda h: (not h[i], abs(h[i])))
            if i + 1 == n or not H[i + 1][i]:
                break
            H[i + 1:] = [[x - h[i] // H[i][i] * y for x, y in zip(h, H[i])] for h in H[i + 1:]]
        if H[i][i] < 0:
            H[i] = [-x for x in H[i]]
    P = [[-sum(map(mul, row, col)) for col in zip(*U[:n])] for row in W]
    members: dict = {}
    for cls, col in zip(d.table.classes, d.table.central_exponents):
        members.setdefault(tuple(col[c.lam] for c in comps), []).extend(cls.members)
    walk = []
    for xs, m in members.items():
        if None not in xs and not any(sum(map(mul, row, xs)) % e for row in U[n:]):
            walk.append((m, tuple(sum(map(mul, row, xs)) for row in P)))
    for i, h in enumerate(H):
        walk = [(m, tuple(v + q * x for v, x in zip(v, h)))
                for m, v in walk for q in range(-(v[i] // h[i]), (L - 1 - v[i]) // h[i] + 1)]
    points = sorted((g, T) for m, T in walk for g in m)
    points.remove((C.identity, (0,) * n))
    return KernelDescription(
        torus_rank=0, finite_points=tuple((g, tuple(Fraction(x, L) for x in T)) for g, T in points))


# The scan that groups.commuting_tuples ran before the centralizer descent:
# it lists every commuting n-tuple depth first and conjugates each new
# representative by all of G.
def ref_commuting_tuples(G: GroupTable, n: int, limits: Limits = Limits()) -> tuple[TupleOrbit, ...]:
    """Orbits of simultaneous conjugation on pairwise-commuting n-tuples.

    The representative of each orbit is its lexicographically least member.
    Raises SizeLimitError when |G|^n or n itself exceeds limits.tuples.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    limits.check_tuples(G.order, n)
    tuples: list[tuple[int, ...]] = []
    # depth-first, children pushed in reverse so tuples come out in lex order
    stack: list[tuple[tuple[int, ...], list[int]]] = [((), list(range(G.order)))]
    while stack:
        prefix, candidates = stack.pop()
        if len(prefix) == n:
            tuples.append(prefix)
            continue
        for x in reversed(candidates):
            stack.append((prefix + (x,), [y for y in candidates if G.commutes(x, y)]))
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for t in tuples:  # already in lexicographic order
        if t in seen:
            continue
        orbit = {tuple(G.conjugate(g, x) for x in t) for g in range(G.order)}
        seen.update(orbit)
        orbits.append(TupleOrbit(representative=make_comm_tuple(G, t), orbit_size=len(orbit)))
    return tuple(orbits)


# The centralizer descent that groups.commuting_tuples made before each node
# read its children's centralizers off its own rows: every node asked
# centralizer(G, prefix), which scans all of G and memoizes on G.  The
# coefficient tables that quasi_coefficients built from it asked
# centralizer(G, sigma) once more per orbit and found each sigma_i in the
# centralizer by a linear to_parent.index.
def ref_descent_commuting_tuples(G: GroupTable, n: int, limits: Limits = Limits()) -> tuple[TupleOrbit, ...]:
    if type(n) is not int or n < 1:
        raise ValueError("n must be an int >= 1")
    limits.check_tuples(G.order, n)
    orbits: list[TupleOrbit] = []

    def descend(prefix: tuple[int, ...]) -> None:
        H, to_G = subgroup_table(centralizer(G, prefix))
        if len(prefix) == n or H.order == 1:
            entries = prefix + (G.identity,) * (n - len(prefix))
            sigma = CommTuple(entries=entries, orders=tuple(G.order_of(x) for x in entries))
            orbits.append(TupleOrbit(representative=sigma, orbit_size=G.order // H.order))
            return
        for cls in conjugacy_classes(H):
            descend(prefix + (to_G[cls.rep],))

    descend(())
    return tuple(orbits)


def ref_quasi_coefficients(G: GroupTable, n: int, limits: Limits = Limits()) -> QuasiTable:
    records = []
    for orbit in ref_descent_commuting_tuples(G, n, limits):
        sigma = orbit.representative
        C, to_parent = subgroup_table(centralizer(G, sigma))
        table = character_table(C, limits)
        cols = [table.central_weights[table.class_of[to_parent.index(s)]] for s in sigma.entries]
        weights = tuple(zip(*cols))
        records.append(QuasiRecord(sigma_labels=tuple(G.label(s) for s in sigma.entries),
                                   orbit_size=orbit.orbit_size, centralizer_order=len(to_parent),
                                   rank=len(weights), twists=weights))
    return QuasiTable(group=G.name, n=n, records=tuple(records),
                      total_rank=sum(r.rank for r in records))


def ref_decompose(chi: ClassFunction) -> RepDecomposition:
    """Isotypic multiplicities of a genuine character."""
    table = chi.table
    entries = []
    for i in range(len(table.rows)):
        m = inner_product(chi, table.irreducible(i))
        if not m.is_rational:
            raise VirtualCharacterError("multiplicity is not rational")
        q = m.rational_value()
        if q.denominator != 1 or q < 0:
            raise VirtualCharacterError(
                f"multiplicity of {table.labels[i]} is {q}, not a non-negative integer"
            )
        if q:
            entries.append((i, int(q)))
    return RepDecomposition(table, tuple(entries))


# The coordinates <chi, chi_i> that chartable._coordinates recovered from a
# class function's values before ClassFunction held them: a table row found
# among the rows, the regular character found by its values, else chi
# expanded once at lcm(exp(G), its conductors).
def ref_coordinates(chi: ClassFunction) -> Sequence[Cyc | int]:
    table, values = chi.table, chi.values
    if values in table.rows:
        return [int(row == values) for row in table.rows]
    if values == tuple(Cyc(table.group.order * (c == table.id_class)) for c in range(table.n_classes)):
        return table.degrees
    n = lcm(table.exponent, *(v.conductor for v in values))
    return _products(table, [v._exponents_at(n) for v in values], n)


# The restrictions that lambdarep wrote out by hand before chartable.pull_back:
# v_sigma and fixed_part_rep each restricted and decomposed on their own, and
# the external sum rebuilt the factor's element index on every call.
def _restrict_to_centralizer(chi: ClassFunction, d: LambdaDesc) -> ClassFunction:
    if chi.table.group is not d.group:
        raise QuasiError("character does not live on the ambient group")
    vals = tuple(chi.value_at_element(d.to_parent[cls.rep]) for cls in d.table.classes)
    return ClassFunction(d.table, vals)


def ref_v_sigma(chi: ClassFunction, d: LambdaDesc) -> LambdaRep:
    """Restrict a character of G to the centralizer and give each isotypic
    piece its basis weight."""
    dec = decompose(_restrict_to_centralizer(chi, d))
    rep = LambdaRep(d, [(TwistedIrrep(lam, d.weights[lam]), m) for lam, m in dec.entries])
    want = chi.degree.rational_value()
    if rep.dimension() != want:
        raise QuasiError("dimension bookkeeping failed in v_sigma")  # unreachable
    return rep


def ref_fixed_part_rep(chi: ClassFunction, d: LambdaDesc) -> LambdaRep:
    """The subrepresentation on which every tuple entry acts as the scalar 1,
    placed at weight zero."""
    dec = decompose(_restrict_to_centralizer(chi, d))
    zero = (Fraction(0),) * d.sigma.n
    comps = []
    for lam, m in dec.entries:
        if all(w == 1 for w in d.weights[lam]):
            comps.append((TwistedIrrep(lam, zero), m))
    return LambdaRep(d, comps)


def ref_product_factor_irrep(
    desc_p: LambdaDesc,
    factor_table: CharacterTable,
    factor_to_parent: tuple[int, ...],
    lam: int,
    left: bool,
    h_order: int,
) -> int:
    """Index in the product centralizer's table of lam boxtimes trivial (or
    trivial boxtimes lam)."""
    local_index = {p: i for i, p in enumerate(factor_to_parent)}
    wanted = []
    for cls in desc_p.table.classes:
        parent_idx = desc_p.to_parent[cls.rep]  # index in G x H
        a, b = divmod(parent_idx, h_order)
        part = a if left else b
        wanted.append(factor_table.value_at_element(lam, local_index[part]))
    wanted_t = tuple(wanted)
    for i, row in enumerate(desc_p.table.rows):
        if row == wanted_t:
            return i
    raise QuasiError("factor irreducible not found in the product table")  # unreachable


# The pullback that restrict_lambda took before it read the branching matrix:
# every upstairs irreducible pulled back along C_H(tau) -> C_G(phi tau) as a
# class function and decomposed afresh.
def _pull_back(chi: ClassFunction, images: tuple[int, ...], table: CharacterTable) -> ClassFunction:
    return ClassFunction(table, tuple(chi.value_at_element(images[c.rep]) for c in table.classes))


def ref_restrict_lambda(
    phi: Homomorphism, tau, chi: ClassFunction
) -> tuple[LambdaRep, LambdaRep, bool]:
    """(pulled_back, direct, equal) as lambdarep.restrict_lambda returns them."""
    H, G = phi.source, phi.target
    if chi.table.group is not G:
        raise QuasiError("character does not live on the homomorphism target")
    if not isinstance(tau, CommTuple):
        tau = make_comm_tuple(H, tau)
    dg = lambda_desc(G, make_comm_tuple(G, tuple(phi(t) for t in tau.entries)))
    dh = lambda_desc(H, tau)
    images = tuple(dg.to_parent.index(phi(x)) for x in dh.to_parent)
    comps = []
    for c, m in ref_v_sigma(chi, dg).components:
        dec = ref_decompose(_pull_back(dg.table.irreducible(c.lam), images, dh.table))
        comps += [(TwistedIrrep(mu, c.weight), m * mult) for mu, mult in dec.entries]
    pulled = LambdaRep(dh, comps)
    direct = ref_v_sigma(_pull_back(chi, phi.images, character_table(H)), dh)
    return pulled, direct, pulled == direct


# The split and lift that chartable._modular_character_rows made before it
# took each class matrix's eigenvalues from its characteristic polynomial and
# lifted one character per Galois class: one null space for every lam in F_p,
# and a discrete Fourier inversion for every irreducible and class, with the
# powers of each class representative rebuilt by G.power each time.
def _ref_nullspace_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right null space of a matrix over F_p."""
    mat = [row[:] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % p
        basis.append(vec)
    return basis


def ref_modular_character_rows(G: GroupTable) -> list[tuple[tuple[Cyc, ...], tuple[EigVector, ...]]]:
    """Each irreducible as (values, eigenvalue vectors at conductor exp(G)),
    sorted as character_table sorts them."""
    classes = conjugacy_classes(G)
    class_of = class_index_map(G)
    k = len(classes)
    reps = [c.rep for c in classes]
    sizes = [c.size for c in classes]
    exponent = G.exponent()
    p = _smallest_valid_prime(exponent, G.order)

    # class-sum structure matrices: (A_i)[j][t] = #{x in C_i : x^-1 * z_t in C_j}
    mats = []
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        for t in range(k):
            z = reps[t]
            for x in classes[i].members:
                j = class_of[G.mul(G.inverse(x), z)]
                mat[j][t] += 1
        mats.append(mat)

    # split the common eigenspaces over F_p
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for mi in range(k):
        if all(len(space) == 1 for space in spaces):
            break
        mat = mats[mi]
        new_spaces = []
        for space in spaces:
            if len(space) == 1:
                new_spaces.append(space)
                continue
            # images of the space basis under A_i, as columns
            cols = [[sum(mat[r][c] * v[c] for c in range(k)) % p for v in space] for r in range(k)]
            remaining = len(space)
            for lam in range(p):
                shifted = [
                    [(cols[r][c] - lam * space[c][r]) % p for c in range(len(space))]
                    for r in range(k)
                ]
                coeffs = _ref_nullspace_mod_p(shifted, p)
                if not coeffs:
                    continue
                vecs = [
                    [sum(co[c] * space[c][r] for c in range(len(space))) % p for r in range(k)]
                    for co in coeffs
                ]
                new_spaces.append(vecs)
                remaining -= len(vecs)
                if remaining == 0:
                    break
        spaces = new_spaces
    if any(len(space) != 1 for space in spaces):
        raise QuasiError("class algebra failed to split into one-dimensional pieces")

    id_class = class_of[G.identity]
    inv_class = [class_of[G.inverse(r)] for r in reps]
    w = _primitive_root(p)

    values: dict[EigVector, Cyc] = {}  # one Cyc per distinct vector

    def value_of(vec: EigVector) -> Cyc:
        if vec not in values:
            values[vec] = conj_product_sum(((1, vec, ((0, 1),)),), exponent)
        return values[vec]

    rows = []
    for space in spaces:
        v = space[0]
        scale = pow(v[id_class], -1, p)
        omega = [(x * scale) % p for x in v]  # omega_i = |C_i| chi(g_i) / d  (mod p)
        denom = sum(omega[i] * omega[inv_class[i]] * pow(sizes[i], -1, p) for i in range(k)) % p
        d_sq = (G.order * pow(denom, -1, p)) % p
        d0 = next(d for d in range(1, p) if (d * d) % p == d_sq)
        d = d0 if d0 * d0 <= G.order else p - d0
        if d * d > G.order:
            raise QuasiError("degree lift out of range")

        def chi_mod(elem: int) -> int:
            c = class_of[elem]
            return (d * omega[c] * pow(sizes[c], -1, p)) % p

        vecs = []
        for t in range(k):
            g = reps[t]
            m = G.order_of(g)
            z_inv = pow(w, -((p - 1) // m), p)
            z_inv_pows = [pow(z_inv, u, p) for u in range(m)]
            m_inv = pow(m, -1, p)
            vec = []
            powers_chi = [chi_mod(G.power(g, u)) for u in range(m)]
            for j in range(m):
                acc = sum(powers_chi[u] * z_inv_pows[j * u % m] for u in range(m))
                c_j = (acc * m_inv) % p
                if c_j:
                    vec.append((j * (exponent // m), c_j))  # zeta_m^j = zeta_e^(j e/m)
            if sum(c for _, c in vec) != d:
                raise QuasiError("eigenvalue multiplicities do not sum to the degree")
            vecs.append(tuple(vec))
        rows.append((tuple(value_of(v) for v in vecs), tuple(vecs)))
    id_row = class_of[G.identity]
    return sorted(rows, key=lambda pair: (
        pair[0][id_row].rational_value(), tuple(v.sort_key() for v in pair[0])))


def ref_verify_table(table: CharacterTable) -> None:
    """Degree sum, and row and column orthogonality over Z[zeta_e]."""
    G = table.group
    k = table.n_classes
    e = table.exponent
    eig = table.eig
    if sum(d * d for d in table.degrees) != G.order:
        raise QuasiError("degree check failed")
    for i in range(k):
        for j in range(i, k):
            terms = ((cls.size, eig[i][c], eig[j][c]) for c, cls in enumerate(table.classes))
            if conj_product_sum(terms, e) != (G.order if i == j else 0):
                raise QuasiError("row orthogonality failed")
    for c1 in range(k):
        for c2 in range(c1, k):
            terms = ((1, vecs[c1], vecs[c2]) for vecs in eig)
            expected = G.order // table.classes[c1].size if c1 == c2 else 0
            if conj_product_sum(terms, e) != expected:
                raise QuasiError("column orthogonality failed")


def ref_hom_from_images(
    source: GroupTable,
    gens: Sequence[int],
    images: Sequence[int],
    target: GroupTable,
) -> Homomorphism:
    """Extend generator images to a homomorphism, verifying multiplicativity."""
    if len(gens) != len(images):
        raise HomomorphismError("need one image per generator")
    _check_elements(source, gens)
    _check_elements(target, images)
    full: list[Optional[int]] = [None] * source.order
    full[source.identity] = target.identity
    frontier = [source.identity]
    while frontier:
        nxt = []
        for x in frontier:
            fx = full[x]
            assert fx is not None
            for g, img in zip(gens, images):
                y = source.mul(x, g)
                fy = target.mul(fx, img)
                if full[y] is None:
                    full[y] = fy
                    nxt.append(y)
                elif full[y] != fy:
                    raise HomomorphismError("generator images are inconsistent")
        frontier = nxt
    if any(v is None for v in full):
        raise HomomorphismError("generators do not generate the source group")
    imgs = tuple(int(v) for v in full)  # type: ignore[arg-type]
    for a in range(source.order):
        for b in range(source.order):
            if imgs[source.mul(a, b)] != target.mul(imgs[a], imgs[b]):
                raise HomomorphismError("images do not define a homomorphism")
    return Homomorphism(source=source, target=target, images=imgs)


# The Smith normal form that quasik.snf computed before it made each operation
# in place: one closure per row and column operation, and the identity
# matrices that quasik.snf exported for it.  quasik.snf now computes a
# Hermite form only; the kernel references solve with this Smith form, and
# test_snf checks the Hermite form's rank and pivot product against it.
def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ref_smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
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


# The scans that GroupTable and conjugacy_classes made before they read one
# generating set per group (groups._generators): the identity found by trying
# every candidate e, the cubic associativity loop, one power walk per
# element, the all-pairs is_abelian, and the class loop that conjugated each
# class representative by every element, then filled class_of in a second
# pass over the classes.
def ref_identity(table: Sequence[Sequence[int]]) -> Optional[int]:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def ref_check_associative(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise GroupInputError("table is not associative")


def ref_element_orders(G: GroupTable) -> tuple[int, ...]:
    orders = []
    for a in range(G.order):
        k, x = 1, a
        while x != G.identity:
            x = G.mul(x, a)
            k += 1
        orders.append(k)
    return tuple(orders)


def ref_is_abelian(G: GroupTable) -> bool:
    return all(G.commutes(a, b) for a in range(G.order) for b in range(a + 1, G.order))


def ref_conjugacy_classes(G: GroupTable) -> tuple[tuple[ConjugacyClass, ...], tuple[int, ...]]:
    """The classes sorted by their least element, and the element -> class index map."""
    seen = [False] * G.order
    classes = []
    for a in range(G.order):
        if seen[a]:
            continue
        members = sorted({G.conjugate(g, a) for g in range(G.order)})
        for x in members:
            seen[x] = True
        classes.append(ConjugacyClass(rep=members[0], members=tuple(members)))
    class_of = [0] * G.order
    for ci, cls in enumerate(classes):
        for x in cls.members:
            class_of[x] = ci
    return tuple(classes), tuple(class_of)


# groups.direct_product before it read rows of G._mul and H._mul: two method
# calls and a fresh int per cell, and no memo on G.
def ref_direct_product(G: GroupTable, H: GroupTable) -> GroupTable:
    n_h = H.order
    table = []
    for a1 in range(G.order):
        for b1 in range(n_h):
            row = []
            for a2 in range(G.order):
                for b2 in range(n_h):
                    row.append(G.mul(a1, a2) * n_h + H.mul(b1, b2))
            table.append(row)
    labels = [f"({G.label(a)},{H.label(b)})" for a in range(G.order) for b in range(n_h)]
    return GroupTable(table, labels=labels, name=f"{G.name}x{H.name}")


# groups.group_from_generators before it built the table by rows: one
# degree-d permutation product per cell, n^2 d in all, and the quaternion
# group built from its 16 unit products before it became two permutations.
def ref_group_from_generators(
    generators: Iterable[Sequence[int]],
    degree: Optional[int] = None,
    name: str = "",
    limits: Limits = Limits(),
) -> GroupTable:
    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p[q[x]] for x in range(len(p)))

    gens = [tuple(g) for g in generators]
    if degree is None:
        degree = max((len(g) for g in gens), default=1)
    limits.check_size(degree)
    padded = []
    for g in gens:
        if any(type(x) is not int for x in g) or sorted(g) != list(range(len(g))):
            raise GroupInputError(f"generator {g} is not a bijection")
        if len(g) > degree:
            raise GroupInputError("generator degree exceeds requested degree")
        padded.append(tuple(g) + tuple(range(len(g), degree)))
    ident = tuple(range(degree))
    found = {ident}
    queue = [ident]
    for p in queue:
        for g in padded:
            q = compose(p, g)
            if q not in found:
                limits.check_closure(len(found))
                found.add(q)
                queue.append(q)
    perms = sorted(found)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = [cycle_label(p) for p in perms]
    return GroupTable(table, labels=labels, name=name or f"perm{degree}", perms=perms)


def ref_quaternion_group() -> GroupTable:
    units = ["1", "i", "j", "k"]
    # ax * bx -> (sign, unit) for the unit parts
    rule = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in units for s in (1, -1)]
    elems.sort(key=lambda e: (units.index(e[1]), -e[0]))
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for sa, ua in elems:
        row = []
        for sb, ub in elems:
            s, u = rule[(ua, ub)]
            row.append(index[(sa * sb * s, u)])
        table.append(row)
    labels = [("" if s > 0 else "-") + u for s, u in elems]
    return GroupTable(table, labels=labels, name="quaternion8")


# quasicalc.serialize_quasi before it wrote JSON itself: the document as a
# dict, encoded by json.dumps(indent=2), CPython's pure-Python encoder.
def quasi_document(table: QuasiTable) -> dict:
    """The JSON document of a coefficient table, as serialize_quasi writes it."""
    return {
        "group": table.group,
        "n": table.n,
        "E": table.theory,
        "records": [
            {
                "sigma": list(rec.sigma_labels),
                "orbit_size": rec.orbit_size,
                "centralizer_order": rec.centralizer_order,
                "rank": rec.rank,
                "twists": [[str(w) for w in twist] for twist in rec.twists],
            }
            for rec in table.records
        ],
        "total_rank": table.total_rank,
    }


def ref_serialize_quasi(table: QuasiTable) -> bytes:
    return (json.dumps(quasi_document(table), indent=2) + "\n").encode("utf-8")
