"""Exact irreducible character tables of finite groups.

The table is computed by the modular method (Dixon 1967, Schneider 1990).
Over F_p with p = 1 (mod exponent), the common eigenspaces of the class-sum
matrices are split at the roots of each one's characteristic polynomial.  One
character per Galois class is lifted to exact values by a discrete Fourier
inversion that counts eigenvalue multiplicities; for a unit j mod e, its
conjugate chi^(sigma_j) takes chi's values at the classes of g^j, with each
eigenvalue exponent times j, and the split skips the eigenspaces it spans.

The lift's integers are kept: for each irreducible and class the table
stores the multiplicity c of each eigenvalue zeta_e^x, e = exp(G), as a
sparse vector ((x, c), ...), with one Cyc per distinct vector for the sort
and the Cyc rows.  The CharacterTable constructor verifies these vectors in
Z[zeta_e], with integer arithmetic only, before it derives anything from
them (see _verify_table).
An element acts as a scalar exactly when its vector has a single entry x,
and then acts as zeta_e^x: each table reads these once, into the columns
central_exponents[class][irrep] = x (or None) and, for a central class,
central_weights[class][irrep] = x/e, or 1 when x = 0.  lambdarep reads every
scalar from these columns, and the kernel's b = -x.

Every character sum here (table entries, orthogonality, the values of a class
function, Frobenius-Schur indicators) is one call to cyclotomic.conj_product_sum,
which reduces the whole sum once.  A ClassFunction holds its coordinates in Irr(G).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .cyclotomic import Cyc, _primes, conj_product_sum
from .errors import NonScalarError, QuasiError, VirtualCharacterError
from .groups import (
    GroupTable,
    Homomorphism,
    Limits,
    _check_elements,
    class_index_map,
    conjugacy_classes,
)


EigVector = tuple[tuple[int, int], ...]  # ((x, multiplicity of zeta_e^x), ...)


class CharacterTable:
    """Irreducible characters of a finite group, one row per irreducible.

    Built from the lifted eig rows in any order: they are sorted by (degree,
    value vector), trivial character first, and verified before any column is
    derived.  Columns follow the conjugacy class order (sorted by least
    member).  eig[irrep][class] holds the eigenvalue multiplicities ((x, c),
    ...) of that entry, sorted by x: the value is sum c * zeta_e^x, e = exponent.
    """

    def __init__(self, group: GroupTable, eig: Sequence[tuple[EigVector, ...]]):
        self.group = group
        self.classes = conjugacy_classes(group)
        self.class_of = class_index_map(group)
        self.id_class = self.class_of[group.identity]
        self.exponent = group.exponent()
        self.n_classes = len(self.classes)
        if any(len(vecs) != self.n_classes for vecs in eig):  # the sort key reads every class
            raise QuasiError("a row does not have one value per class")
        # one Cyc per distinct vector, for the sort key and the Cyc rows
        values = {v: conj_product_sum(((1, v, ((0, 1),)),), self.exponent)
                  for v in {v for vecs in eig for v in vecs}}
        self.eig = tuple(sorted(map(tuple, eig), key=lambda vecs: (
            sum(c for _, c in vecs[self.id_class]), tuple(values[v].sort_key() for v in vecs))))
        self._conj_rows = _verify_table(self)  # the index of each row's complex conjugate
        self.rows = tuple(tuple(values[v] for v in vecs) for vecs in self.eig)
        self.degrees = tuple(sum(c for _, c in vecs[self.id_class]) for vecs in self.eig)
        # central_exponents[cls][irrep] = x when cls acts on irrep as zeta_e^x, else None;
        # a central class also has its column of weights x/e in (0, 1], or 1 when x = 0
        self.central_exponents = tuple(tuple(v[0][0] if len(v) == 1 else None for v in col)
                                       for col in zip(*self.eig))
        fracs = [Fraction(x or self.exponent, self.exponent) for x in range(self.exponent)]
        self.central_weights = tuple(None if None in xs else tuple(fracs[x] for x in xs)
                                     for xs in self.central_exponents)
        self.labels = tuple(f"chi{i}" for i in range(len(self.rows)))

    def value_at_element(self, irrep: int, element: int) -> Cyc:
        return self.rows[irrep][self.class_of[element]]

    def irreducible(self, irrep: int) -> "ClassFunction":
        coords = [0] * len(self.eig)
        coords[irrep] = 1
        return ClassFunction._of(self, coords)

    def trivial_index(self) -> int:
        """The trivial character sorts first: degree 1, and rational 1 at every class."""
        return 0

    def regular_character(self) -> "ClassFunction":
        return ClassFunction._of(self, self.degrees)

    def conjugate_row(self, irrep: int) -> int:
        """Index of the complex-conjugate irreducible."""
        return self._conj_rows[irrep]

    def __repr__(self) -> str:
        return f"CharacterTable({self.group.name}, {len(self.rows)} irreducibles)"


class ClassFunction:
    """A class function on a table, held as its coordinates in Irr(G): coords[i] =
    <f, chi_i>, an int, a Fraction or an irrational Cyc.  Immutable, compared by value."""

    __slots__ = ("table", "coords")

    def __new__(cls, table: CharacterTable, values: Sequence[Cyc]) -> "ClassFunction":
        if len(values) != table.n_classes or not all(isinstance(v, Cyc) for v in values):
            raise QuasiError("a class function takes one Cyc value per class")
        n = lcm(table.exponent, *(v.conductor for v in values))
        return cls._of(table, _products(table, [v._exponents_at(n) for v in values], n))

    @classmethod
    def _of(cls, table: CharacterTable, coords: Iterable[Cyc | Fraction | int]) -> "ClassFunction":
        f = object.__new__(cls)
        object.__setattr__(f, "table", table)
        object.__setattr__(f, "coords", tuple(map(_plain, coords)))
        return f

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild from the coordinates
        return ClassFunction._of, (self.table, self.coords)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.table, self.coords))

    def __repr__(self) -> str:
        return f"ClassFunction(table={self.table!r}, values={self.values!r})"

    def _value(self, c: int) -> Cyc:  # sum_i coords[i] * chi_i(g_c), as one sum
        n = lcm(e := self.table.exponent, *(a.conductor for a in self.coords if isinstance(a, Cyc)))
        return conj_product_sum(((1, a._exponents_at(n) if isinstance(a, Cyc) else ((0, a),),
                                  tuple((-x * (n // e), m) for x, m in vecs[c]))
                                 for a, vecs in zip(self.coords, self.table.eig) if a), n)

    @property
    def values(self) -> tuple[Cyc, ...]:
        return tuple(map(self._value, range(self.table.n_classes)))

    @property
    def degree(self) -> Cyc:
        return self._value(self.table.id_class)

    def value_at_element(self, element: int) -> Cyc:
        return self._value(self.table.class_of[element])

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if other.table is not self.table:
            raise QuasiError("class functions live on different tables")
        return ClassFunction._of(self.table, map(add, self.coords, other.coords))

    def scale(self, k: int) -> "ClassFunction":
        return ClassFunction._of(self.table, (a * k for a in self.coords))

    def conj(self) -> "ClassFunction":
        # conj(chi_i) is the irreducible conjugate_row(i), an involution on the rows
        return ClassFunction._of(self.table, (self.coords[i].conjugate() for i in self.table._conj_rows))


def _plain(a: Cyc | Fraction | int) -> Cyc | Fraction | int:
    """One type per value, so equal coordinates hash alike: an int, a Fraction or an irrational Cyc."""
    if isinstance(a, Cyc) and a.is_rational:
        a = a.rational_value()
    return a if isinstance(a, Cyc) or a.denominator != 1 else int(a)


def class_function_from_element_values(
    table: CharacterTable, values: Sequence[Cyc | int | Fraction]
) -> ClassFunction:
    """Build a class function from one value per element, checking constancy."""
    vals = [Cyc(v) if not isinstance(v, Cyc) else v for v in values]
    if len(vals) != table.group.order:
        raise QuasiError("need one value per group element")
    if any(vals[x] != vals[cls.rep] for cls in table.classes for x in cls.members):
        raise QuasiError("values are not constant on conjugacy classes")
    return ClassFunction(table, tuple(vals[cls.rep] for cls in table.classes))


class RepDecomposition(NamedTuple):
    table: CharacterTable
    entries: tuple[tuple[int, int], ...]  # (irreducible index, multiplicity)

    def reassemble(self) -> ClassFunction:
        return ClassFunction._of(self.table, (sum(m for i, m in self.entries if i == j)
                                              for j in range(len(self.table.eig))))

    @property
    def dimension(self) -> int:
        return sum(m * self.table.degrees[i] for i, m in self.entries)


# -- table construction -----------------------------------------------------


def character_table(G: GroupTable, limits: Limits = Limits()) -> CharacterTable:
    """The exact irreducible character table of G (memoized on G).

    The order cap is checked on every call, memoized or not.
    """
    limits.check_order(G, "character table")
    if "char_table" not in G._memo:
        G._memo["char_table"] = CharacterTable(G, _modular_character_rows(G))
    return G._memo["char_table"]


def _smallest_valid_prime(exponent: int, order: int) -> int:
    p = exponent + 1
    while p <= 2 * isqrt(order) + 1 or _primes(p) != (p,):
        p += exponent
    return p


def _primitive_root(p: int) -> int:
    factors = _primes(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _nullspace_mod_p(rows: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """Basis of the right null space of a matrix with entries in F_p, and its free
    columns: basis vector f is 1 at free[f] and 0 at the other free columns."""
    mat, pivots, n = [row[:] for row in rows], [], len(rows[0])
    for c in range(n):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                mat[i] = [(x - row[c] * y) % p for x, y in zip(row, mat[r])]
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    return free, [[-mat[pivots.index(c)][fc] % p if c in pivots else int(c == fc) for c in range(n)]
                  for fc in free]


def _charpoly_mod_p(M: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial over F_p, leading coefficient first: a similarity to
    Hessenberg form H, then a recurrence over H's leading minors (Cohen 1993, 2.2.9)."""
    H, n = [row[:] for row in M], len(M)
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        H[i], H[m] = H[m], H[i]
        for row in H:
            row[i], row[m] = row[m], row[i]
        inv = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv % p
            if u:  # row i -= u * row m, then column m += u * column i
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]  # constant term first
    for m in range(n):  # x * P_m - sum_i H[i][m] * H[i+1][i] ... H[m][m-1] * P_i
        nxt, t = [0] + polys[m], 1
        for i in range(m, -1, -1):
            for d, c in enumerate(polys[i]):
                nxt[d] = (nxt[d] - H[i][m] * t * c) % p
            t = t * H[i][i - 1] % p if i else 0
            if not t:
                break
        polys.append(nxt)
    return polys[n][::-1]


def _roots_mod_p(poly: list[int], p: int) -> list[int]:
    """Roots of a polynomial over F_p, leading coefficient first, each as often
    as it divides: synthetic division at each point in turn."""
    roots = []
    for lam in range(p):
        while len(poly) > 1:
            quot = list(accumulate(poly, lambda acc, a: (acc * lam + a) % p))
            if quot.pop():
                break
            poly = quot
            roots.append(lam)
    return roots


def _scaled(vec: Sequence[tuple[int, int]], u: int, e: int) -> EigVector:
    """The eigenvalue vector of g^u, for vec that of g: each x times u mod e."""
    counts: dict[int, int] = {}
    for x, c in vec:
        counts[x * u % e] = counts.get(x * u % e, 0) + c
    return tuple(sorted(counts.items()))


def _modular_character_rows(G: GroupTable) -> list[tuple[EigVector, ...]]:
    """Each irreducible as its eigenvalue vectors at conductor exp(G), unsorted."""
    classes, class_of, exponent = conjugacy_classes(G), class_index_map(G), G.exponent()
    k, id_class = len(classes), class_of[G.identity]
    p = _smallest_valid_prime(exponent, G.order)

    # powers[t][u] is the class of g_t^u for u < |g_t|.  For a unit j mod exp(G),
    # the Galois conjugate chi^(sigma_j) takes chi's values at the classes of g^j.
    powers = [[class_of[x] for x in accumulate(range(1, G.order_of(c.rep)),
                                               lambda x, _: G.mul(x, c.rep), initial=G.identity)]
              for c in classes]
    units = [j for j in range(1, exponent + 1) if gcd(j, exponent) == 1]

    def conjugates(omega: Sequence[int]) -> list[tuple[int, ...]]:
        return [tuple(omega[pw[j % len(pw)]] for pw in powers) for j in units]

    # Split the common eigenspaces at the roots of each characteristic polynomial.
    # A space is (basis, pivots, signature): basis vector r is 1 at pivots[r] and 0
    # at the other pivots, and omega lies in it iff omega[:i] == signature.
    known: set[tuple[int, ...]] = set()  # central characters split off, and their conjugates
    spaces = [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)), ())]
    for mi in range(k):  # one class-sum matrix at a time, until every space is a line
        if all(len(basis) == 1 for basis, _, _ in spaces):
            break
        mat = [[0] * k for _ in range(k)]  # (A_mi)[j][t] = #{x in C_mi : x^-1 * z_t in C_j}
        for t, x in product(range(k), classes[mi].members):
            mat[class_of[G.mul(G.inverse(x), classes[t].rep)]][t] += 1
        new_spaces = []
        for basis, piv, sig in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, piv, sig))
                continue
            support = [[(t, x) for t, x in enumerate(v) if x] for v in basis]
            M = [[sum(mat[r][t] * x for t, x in s) % p for s in support] for r in piv]
            for lam, mult in Counter(_roots_mod_p(_charpoly_mod_p(M, p), p)).items():
                sig_lam = sig + (lam,)
                hits = [om for om in known if om[:mi + 1] == sig_lam]
                if mult == len(basis):  # A_i acts as lam on the whole space
                    new_spaces.append((basis, piv, sig_lam))
                elif mult == len(hits):  # known characters span the eigenspace
                    new_spaces += [([list(om)], [id_class], sig_lam) for om in hits]
                else:
                    free, coeffs = _nullspace_mod_p([[(x - lam * (r == c)) % p for c, x in enumerate(row)]
                                                     for r, row in enumerate(M)], p)
                    vecs = [[sum(a * v[t] for a, v in zip(co, basis) if a) % p for t in range(k)]
                            for co in coeffs]
                    new_spaces.append((vecs, [piv[c] for c in free], sig_lam))
                    if len(vecs) == 1:  # scaled to omega, 1 at the identity
                        inv = pow(vecs[0][id_class], -1, p)
                        vecs[0] = [x * inv % p for x in vecs[0]]
                        known.update(conjugates(vecs[0]))
        spaces = new_spaces
    # unreachable (p = 1 mod exp(G) does not divide |G|, so the class algebra splits over
    # F_p); without it, the lift would read a vector that is no central character
    if any(len(basis) != 1 for basis, _, _ in spaces):
        raise QuasiError("class algebra failed to split into one-dimensional pieces")

    # Lift one irreducible per Galois class.  A discrete Fourier inversion over
    # the powers of g_t counts the multiplicity of each eigenvalue; the powers
    # of g_t then take theirs from it, so classes of higher order go first.
    w = _primitive_root(p)
    dft = [[pow(w, (p - 1) // len(pw) * (len(pw) - u), p) for u in range(len(pw))]
           for pw in powers]  # dft[t][u] = zeta_m^-u mod p, m = |g_t|
    size_inv = [pow(c.size, -1, p) for c in classes]
    by_order = sorted(range(k), key=lambda t: -len(powers[t]))
    omegas = [tuple(basis[0]) for basis, _, _ in spaces]  # omega_i = |C_i| chi(g_i) / d  (mod p)
    lifted: dict[tuple[int, ...], tuple[EigVector, ...]] = {}
    for omega in omegas:
        if omega in lifted:  # a conjugate of one lifted before
            continue
        denom = sum(omega[i] * omega[powers[i][-1]] * size_inv[i] for i in range(k)) % p
        d_sq = G.order * pow(denom, -1, p) % p
        d = next((d for d in range(1, isqrt(G.order) + 1) if d * d % p == d_sq), None)
        if d is None:  # unreachable, as chi(1) <= sqrt|G|; without it, d * omega raises TypeError
            raise QuasiError("degree lift out of range")
        chi = [d * omega[c] * size_inv[c] % p for c in range(k)]
        vecs: list[Optional[EigVector]] = [None] * k
        for t in (t for t in by_order if vecs[t] is None):
            pw, zs = powers[t], dft[t]
            m, m_inv, vec = len(pw), pow(len(pw), -1, p), []
            for j in range(m):
                c_j = sum(chi[c] * zs[j * u % m] for u, c in enumerate(pw)) * m_inv % p
                if c_j:
                    vec.append((j * (exponent // m), c_j))  # zeta_m^j = zeta_e^(j e/m)
            for u, c in enumerate(pw):
                vecs[c] = vecs[c] or _scaled(vec, u, exponent)
        for conj, j in dict(zip(conjugates(omega), units)).items():  # chi^(sigma_j), once per row
            lifted[conj] = tuple(_scaled(vec, j, exponent) for vec in vecs)
    return [lifted[omega] for omega in omegas]


def _verify_table(table: CharacterTable) -> tuple[int, ...]:
    """Check that the table is square, and its rows orthogonal over Z[zeta_e] and
    closed under complex conjugation (a row times a root of unity stays orthogonal
    to the rest), and return the index of each row's conjugate.  With X[i][c] =
    chi_i(g_c) and D = diag(|C_c|), row orthogonality is X D X* = |G| I.  As X is
    square, X* X = |G| D^-1: column orthogonality, whose entry at the identity
    class is the degree sum (Isaacs, ch. 2)."""
    G = table.group
    eig = table.eig
    if len(eig) != table.n_classes:
        raise QuasiError(f"table has {len(eig)} irreducibles for {table.n_classes} classes")
    for i, j in combinations_with_replacement(range(len(eig)), 2):
        terms = ((cls.size, eig[i][c], eig[j][c]) for c, cls in enumerate(table.classes))
        if conj_product_sum(terms, table.exponent) != (G.order if i == j else 0):
            raise QuasiError("row orthogonality failed")
    row_of = {vecs: i for i, vecs in enumerate(eig)}  # distinct, as they are orthogonal
    conj = tuple(row_of.get(tuple(_scaled(v, -1, table.exponent) for v in vecs)) for vecs in eig)
    if None in conj:
        raise QuasiError("rows are not closed under complex conjugation")
    # a real row times -1 passes both checks, and would sort first as the trivial row
    if any(len(v := vecs[table.id_class]) != 1 or v[0][0] or v[0][1] < 1 for vecs in eig):
        raise QuasiError("a row's value at the identity is not a positive degree")
    return conj


# -- character-level services --------------------------------------------------


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Cyc:
    """(1/|G|) sum_g chi(g) * conj(psi(g)) = sum_i a_i * conj(b_i), as Irr(G) is orthonormal."""
    if chi.table is not psi.table:
        raise QuasiError("class functions live on different tables")
    return sum((a * b.conjugate() for a, b in zip(chi.coords, psi.coords) if a and b), Cyc(0))


def _products(table: CharacterTable, vals: Sequence[EigVector], n: int) -> list[Cyc]:
    """<f, chi_i> for every irreducible, where f is vals[c] at conductor n (a multiple
    of exp(G)) on each class c: one sum per chi_i, read from its eig vectors."""
    f = n // table.exponent
    return [
        conj_product_sum(((cls.size, a, tuple((x * f, c) for x, c in b))
                          for cls, a, b in zip(table.classes, vals, vecs)), n)
        * Fraction(1, table.group.order)
        for vecs in table.eig
    ]


def _multiplicity(m: Cyc | Fraction | int, label: str) -> int:
    if isinstance(m := _plain(m), Cyc):  # irrational
        raise VirtualCharacterError("multiplicity is not rational")
    if m.denominator != 1 or m < 0:
        raise VirtualCharacterError(f"multiplicity of {label} is {m}, not a non-negative integer")
    return int(m)


def decompose(chi: ClassFunction) -> RepDecomposition:
    """Isotypic multiplicities of a genuine character."""
    mults = map(_multiplicity, chi.coords, chi.table.labels)
    # a verified table's rows are an orthonormal basis, so chi's coordinates are its multiplicities
    return RepDecomposition(chi.table, tuple((i, m) for i, m in enumerate(mults) if m))


def restriction_multiplicities(chi: ClassFunction, sub: CharacterTable, images: Sequence[int]) -> Sequence[int]:
    """Multiplicity of each irreducible lam of sub in chi o images, for a map images
    from sub's group into chi's that sends classes into classes: chi's coordinates
    times the branching matrix B[i][lam] = <chi_i o images, lam>, so the row B[i]
    itself for the unit vector table.irreducible(i).  B is summed at lcm(exp(G),
    exp(sub)), checked once and memoized on G under (sub, images): maps from
    different groups can share their images."""
    table, key = chi.table, ("branching", sub, tuple(images))
    B = table.group._memo.get(key)
    if B is None:
        n = lcm(table.exponent, sub.exponent)  # exp(sub) need not divide exp(G)
        fuse = [table.class_of[images[cls.rep]] for cls in sub.classes]
        B = tuple(tuple(map(_multiplicity, _products(
            sub, [tuple((x * n // table.exponent, c) for x, c in v[g]) for g in fuse], n),
            sub.labels)) for v in table.eig)
        if any(sum(b * d for b, d in zip(row, sub.degrees)) != deg
               for row, deg in zip(B, table.degrees)):
            raise QuasiError("branching multiplicities do not add up to the degrees")
        table.group._memo[key] = B
    if chi.coords.count(0) == len(B) - 1 and 1 in chi.coords:  # chi is table.irreducible(i)
        return B[chi.coords.index(1)]
    return [_multiplicity(sum(map(mul, chi.coords, col)), label) for col, label in zip(zip(*B), sub.labels)]


def central_scalar(table: CharacterTable, irrep: int, z: int, l: Optional[int] = None) -> tuple[int, int]:
    """The scalar by which z acts on an irreducible, as a root-of-unity exponent.

    Returns (m, l) with chi(z)/chi(e) = zeta_l^m and 0 < m <= l, where l is
    the order of z unless given.  Raises NonScalarError when z does not act
    as a scalar, or acts by a root of unity whose order does not divide l,
    and QuasiError when irrep or z is not an int in range (bool is not), or l
    is not a positive int.
    """
    _check_elements(table.group, (z,))
    if l is None:
        l = table.group.order_of(z)
    if not (type(irrep) is int and 0 <= irrep < len(table.rows) and type(l) is int and l >= 1):
        raise QuasiError(f"irreducible index {irrep} or order {l} out of range")
    x = table.central_exponents[table.class_of[z]][irrep]
    if x is None:
        raise NonScalarError(f"{table.group.label(z)} does not act as a scalar on {table.labels[irrep]}")
    m, rem = divmod(x * l, table.exponent)  # zeta_e^x = zeta_l^m
    if rem:
        raise NonScalarError("scalar is not a root of unity of the stated order")
    return m or l, l


def restrict_character(chi: ClassFunction, phi: Homomorphism) -> ClassFunction:
    """Pull a class function on the target group back along a homomorphism."""
    if phi.target is not chi.table.group:
        raise QuasiError("homomorphism target does not match the class function")
    table, values = character_table(phi.source), chi.values
    return ClassFunction(table, tuple(values[chi.table.class_of[phi.images[c.rep]]] for c in table.classes))


def fs_indicator(table: CharacterTable, irrep: int) -> int:
    """Frobenius-Schur indicator: +1 real, 0 complex, -1 quaternionic."""
    G = table.group
    vecs = table.eig[irrep]
    terms = (
        (cls.size, vecs[table.class_of[G.mul(cls.rep, cls.rep)]], ((0, 1),))
        for cls in table.classes
    )
    # Frobenius-Schur (Isaacs, ch. 4): the indicator of an irreducible is 1, 0 or -1
    return int((conj_product_sum(terms, table.exponent) * Fraction(1, G.order)).rational_value())
