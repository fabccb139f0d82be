"""Representations of the groups Lambda_G(sigma).

For a pairwise-commuting tuple sigma in a finite group G, Lambda_G(sigma) is
the quotient of C_G(sigma) x R^n by the lattice spanned by the (sigma_i, -e_i).
Its finite-type representations are multisets of (irreducible of C_G(sigma),
rational weight vector) pairs: the weight is the rotation speed of the R^n
factor, and sigma_i, central in C_G(sigma), acts on each irreducible by a
scalar (Schur's lemma), which must be e^(2 pi i w_i).

Everything is decided at character level with exact cyclotomic numbers:
restriction, isotypic decomposition, q-twists, duals, fixed parts, real
forms, and an exact kernel/faithfulness solver based on one integer
Hermite (row-echelon) form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from itertools import combinations_with_replacement, repeat
from operator import add, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .chartable import (
    CharacterTable,
    ClassFunction,
    character_table,
    decompose,
    fs_indicator,
    restrict_character,
    restriction_multiplicities,
)
from .cyclotomic import conj_product_sum
from .errors import NotRealizableError, QuasiError, SizeLimitError
from .groups import (
    CommTuple,
    GroupTable,
    Homomorphism,
    Limits,
    _check_elements,
    centralizer,
    direct_product,
    make_comm_tuple,
    subgroup_from_generators,
    subgroup_table,
)
from .snf import hermite_form

KERNEL_ENUM_CAP = 1 << 20
_ZERO = Fraction(0)


class LambdaDesc(NamedTuple):
    """Lambda_G(sigma): the centralizer C = C_G(sigma) as table.group, its
    inclusion to_parent into G, and the twist data weights[lam][i] = x/e in
    (0, 1], or 1 when x = 0, with sigma_i acting on lam as zeta_e^x, e = exp(C).
    The weights are the table's own central_weights columns at the sigma_i."""

    group: GroupTable
    sigma: CommTuple
    to_parent: tuple[int, ...]
    table: CharacterTable
    weights: tuple[tuple[Fraction, ...], ...]

    @property
    def cent_group(self) -> GroupTable:
        return self.table.group


def lambda_desc(
    G: GroupTable, sigma: CommTuple | Sequence[int], limits: Limits = Limits()
) -> LambdaDesc:
    """The centralizer, its character table, and the twist data for sigma,
    memoized on G by the tuple's entries.

    The entries and both caps are checked on every call, memoized or not;
    commutation is checked, and the descriptor built, once per tuple.
    """
    entries = _check_elements(G, sigma.entries if isinstance(sigma, CommTuple) else sigma)
    desc = G._memo.get(("lambda_desc", entries))
    if desc is None:
        desc = G._memo["lambda_desc", entries] = _lambda_desc(G, make_comm_tuple(G, entries), limits)
    limits.check_tuples(1, len(entries))
    limits.check_order(desc.cent_group, "character table")
    return desc


def _lambda_desc(G: GroupTable, sigma: CommTuple, limits: Limits) -> LambdaDesc:
    """lambda_desc unmemoized, for a tuple known to commute: quasi_coefficients
    reads each orbit's descriptor once."""
    # n itself is capped as in commuting_tuples: the kernel solve is n x n
    limits.check_tuples(1, sigma.n)
    C, to_parent = subgroup_table(centralizer(G, sigma))
    table = character_table(C, limits)
    # each sigma_i is central in C(sigma): by Schur's lemma a scalar on every irreducible
    cols = [table.central_weights[table.class_of[to_parent.index(s)]] for s in sigma.entries]
    return LambdaDesc(G, sigma, to_parent, table, tuple(zip(*cols)))


class TwistedIrrep(NamedTuple):
    """One irreducible of the centralizer carrying a rational weight vector."""

    lam: int
    weight: tuple[Fraction, ...]


class LambdaRep:
    """A finite-type representation: a canonical multiset of twisted irreducibles."""

    def __init__(self, desc: LambdaDesc, components: Iterable[tuple[TwistedIrrep, int]]):
        self.desc = desc
        checked = []
        for comp, mult in components:
            self._check_compatible(comp)  # before sorting: a list weight is not comparable
            if type(mult) not in (int, Fraction) or mult.denominator != 1:
                raise QuasiError(f"multiplicity {mult!r} is not an integer")
            if mult < 0:
                raise QuasiError("multiplicities must be non-negative")
            checked.append((comp, int(mult)))
        self.components = self._merged(desc, checked).components

    @classmethod
    def _of(cls, desc: LambdaDesc, components: Iterable[tuple[TwistedIrrep, int]]) -> "LambdaRep":
        """The rep of components already checked against desc and canonical:
        sorted, distinct, with nonzero multiplicities."""
        rep = cls.__new__(cls)
        rep.desc, rep.components = desc, tuple(components)
        return rep

    @classmethod
    def _merged(cls, desc: LambdaDesc, components: Iterable[tuple[TwistedIrrep, int]]) -> "LambdaRep":
        """The rep of components already checked against desc: sorted, with the
        multiplicities of equal components added and zeros dropped.  The weights
        of one lam share their denominators, so (lam, weight numerators) orders
        and identifies the components as (lam, weight) does."""
        merged: dict = {}
        for comp, mult in components:
            key = (comp.lam, tuple([w.numerator for w in comp.weight]))
            kept = merged.get(key)
            merged[key] = (comp, mult) if kept is None else (kept[0], kept[1] + mult)
        return cls._of(desc, [cm for _, cm in sorted(merged.items()) if cm[1]])

    def _check_compatible(self, comp: TwistedIrrep) -> None:
        d = self.desc
        if not (isinstance(comp, TwistedIrrep) and isinstance(comp.weight, tuple)):
            raise QuasiError(f"component {comp!r} is not a TwistedIrrep with a tuple weight")
        if not (type(comp.lam) is int and 0 <= comp.lam < len(d.weights)):
            raise QuasiError(f"irreducible index {comp.lam!r} is not in range({len(d.weights)})")
        if len(comp.weight) != d.sigma.n:
            raise QuasiError("weight vector has the wrong arity")
        for i, (w, expected) in enumerate(zip(comp.weight, d.weights[comp.lam])):
            if type(w) not in (int, Fraction):
                raise QuasiError(f"weight {w!r} is not an int or a Fraction")
            q = expected.denominator  # w - expected is an integer: same q, numerators = mod q
            if w.denominator != q or (w.numerator - expected.numerator) % q:
                raise QuasiError(
                    f"weight {w} is incompatible with the scalar action "
                    f"{expected} of entry {i} on {d.table.labels[comp.lam]}"
                )

    @property
    def is_empty(self) -> bool:
        return not self.components

    def dimension(self) -> int:
        return sum(self.desc.table.degrees[c.lam] * m for c, m in self.components)

    def __add__(self, other: "LambdaRep") -> "LambdaRep":
        if self.desc != other.desc:
            raise QuasiError("representations live over different groups")
        return LambdaRep._merged(self.desc, self.components + other.components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaRep):
            return NotImplemented
        return self.desc == other.desc and self.components == other.components

    def __hash__(self) -> int:
        return hash((id(self.desc.group), self.desc.sigma.entries, self.components))

    def render(self) -> str:
        d = self.desc
        lines = []
        for comp, mult in self.components:
            ws = ", ".join(str(w) for w in comp.weight)
            lines.append(f"({d.table.labels[comp.lam]}, q^({ws})) x {mult}")
        return "\n".join(lines) if lines else "(empty)"

    def __repr__(self) -> str:
        return f"LambdaRep[{'; '.join(self.render().splitlines())}]"


# -- constructions -------------------------------------------------------------


def lambda_basis(d: LambdaDesc) -> list[TwistedIrrep]:
    """The free basis over the torus character ring: one twisted irreducible
    per irreducible of the centralizer, with weights in (0, 1]."""
    return [TwistedIrrep(lam, w) for lam, w in enumerate(d.weights)]


def v_sigma(chi: ClassFunction, d: LambdaDesc) -> LambdaRep:
    """Restrict a character of G to the centralizer, through its branching
    matrix, and give each isotypic piece its basis weight."""
    if chi.table.group is not d.group:
        raise QuasiError("character does not live on the ambient group")
    # dimension chi(1): chi's coordinates in Irr(G) are exact, and each branching row sums to its degree
    mults = restriction_multiplicities(chi, d.table, d.to_parent)
    return LambdaRep._of(d, [(TwistedIrrep(lam, d.weights[lam]), m) for lam, m in enumerate(mults) if m])


def q_twist(rep: LambdaRep, shift: int | Fraction | Sequence[int | Fraction]) -> LambdaRep:
    """Tensor by an integer character of the torus: shift every weight by an int
    or a Fraction with denominator 1."""
    n = rep.desc.sigma.n
    scalar = type(shift) in (int, Fraction) or not isinstance(shift, Iterable)
    vec = (shift,) * n if scalar else tuple(shift)
    if len(vec) != n:
        raise QuasiError("shift vector has the wrong arity")
    if not all(type(s) in (int, Fraction) and s.denominator == 1 for s in vec):
        raise QuasiError(f"shift {shift!r} is not an integer vector")
    # the same shift for every component keeps them sorted and distinct
    return LambdaRep._of(
        rep.desc,
        [
            (TwistedIrrep(c.lam, tuple(w + s for w, s in zip(c.weight, vec))), m)
            for c, m in rep.components
        ],
    )


def dual(rep: LambdaRep) -> LambdaRep:
    """Complex dual: conjugate each irreducible and negate each weight."""
    d = rep.desc
    return LambdaRep(
        d,
        [
            (TwistedIrrep(d.table.conjugate_row(c.lam), tuple(-w for w in c.weight)), m)
            for c, m in rep.components
        ],
    )


def fixed_part_rep(chi: ClassFunction, d: LambdaDesc) -> LambdaRep:
    """The subrepresentation on which every tuple entry acts as the scalar 1,
    placed at weight zero: the components of (V)_sigma whose weights are all
    1, as a basis weight x/e in (0, 1] is 1 exactly when x = 0.  It restricts
    chi itself, one memoized branching-row read, so that bench/session.py and
    the CLI, which also hold v_sigma(chi, d), call it with chi and d alone."""
    zero = (_ZERO,) * d.sigma.n
    fixed = [(c, m) for c, m in v_sigma(chi, d).components
             if all(w.numerator == w.denominator for w in c.weight)]
    return LambdaRep._of(d, [(TwistedIrrep(c.lam, zero), m) for c, m in fixed])


def fixed_space_dimension(chi: ClassFunction, d: LambdaDesc) -> int:
    """dim V^sigma via averaging the character over the subgroup the tuple generates."""
    gamma = subgroup_from_generators(d.group, d.sigma.entries)
    n = lcm(*(v.conductor for v in chi.values))
    terms = ((1, chi.value_at_element(x)._exponents_at(n), ((0, 1),)) for x in gamma.elements)
    val = conj_product_sum(terms, n) * Fraction(1, gamma.order)
    if not (val.is_rational and val.rational_value().denominator == 1):
        raise QuasiError("fixed-space dimension is not an integer")
    return int(val.rational_value())


# -- kernel solver ---------------------------------------------------------------


class KernelDescription(NamedTuple):
    """Exact kernel of a LambdaRep action.

    finite_points lists the canonical non-identity kernel elements
    (a, t in [0,1)^n) and is complete whenever torus_rank is zero.  A
    positive torus_rank means the kernel contains a positive-dimensional
    subtorus (the representation cannot be faithful); full_group flags the
    completely trivial action.
    """

    torus_rank: int
    finite_points: tuple[tuple[int, tuple[Fraction, ...]], ...]
    full_group: bool = False

    @property
    def is_trivial(self) -> bool:
        return self.torus_rank == 0 and not self.finite_points and not self.full_group


def kernel(rep: LambdaRep) -> KernelDescription:
    """Exact kernel of the action, by integer linear algebra.

    An element [a, t] acts on a component (lam, w) by rho_lam(a) * e^(2 pi i w.t),
    so it is in the kernel iff a acts as a scalar on every component and the
    congruences w_j . t = -arg_j(a) (mod 1) hold simultaneously.  Every weight's
    denominator divides e = exp(C), so scaled by e they are integer congruences
    mod e, solved through one Hermite form U A = R.  With D the product of its
    pivots and Y = D R[:n]^-1, the solutions D*t for a class acting on the
    components as zeta_e^xs are the coset -Y (U xs)_{i<n} + Y e Z^n; Y is
    upper-triangular, so each coordinate's range in [0, D) follows from the
    ones after it, and every vector walked is a kernel point.  Classes with
    equal xs share one solve and one walk, and only the reported points t in
    [0,1)^n are Fractions, one tuple per distinct vector D*t.
    """
    d = rep.desc
    n = d.sigma.n
    C = d.cent_group
    trivial_row = d.table.trivial_index()
    comps = [c for c, _ in rep.components]
    if not comps or all(c.lam == trivial_row and not any(c.weight) for c in comps):
        return KernelDescription(torus_rank=n, finite_points=(), full_group=True)

    e = d.table.exponent
    # each weight has the denominator of its basis weight x/e, which divides e
    A = [[w.numerator * (e // w.denominator) for w in c.weight] for c in comps]
    R, U, rank = hermite_form(A)
    if rank < n:  # rank deficiency decides non-faithfulness; points are not finite
        return KernelDescription(torus_rank=n - rank, finite_points=())
    D = prod(R[i][i] for i in range(n))
    if D * C.order > KERNEL_ENUM_CAP:
        raise SizeLimitError("kernel solution enumeration exceeds the cap")
    # Y = D R[:n]^-1 from Y R = D I, row by row: upper-triangular, Y[i][i] = D / R[i][i] > 0
    Y = [[0] * n for _ in range(n)]
    for i, j in combinations_with_replacement(range(n), 2):
        Y[i][j] = ((D if i == j else 0) - sum(Y[i][m] * R[m][j] for m in range(i, j))) // R[j][j]
    # D t0 = P x solves A t = -x (mod e), with P = -Y U[:n]
    P = [[-sum(map(mul, row, col)) for col in zip(*U[:n])] for row in Y]
    xs_of = itemgetter(*(c.lam for c in comps), comps[0].lam)  # a tuple even for one component
    members: dict = {}  # xs -> the members of the classes acting as zeta_e^xs
    for cls, xs in zip(d.table.classes, map(xs_of, d.table.central_exponents)):
        members.setdefault(xs, []).extend(cls.members)
    # (members, D t0) for each xs whose congruences are solvable; as U is
    # unimodular, they are iff (U xs)_i = 0 (mod e) for every i >= n
    walk = [(m, tuple([sum(map(mul, row, xs)) for row in P])) for xs, m in members.items()
            if None not in xs and not any(sum(map(mul, row, xs)) % e for row in U[n:])]
    for i in range(n - 1, -1, -1):
        # column i of e Y moves no coordinate after i, so D t_i is placed in [0, D) last to first
        h = [e * row[i] for row in Y]
        walk = [(m, tuple(map(add, v, map(mul, h, repeat(q)))))
                for m, v in walk for q in range(-(v[i] // h[i]), (D - 1 - v[i]) // h[i] + 1)]
    points = sorted((g, T) for m, T in walk for g in m)
    points.remove((C.identity, (0,) * n))  # the identity class solves with t0 = 0
    fracs = {T: tuple(map(Fraction, T, repeat(D))) for _, T in walk}
    return KernelDescription(torus_rank=0, finite_points=tuple([(g, fracs[T]) for g, T in points]))


def is_faithful(rep: LambdaRep) -> bool:
    return kernel(rep).is_trivial


# -- sums, restrictions, real forms ----------------------------------------------


def external_sum(rep_g: LambdaRep, rep_h: LambdaRep) -> LambdaRep:
    """Direct sum over the product group: components re-expressed over
    C_{GxH}(sigma, tau) = C_G(sigma) x C_H(tau)."""
    dg, dh = rep_g.desc, rep_h.desc
    if dg.sigma.n != dh.sigma.n:
        raise QuasiError("tuple arities differ")
    G, H = dg.group, dh.group
    P = direct_product(G, H)
    pair = tuple(
        s * H.order + t for s, t in zip(dg.sigma.entries, dh.sigma.entries)
    )
    dp = lambda_desc(P, pair)  # C_{GxH}((sigma_i, tau_i)) = C_G(sigma) x C_H(tau)
    comps: list[tuple[TwistedIrrep, int]] = []
    for factor, rep in enumerate((rep_g, rep_h)):
        # g * |H| + h in G x H projects to divmod(., |H|)[factor]; lam inflated
        # along the projection is the irreducible lam boxtimes 1 (or 1 boxtimes lam)
        d = rep.desc
        images = tuple(d.to_parent.index(divmod(x, H.order)[factor]) for x in dp.to_parent)
        for c, m in rep.components:
            row = restriction_multiplicities(d.table.irreducible(c.lam), dp.table, images)
            comps.append((TwistedIrrep(row.index(1), c.weight), m))
    return LambdaRep(dp, comps)


def restrict_lambda(
    phi: Homomorphism, tau: CommTuple | Sequence[int], chi: ClassFunction
) -> tuple[LambdaRep, LambdaRep, bool]:
    """Compare pulling back along Lambda_H(tau) -> Lambda_G(phi tau) with the
    direct construction from the restricted character.

    Returns (pulled_back, direct, equal); the two sides agree as multisets.
    """
    H, G = phi.source, phi.target
    if chi.table.group is not G:
        raise QuasiError("character does not live on the homomorphism target")
    if not isinstance(tau, CommTuple):
        tau = make_comm_tuple(H, tau)
    sigma = make_comm_tuple(G, tuple(phi(t) for t in tau.entries))
    dg = lambda_desc(G, sigma)
    dh = lambda_desc(H, tau)

    # phi maps C_H(tau) into C_G(phi tau)
    images = tuple(dg.to_parent.index(phi(x)) for x in dh.to_parent)
    comps: list[tuple[TwistedIrrep, int]] = []
    for c, m in v_sigma(chi, dg).components:
        row = restriction_multiplicities(dg.table.irreducible(c.lam), dh.table, images)
        comps += [(TwistedIrrep(mu, c.weight), m * b) for mu, b in enumerate(row) if b]
    pulled = LambdaRep(dh, comps)
    direct = v_sigma(restrict_character(chi, phi), dh)
    return pulled, direct, pulled == direct


def real_v_sigma(chi: ClassFunction, d: LambdaDesc) -> LambdaRep:
    """Twist of a complexified real representation: the twisted restriction
    plus its complex dual; complex dimension doubles."""
    table = chi.table
    if chi.conj().values != chi.values:
        raise NotRealizableError("character is not self-dual")
    dec = decompose(chi)
    for lam, m in dec.entries:
        if fs_indicator(table, lam) == -1 and m % 2:
            raise NotRealizableError(
                f"quaternionic constituent {table.labels[lam]} has odd multiplicity"
            )
    base = v_sigma(chi, d)
    return base + dual(base)


class RealBasisEntry(NamedTuple):
    """One real irreducible of the centralizer with its twisted lift."""

    constituents: tuple[int, ...]  # complex irreducibles of the complexification
    indicator: int
    dimension: int  # complex dimension of the lifted object
    rep: LambdaRep


def real_basis(d: LambdaDesc) -> list[RealBasisEntry]:
    """Free basis data over the real torus character ring: one entry per real
    irreducible of the centralizer.

    For a nontrivial tuple each entry is (complexification at basis weights)
    plus its dual, with twice the complexification dimension; for the trivial
    tuple the entry keeps its underlying space and dimension.
    """
    table = d.table
    sigma_trivial = all(s == d.group.identity for s in d.sigma.entries)
    seen: set[int] = set()
    entries = []
    for lam in range(len(table.rows)):
        if lam in seen:
            continue
        ind = fs_indicator(table, lam)
        # a complex irreducible is paired with its conjugate, a quaternionic one doubled
        constituents = tuple(sorted({lam, table.conjugate_row(lam)})) if ind == 0 else (lam,)
        seen.update(constituents)
        comps = [(TwistedIrrep(mu, d.weights[mu]), 2 if ind == -1 else 1) for mu in constituents]
        complexification = LambdaRep(d, comps)
        rep = complexification if sigma_trivial else complexification + dual(complexification)
        entries.append(RealBasisEntry(constituents, ind, rep.dimension(), rep))
    return entries
