"""Twisted representations: basis, constructions, kernel solver, real forms."""

from __future__ import annotations

import copy
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import (
    battery_groups,
    non_genuine_class_functions,
    oracle_kernel_grid,
    outcome,
    random_lambda_reps,
)
from cyc_reference import (
    identity_matrix,
    ref_decompose,
    ref_fixed_part_rep,
    ref_kernel,
    ref_kernel_per_class,
    ref_kernel_smith,
    ref_lambda_weights,
    ref_product_factor_irrep,
    ref_restrict_lambda,
    ref_smith_normal_form,
    ref_v_sigma,
)

from quasik import (
    CommTuple,
    Cyc,
    GroupInputError,
    Homomorphism,
    build_group,
    LambdaRep,
    Limits,
    NonCommutingTupleError,
    NotRealizableError,
    QuasiError,
    SizeLimitError,
    TwistedIrrep,
    character_table,
    class_function_from_element_values,
    commuting_tuples,
    cyclic_group,
    decompose,
    direct_product,
    dual,
    external_sum,
    fixed_part_rep,
    fixed_space_dimension,
    fs_indicator,
    hermite_form,
    hom_from_images,
    is_faithful,
    kernel,
    lambda_basis,
    lambda_desc,
    make_comm_tuple,
    q_twist,
    quasi_coefficients,
    real_basis,
    real_v_sigma,
    restrict_character,
    restrict_lambda,
    symmetric_group,
    v_sigma,
)
from quasik import chartable, lambdarep
from quasik.chartable import restriction_multiplicities

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _faithful_linear(table, generator=1):
    """Index of the linear character sending the generator to zeta_k."""
    k = table.group.order_of(generator)
    return next(
        i
        for i in range(len(table.rows))
        if table.value_at_element(i, generator) == Cyc.zeta(k)
    )


def test_lambda_desc_examples(s3):
    z2 = cyclic_group(2)
    d = lambda_desc(z2, (1,))
    assert d.cent_group.order == 2
    assert d.sigma.orders == (2,)

    d12 = lambda_desc(s3, (s3.index_of("(12)"),))
    assert d12.cent_group.order == 2
    d123 = lambda_desc(s3, (s3.index_of("(123)"),))
    assert d123.cent_group.order == 3


def test_lambda_desc_is_memoized_and_checks_every_call():
    # one descriptor per tuple of entries, however the tuple is given; the
    # caps and the element checks still reject on every call, commutation
    # errors are never memoized, and quasi_coefficients bypasses the memo
    G = symmetric_group(3)
    t, u = G.index_of("(12)"), G.index_of("(13)")
    d = lambda_desc(G, (t,))
    assert lambda_desc(G, [t]) is d and lambda_desc(G, make_comm_tuple(G, (t,))) is d
    whole = lambda_desc(G, (G.identity,))
    pair = lambda_desc(G, (t, t))
    one = lambda_desc(G, (1,))  # (True,) is equal to (1,) as a key
    for _ in range(2):
        with pytest.raises(SizeLimitError, match="^character table capped at order 5, group has 6$"):
            lambda_desc(G, (G.identity,), Limits(order=5))
        with pytest.raises(SizeLimitError, match="^n = 2 exceeds 1, the bit length of the tuple scan cap 1$"):
            lambda_desc(G, (t, t), Limits(tuples=1))
        with pytest.raises(GroupInputError, match="^element index True is not an int$"):
            lambda_desc(G, (True,))
        with pytest.raises(GroupInputError, match="^element index 6 out of range$"):
            lambda_desc(G, (6,))
        with pytest.raises(NonCommutingTupleError, match="^.* do not commute in symmetric:3$"):
            lambda_desc(G, (t, u))
    assert lambda_desc(G, (G.identity,)) is whole and lambda_desc(G, (t, t)) is pair
    assert lambda_desc(G, [1]) is one
    fresh = symmetric_group(3)
    quasi_coefficients(fresh, 2)
    assert not any(isinstance(k, tuple) and k[0] == "lambda_desc" for k in fresh._memo)


def test_lambda_basis_examples(s3):
    z2 = cyclic_group(2)
    d = lambda_desc(z2, (1,))
    basis = lambda_basis(d)
    assert sorted(b.weight[0] for b in basis) == [HALF, 1]

    d_e = lambda_desc(s3, (s3.identity,))
    basis_e = lambda_basis(d_e)
    assert len(basis_e) == 3
    assert all(b.weight == (Fraction(1),) for b in basis_e)

    d3 = lambda_desc(s3, (s3.index_of("(123)"),))
    assert sorted(b.weight[0] for b in lambda_basis(d3)) == [THIRD, Fraction(2, 3), 1]


def test_lambda_basis_count_and_scalar_consistency(s3, d4, q8):
    for G in (s3, d4, q8, cyclic_group(6)):
        for n in (1, 2):
            for orbit in commuting_tuples(G, n):
                d = lambda_desc(G, orbit.representative)
                basis = lambda_basis(d)
                assert len(basis) == len(d.table.rows)
                for b in basis:
                    deg = d.table.degrees[b.lam]
                    for i, w in enumerate(b.weight):
                        l = d.sigma.orders[i]
                        m = w * l
                        assert m.denominator == 1 and 0 < m <= l
                        # the tuple entry really acts by that scalar
                        s = d.to_parent.index(d.sigma.entries[i])
                        val = d.table.value_at_element(b.lam, s)
                        assert val == Cyc.zeta(l) ** int(m) * deg


def test_lambda_weights_match_the_order_l_reference(battery):
    # x/e read at e = exp(C) against m/l read at each entry's order l, on every
    # orbit of the battery at n = 1 and 2
    for G in battery:
        for n in (1, 2):
            for orbit in commuting_tuples(G, n):
                d = lambda_desc(G, orbit.representative)
                assert d.weights == ref_lambda_weights(d)


def test_lambda_weights_are_the_tables_own_columns(battery):
    # two descriptors on one centralizer share the table's weight objects, so
    # lambda_desc builds no Fraction of its own
    for G in battery:
        for orbit in commuting_tuples(G, 2):
            d1, d2 = (lambda_desc(G, orbit.representative) for _ in range(2))
            assert d1.table is d2.table
            cols = [d1.table.class_of[d1.to_parent.index(s)] for s in d1.sigma.entries]
            for lam, (w1, w2) in enumerate(zip(d1.weights, d2.weights)):
                assert all(a is b for a, b in zip(w1, w2))
                assert all(a is d1.table.central_weights[c][lam] for a, c in zip(w1, cols))


def test_v_sigma_examples(s3):
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    chi1 = _faithful_linear(t4)
    d = lambda_desc(z4, (2,))
    rep = v_sigma(t4.irreducible(chi1), d)
    assert rep.components == ((TwistedIrrep(chi1, (HALF,)), 1),)

    triv = t4.irreducible(t4.trivial_index())
    rep_t = v_sigma(triv, d)
    ((comp, mult),) = rep_t.components
    assert mult == 1 and comp.weight == (Fraction(1),)
    assert d.table.degrees[comp.lam] == 1

    t3 = character_table(s3)
    d12 = lambda_desc(s3, (s3.index_of("(12)"),))
    rep_reg = v_sigma(t3.regular_character(), d12)
    assert {(c.weight[0], m) for c, m in rep_reg.components} == {(Fraction(1), 3), (HALF, 3)}
    assert rep_reg.dimension() == 6


def test_v_sigma_rejects_virtual(s3):
    t3 = character_table(s3)
    d = lambda_desc(s3, (s3.identity,))
    bad = class_function_from_element_values(t3, [-1] * 6)
    with pytest.raises(QuasiError):
        v_sigma(bad, d)


def test_q_twist(s3):
    z2 = cyclic_group(2)
    d = lambda_desc(z2, (1,))
    sign = character_table(z2).irreducible(1)
    rep = v_sigma(sign, d)
    assert q_twist(rep, 0) == rep
    shifted = q_twist(rep, -1)
    assert shifted.components[0][0].weight == (-HALF,)
    assert q_twist(q_twist(rep, 2), -2) == rep


def test_q_twist_takes_integers_only():
    z2 = cyclic_group(2)
    rep = v_sigma(character_table(z2).irreducible(1), lambda_desc(z2, (1,)))
    assert q_twist(rep, Fraction(-1)) == q_twist(rep, [Fraction(-1)]) == q_twist(rep, -1)
    assert q_twist(rep, [Fraction(-1)]).components[0][0].weight == (-HALF,)
    for shift in (HALF, [HALF], [1.9], 1.0, ["1"], True, [True]):  # True shifted by 1
        with pytest.raises(QuasiError, match="is not an integer vector$"):
            q_twist(rep, shift)
    with pytest.raises(QuasiError, match="^shift vector has the wrong arity$"):
        q_twist(rep, [1, 1])


def test_dual(s3):
    z3 = cyclic_group(3)
    t3 = character_table(z3)
    d = lambda_desc(z3, (1,))
    chi = _faithful_linear(t3)
    rep = v_sigma(t3.irreducible(chi), d)
    dd = dual(rep)
    ((comp, _),) = dd.components
    assert comp.lam == t3.conjugate_row(chi)
    assert comp.weight == (-THIRD,)
    assert dual(dd) == rep

    triv_rep = v_sigma(t3.irreducible(t3.trivial_index()), d)
    assert dual(triv_rep).components[0][0].weight == (Fraction(-1),)


def test_fixed_part_rep(s3):
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    d = lambda_desc(z2, (1,))
    reg = t2.regular_character()
    rep = fixed_part_rep(reg, d)
    assert rep.components == ((TwistedIrrep(t2.trivial_index(), (Fraction(0),)), 1),)
    assert rep.dimension() == 1 == fixed_space_dimension(reg, d)

    sign = t2.irreducible(1)
    assert fixed_part_rep(sign, d).is_empty
    assert fixed_space_dimension(sign, d) == 0

    d_e = lambda_desc(s3, (s3.identity,))
    t3 = character_table(s3)
    rep_e = fixed_part_rep(t3.regular_character(), d_e)
    assert rep_e.dimension() == 6 == fixed_space_dimension(t3.regular_character(), d_e)
    assert all(c.weight == (Fraction(0),) for c, _ in rep_e.components)


def test_fixed_dimension_matches_averaging(s3, d4, q8):
    for G in (s3, d4, q8):
        table = character_table(G)
        reg = table.regular_character()
        for orbit in commuting_tuples(G, 2):
            d = lambda_desc(G, orbit.representative)
            assert fixed_part_rep(reg, d).dimension() == fixed_space_dimension(reg, d)


def test_v_sigma_and_fixed_part_match_the_reference(battery):
    # every orbit representative at n = 1 on the battery and at n = 2 on its
    # nonabelian groups and cyclic:1..6, every irreducible and the regular
    # character; in cyclic:7..12 every centralizer is the whole group, so
    # n = 2 repeats the restriction of n = 1 at other weights (and would add
    # about 17 s of CPU on a 2-vCPU machine).  Each restriction keeps chi(1).
    for G in battery:
        table = character_table(G)
        chars = [table.irreducible(i) for i in range(len(table.rows))]
        chars.append(table.regular_character())
        abelian = table.n_classes == G.order
        for n in (1, 2) if not abelian or G.order <= 6 else (1,):
            for orbit in commuting_tuples(G, n):
                d = lambda_desc(G, orbit.representative)
                for chi in chars:
                    base, ref = v_sigma(chi, d), ref_v_sigma(chi, d)
                    assert base.dimension() == chi.degree
                    fixed, ref_fixed = fixed_part_rep(chi, d), ref_fixed_part_rep(chi, d)
                    assert base == ref and fixed == ref_fixed
                    # the q and fixed constructions of the kernel workloads
                    assert base + q_twist(base, -1) == ref + q_twist(ref, -1)
                    assert base + fixed == ref + ref_fixed


def test_v_sigma_rejects_non_genuine_functions_as_the_reference(s3, d4, q8):
    # differences of irreducibles, halved rows and class indicators at every
    # orbit representative at n = 1: the same answer, or the same exception
    # type and message, as restricting and decomposing
    rejected = 0
    for G in (s3, d4, q8):
        funcs = non_genuine_class_functions(character_table(G))
        for orbit in commuting_tuples(G, 1):
            d = lambda_desc(G, orbit.representative)
            for f in funcs:
                got = outcome(v_sigma, f, d)
                assert got == outcome(ref_v_sigma, f, d)
                rejected += isinstance(got, tuple)
    assert rejected > 0


def _branching_of(d):
    return d.group._memo[("branching", d.table, d.to_parent)]


def test_branching_matrix_matches_restrict_then_decompose(battery):
    # B[i][lam] is the multiplicity of lam in chi_i restricted to each
    # centralizer at n = 1, by decompose and by the inner-product reference
    for G in battery:
        table = character_table(G)
        for orbit in commuting_tuples(G, 1):
            d = lambda_desc(G, orbit.representative)
            v_sigma(table.irreducible(0), d)
            B = _branching_of(d)
            assert len(B) == len(table.rows)
            for i, row in enumerate(B):
                incl = Homomorphism(d.cent_group, G, d.to_parent)
                res = restrict_character(table.irreducible(i), incl)
                dense = [0] * len(d.table.rows)
                for lam, m in decompose(res).entries:
                    dense[lam] = m
                assert list(row) == dense
                assert decompose(res) == ref_decompose(res)


def test_branching_matrix_is_built_once_per_centralizer(monkeypatch):
    G = build_group("dihedral:4")
    table = character_table(G)
    descs = [lambda_desc(G, o.representative) for o in commuting_tuples(G, 1)]
    for d in descs:
        v_sigma(table.regular_character(), d)
    keys = {k for k in G._memo if k[0] == "branching"}
    assert keys == {("branching", d.table, d.to_parent) for d in descs}
    built = {k: G._memo[k] for k in keys}
    # identity and the central rotation share the whole group as centralizer
    assert len(keys) < len(descs)

    def no_sums(*args):
        raise AssertionError("branching matrix rebuilt")

    monkeypatch.setattr(chartable, "_products", no_sums)
    for d in descs:
        for i in range(len(table.rows)):
            v_sigma(table.irreducible(i), d)
            assert _branching_of(d) is built[("branching", d.table, d.to_parent)]


def test_branching_matrix_is_checked_when_built():
    # a centralizer table corrupted so that the restrictions of S3's
    # irreducibles to C(12) = Z/2 come out wrong: a degree that does not add
    # up, or an eig vector that makes a multiplicity fractional
    def corrupted(**fields):
        G = build_group("symmetric:3")
        d = lambda_desc(G, (G.index_of("(12)"),))
        sub = copy.copy(d.table)
        for name, value in fields.items():
            setattr(sub, name, value)
        return character_table(G).irreducible(0), sub, d.to_parent

    with pytest.raises(QuasiError, match="^branching multiplicities do not add up"):
        restriction_multiplicities(*corrupted(degrees=(1, 2)))
    with pytest.raises(QuasiError, match="^multiplicity of chi1 is 1/2, not"):
        # the sign character of Z/2 made 0 on the involution
        restriction_multiplicities(*corrupted(eig=((((0, 1),), ((0, 1),)), (((0, 1),), ()))))


def test_v_sigma_takes_no_inner_product_for_characters_of_the_table(monkeypatch):
    # irreducibles and the regular character are read as coordinates, never
    # decomposed; fresh groups, so the branching matrices are built under the patch
    groups = battery_groups()
    cases = []
    for G in groups:
        table = character_table(G)
        chars = [table.irreducible(i) for i in range(len(table.rows))]
        chars.append(table.regular_character())
        for orbit in commuting_tuples(G, 1):
            d = lambda_desc(G, orbit.representative)
            cases += [(chi, d, ref_v_sigma(chi, d)) for chi in chars]

    def forbidden(*args):
        raise AssertionError("v_sigma fell back to an inner product")

    for module, name in ((chartable, "inner_product"), (chartable, "decompose"),
                         (lambdarep, "decompose")):
        monkeypatch.setattr(module, name, forbidden)
    for chi, d, want in cases:
        assert v_sigma(chi, d) == want
    # with every matrix built, not even the branching sums are taken again
    monkeypatch.setattr(chartable, "_products", forbidden)
    for chi, d, want in cases:
        assert v_sigma(chi, d) == want


def test_weight_compatibility_enforced():
    z2 = cyclic_group(2)
    d = lambda_desc(z2, (1,))
    sign_row = 1
    with pytest.raises(QuasiError):
        LambdaRep(d, [(TwistedIrrep(sign_row, (Fraction(1),)), 1)])  # sign needs 1/2 mod 1
    with pytest.raises(QuasiError):
        LambdaRep(d, [(TwistedIrrep(0, (HALF, HALF)), 1)])  # wrong arity



def test_weight_compatibility_is_an_integer_difference():
    # w is compatible with the basis weight iff w - expected is an integer:
    # equal reduced denominators and numerators congruent modulo them
    G = build_group("cyclic:4")
    d = lambda_desc(G, (G.index_of("g1"),))
    row_of = {w: lam for lam, (w,) in enumerate(d.weights)}
    quarter = Fraction(1, 4)
    cases = [(Fraction(3, 4), quarter), (HALF, quarter), (0, Fraction(1)), (2, Fraction(1)),
             (Fraction(5, 4), quarter), (Fraction(-3, 4), quarter), (quarter, Fraction(1))]
    for w, expected in cases:
        lam = row_of[expected]
        comp = TwistedIrrep(lam, (w,))
        if (w - expected).denominator == 1:
            assert LambdaRep(d, [(comp, 1)]).components == ((comp, 1),)
        else:
            message = (f"^weight {w} is incompatible with the scalar action {expected} "
                       f"of entry 0 on chi{lam}$")
            with pytest.raises(QuasiError, match=message):
                LambdaRep(d, [(comp, 1)])


def test_components_are_validated():
    # an index outside the table is not wrapped round (-1 would render as
    # chi3) and a weight entry must be exact, each rejected as a QuasiError
    G = build_group("cyclic:4")
    d = lambda_desc(G, (G.index_of("g1"),))
    valid = LambdaRep(d, [(TwistedIrrep(3, (Fraction(1, 4),)), 1)])
    assert valid.render() == "(chi3, q^(1/4)) x 1"
    cases = [
        (TwistedIrrep(-1, (Fraction(1, 4),)), "^irreducible index -1 is not in range\\(4\\)$"),
        (TwistedIrrep(7, (Fraction(1),)), "^irreducible index 7 is not in range\\(4\\)$"),
        (TwistedIrrep(0, (1.0,)), "^weight 1\\.0 is not an int or a Fraction$"),
        (TwistedIrrep(0, ("1",)), "^weight '1' is not an int or a Fraction$"),
        # bools were kept: lam=True, and chi0's weight rendered as q^(True)
        (TwistedIrrep(True, (HALF,)), "^irreducible index True is not in range\\(4\\)$"),
        (TwistedIrrep(0, (True,)), "^weight True is not an int or a Fraction$"),
        # rejected before the merge sorts them
        (TwistedIrrep(1, [Fraction(1, 4)]), "is not a TwistedIrrep with a tuple weight$"),
        (TwistedIrrep(1, Fraction(1, 4)), "is not a TwistedIrrep with a tuple weight$"),
        ((1, (Fraction(1, 4),)), "is not a TwistedIrrep with a tuple weight$"),
    ]
    for comp, message in cases:
        with pytest.raises(QuasiError, match=message):
            LambdaRep(d, [(comp, 1)])


def test_reps_equal_only_reps():
    G = build_group("cyclic:4")
    d = lambda_desc(G, (G.index_of("g1"),))
    rep = LambdaRep(d, [(TwistedIrrep(3, (Fraction(1, 4),)), 1)])
    for other in ("x", None, rep.components):
        assert rep != other and not rep == other
    assert rep == LambdaRep(d, [(TwistedIrrep(3, (Fraction(1, 4),)), 1)])


def test_multiplicities_are_integers():
    G = build_group("cyclic:4")
    d = lambda_desc(G, (G.index_of("g1"),))
    b = lambda_basis(d)
    for mult in (HALF, 1.5, 2.0, "1", True):
        with pytest.raises(QuasiError, match="is not an integer$"):
            LambdaRep(d, [(b[1], mult)])
    with pytest.raises(QuasiError, match="^multiplicities must be non-negative$"):
        LambdaRep(d, [(b[1], -1)])
    rep = LambdaRep(d, [(b[1], Fraction(2)), (b[2], 1)])
    assert [m for _, m in rep.components] == [2, 1]
    assert all(type(m) is int for _, m in rep.components)
    assert type(rep.dimension()) is int and rep.dimension() == 3


def test_kernel_witness_z4():
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    chi1 = _faithful_linear(t4)
    d = lambda_desc(z4, (2,))
    rep = v_sigma(t4.irreducible(chi1), d)
    ker = kernel(rep)
    assert ker.torus_rank == 0 and not ker.full_group
    assert ker.finite_points == ((3, (HALF,)),)
    assert d.cent_group.label(3) == "g3"
    assert not is_faithful(rep)

    both = rep + q_twist(rep, -1)
    assert kernel(both).is_trivial
    assert is_faithful(both)


def test_kernel_trivial_action():
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    d = lambda_desc(z2, (0,))
    rep = fixed_part_rep(t2.irreducible(t2.trivial_index()), d)
    ker = kernel(rep)
    assert ker.full_group and ker.torus_rank == 1
    assert not ker.is_trivial

    empty = LambdaRep(d, [])
    ker2 = kernel(empty)
    assert ker2.full_group and ker2.torus_rank == 1


def test_kernel_scales_by_the_smith_lcm():
    # cyclic:4 at sigma = (e, g1): the q construction on chi3 has weights
    # (0, -3/4) and (1, 1/4), so den = 4 but the Smith diagonal is [1, 12]
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    d = lambda_desc(z4, (0, 1))
    base = v_sigma(t4.irreducible(t4.labels.index("chi3")), d)
    rep = base + q_twist(base, -1)
    S, _, _ = ref_smith_normal_form([[int(w * 4) for w in c.weight] for c, _ in rep.components])
    assert [S[0][0], S[1][1]] == [1, 12]
    ker = kernel(rep)
    assert ker == ref_kernel(rep)
    assert [d.cent_group.label(a) for a, _ in ker.finite_points] == ["g1", "g2"]
    assert ker.finite_points == ((1, (2 * THIRD, THIRD)), (2, (THIRD, 2 * THIRD)))


def test_kernel_enumeration_cap():
    z2 = cyclic_group(2)
    reg = character_table(z2).regular_character()
    rep = q_twist(v_sigma(reg, lambda_desc(z2, (0,))), 2**20)
    with pytest.raises(SizeLimitError, match="^kernel solution enumeration exceeds the cap$"):
        kernel(rep)


def test_faithfulness_constructions_sample(s3, d4, q8):
    for G in (s3, d4, q8, cyclic_group(6)):
        table = character_table(G)
        reg = table.regular_character()
        for orbit in commuting_tuples(G, 1):
            d = lambda_desc(G, orbit.representative)
            base = v_sigma(reg, d)
            for rep in (base + q_twist(base, -1), base + fixed_part_rep(reg, d),
                        real_v_sigma(reg, d)):
                assert kernel(rep) == ref_kernel(rep)
                assert is_faithful(rep)


def test_wide_kernels_match_the_reference(d4, q8):
    # sigma repeats one class representative n = 2..8 times, or a pair
    # orbit representative twice; reps with fewer components than n take the
    # early rank path
    wide = 0
    for G in (cyclic_group(4), d4, q8):
        table = character_table(G)
        sigmas = [o.representative.entries * n for o in commuting_tuples(G, 1) for n in range(2, 9)]
        sigmas += [o.representative.entries * 2 for o in commuting_tuples(G, 2)]
        for sigma in sigmas:
            d = lambda_desc(G, sigma)
            n = len(sigma)
            for lam in range(len(table.rows)):
                base = v_sigma(table.irreducible(lam), d)
                for rep in (base, base + q_twist(base, -1)):
                    assert kernel(rep) == ref_kernel(rep)
                    wide += len(rep.components) < n
    assert wide > 0


def test_wide_kernel_skips_the_full_smith_form():
    # 512 copies of g2 in Z/4: one component, so the torus rank is 511,
    # read from a Hermite form whose row transform is 1 x 1, without the
    # 512 x 512 column transform a full Smith form would build; n = 512 needs
    # a tuple cap of bit length 512
    z4 = cyclic_group(4)
    rep = v_sigma(character_table(z4).irreducible(1), lambda_desc(z4, (2,) * 512, Limits(tuples=1 << 511)))
    tracemalloc.start()
    try:
        ker = kernel(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ker == (511, (), False)
    assert peak < 500_000


def test_kernel_per_class_matches_the_reference():
    # kernel solves once per conjugacy class of the centralizer; the reference
    # runs over its elements.  n = 1 and 2, every irreducible and the regular
    # character, plain, q and fixed constructions; cyclic:12 at n = 1 only: its
    # element orders 1, 2, 3, 4, 6 and 12 are the case where kernel's -x den/e,
    # read at e = exp(C), must equal the reference's -(m mod l) den/l
    nonabelian_points = 0
    specs = ("symmetric:3", "symmetric:4", "dihedral:4", "dihedral:6", "quaternion8", "cyclic:12")
    for spec in specs:
        G = build_group(spec)
        table = character_table(G)
        chars = [table.irreducible(i) for i in range(len(table.rows))]
        chars.append(table.regular_character())
        for n in (1,) if spec == "cyclic:12" else (1, 2):
            for orbit in commuting_tuples(G, n):
                d = lambda_desc(G, orbit.representative)
                for chi in chars:
                    base = v_sigma(chi, d)
                    for rep in (base, base + q_twist(base, -1), base + fixed_part_rep(chi, d)):
                        ker = kernel(rep)
                        assert ker == ref_kernel(rep)
                        if ker.finite_points and d.table.n_classes < d.cent_group.order:
                            nonabelian_points += 1
    assert nonabelian_points > 0


def test_shared_residue_loop_matches_the_per_class_solve(battery):
    # kernel takes one particular solution per class and walks the triangular
    # basis of the solution lattice that its Hermite form gives; the Smith-form
    # walk it replaced, the per-class solve, which filters every Smith residue
    # for the points in [0,1)^n, and the Fraction solver are its references.
    # n = 2 and 3 only: lib-session runs n = 1,
    # where the walk has a single coordinate
    coupled = []

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3)), st.data())
    def check(n, data):
        G = data.draw(st.sampled_from([H for H in battery if H.order ** n <= 4096]))
        orbit = data.draw(st.sampled_from(commuting_tuples(G, n)))
        d = lambda_desc(G, orbit.representative)
        table = character_table(G)
        chi = data.draw(st.sampled_from(
            [table.irreducible(i) for i in range(len(table.rows))] + [table.regular_character()]))
        parts = data.draw(st.lists(st.tuples(
            st.sampled_from((v_sigma, fixed_part_rep)),
            st.lists(st.integers(-2, 2), min_size=n, max_size=n)), min_size=1, max_size=3))
        reps = [q_twist(build(chi, d), shift) for build, shift in parts]
        rep = LambdaRep(d, [pair for r in reps for pair in r.components])
        assume(not rep.is_empty)
        comps = [c for c, _ in rep.components]
        if len(comps) >= n:
            den = lcm(*(w.denominator for c in comps for w in c.weight), d.table.exponent)
            S, _, V = ref_smith_normal_form([[int(w * den) for w in c.weight] for c in comps])
            diag = [S[i][i] for i in range(n)]
            assume(prod(diag) * d.cent_group.order <= 20_000)  # keeps the references quick
            if sum(s > 1 for s in diag) >= 2 and V != identity_matrix(n):
                coupled.append(rep)
        assert kernel(rep) == ref_kernel_smith(rep) == ref_kernel_per_class(rep) == ref_kernel(rep)

    check()
    assert coupled  # some case had two Smith entries > 1 and a non-identity V


def test_kernel_walks_a_sheared_hermite_basis():
    # cyclic:4 at sigma = (g1, g1): chi1 at weights (1/2, 1/2) and (3/2, -1/2).
    # The solution lattice V diag(L e/s_i) Z^2 holds no (a, 0) with a the gcd
    # of its first coordinates, so its lower-triangular Hermite basis has a
    # nonzero entry below the diagonal, and the range of t_2 moves with t_1.
    # kernel's row-echelon form R has R[0][1] != 0, so Y = D R^-1 = [[8, -2],
    # [0, 2]] is sheared too, and the range of t_1 moves with t_2
    G = cyclic_group(4)
    d = lambda_desc(G, (1, 1))
    base = v_sigma(character_table(G).irreducible(1), d)
    rep = base + q_twist(base, (1, -1))
    e = d.table.exponent
    A = [[int(w * e) for w in c.weight] for c, _ in rep.components]
    R, _, rank = hermite_form(A)
    assert (R, rank) == ([[2, 2], [0, 8]], 2) and R[0][1] != 0
    S, _, V = ref_smith_normal_form(A)
    diag = [S[0][0], S[1][1]]
    L = lcm(*diag)
    (p, q), (r, s) = [[V[j][i] * (L * e // diag[i]) for i in range(2)] for j in range(2)]
    a, det = gcd(p, q), p * s - q * r
    assert (a * s % det, a * r % det) != (0, 0)  # (a, 0) = B z has no integer z
    ker = kernel(rep)
    assert ker == ref_kernel_smith(rep) == ref_kernel_per_class(rep) == ref_kernel(rep)
    assert ker.finite_points == ((1, (HALF, HALF)), (2, (0, 0)), (3, (HALF, HALF)))


def test_kernel_solves_each_shared_scalar_vector_once(d4):
    # dihedral:4 at sigma = (): chi1 at weights 0 and 1.  chi1 is +-1, so at
    # e = 4 three classes act on both components as (0, 0) and two as (2, 2);
    # (2, 2) asks 0 = -2/4 (mod 1) of the weight-0 component, which no t solves
    d = lambda_desc(d4, (d4.identity,))
    base = v_sigma(character_table(d4).irreducible(1), d)
    rep = base + q_twist(base, -1)
    shared: dict = {}
    for cls, col in zip(d.table.classes, d.table.central_exponents):
        shared.setdefault(tuple(col[c.lam] for c, _ in rep.components), []).append(cls)
    assert {xs: len(m) for xs, m in shared.items()} == {(0, 0): 3, (2, 2): 2}
    ker = kernel(rep)
    assert ker == ref_kernel_smith(rep) == ref_kernel_per_class(rep) == ref_kernel(rep)
    members = sorted(g for cls in shared[(0, 0)] for g in cls.members if g != d4.identity)
    assert ker.finite_points == tuple((g, (0,)) for g in members)


def test_library_sums_equal_the_checked_constructor(d4):
    # + skips the component checks that the public constructor makes, and
    # merges the same way: equal components, equal hash
    table = character_table(d4)
    for orbit in commuting_tuples(d4, 1):
        d = lambda_desc(d4, orbit.representative)
        for chi in (table.regular_character(), table.irreducible(4)):
            base = v_sigma(chi, d)
            for left, right in ((base, base), (q_twist(base, 1), base), (base, fixed_part_rep(chi, d))):
                built, checked = left + right, LambdaRep(d, right.components + left.components)
                assert (built.components, hash(built)) == (checked.components, hash(checked))
            doubled = LambdaRep(d, base.components * 2)
            assert ((base + base).components, hash(base + base)) == (doubled.components, hash(doubled))
            assert [m for _, m in doubled.components] == [2 * m for _, m in base.components]


def test_multi_index_twist_needs_coordinates():
    # with a 2-tuple, shifting the whole weight vector by -1 leaves the
    # difference lattice degenerate; per-coordinate shifts restore rank
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    reg = t2.regular_character()
    d = lambda_desc(z2, (1, 1))
    base = v_sigma(reg, d)
    diagonal = base + q_twist(base, -1)
    assert kernel(diagonal).torus_rank == 1
    assert not is_faithful(diagonal)
    per_coordinate = base + q_twist(base, (-1, 0)) + q_twist(base, (0, -1))
    assert is_faithful(per_coordinate)
    # the fixed-part pairing degenerates the same way at n = 2
    assert not is_faithful(base + fixed_part_rep(reg, d))


def test_kernel_points_are_fractions(battery):
    # every irreducible of every battery group, twisted along each class at n = 1
    points = 0
    for G in battery:
        table = character_table(G)
        for orbit in commuting_tuples(G, 1):
            desc = lambda_desc(G, orbit.representative)
            for chi in range(len(table.rows)):
                ker = kernel(v_sigma(table.irreducible(chi), desc))
                for _, t in ker.finite_points:
                    assert all(type(x) is Fraction for x in t), t
                    points += 1
    assert points > 0


def test_kernel_solver_matches_oracle_randomized():
    for rep in random_lambda_reps(20, seed=977):
        ker = kernel(rep)
        assert ker == ref_kernel(rep)
        rank_deficient, points, _, total = oracle_kernel_grid(rep)
        if ker.full_group:
            assert len(points) == total - 1  # everything but the identity pair
        elif ker.torus_rank > 0:
            assert rank_deficient
            assert points  # a nontrivial kernel point always lands on the grid
        else:
            assert not rank_deficient
            assert points == ker.finite_points
        assert is_faithful(rep) == (ker.torus_rank == 0 and not points and not ker.full_group)


def _external_sum(rep_g, rep_h):
    """external_sum, with C_{GxH}((sigma_i, tau_i)) checked to be C_G(sigma) x C_H(tau) by size."""
    total = external_sum(rep_g, rep_h)
    assert len(total.desc.to_parent) == len(rep_g.desc.to_parent) * len(rep_h.desc.to_parent)
    return total


def test_external_sum_examples():
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    sign = t2.irreducible(1)
    d = lambda_desc(z2, (1,))
    r = v_sigma(sign, d)
    s = _external_sum(r, r)
    assert s.dimension() == 2
    assert sorted(c.weight[0] for c, _ in s.components) == [HALF, HALF]

    # multiset equality with the direct-sum construction
    P = s.desc.group
    tp = character_table(P)
    vals = []
    for x in range(P.order):
        a, b = divmod(x, z2.order)
        vals.append(sign.value_at_element(a) + sign.value_at_element(b))
    direct = v_sigma(class_function_from_element_values(tp, vals), s.desc)
    assert s == direct

    # regular (+) regular over Z/2 x Z/2
    reg = t2.regular_character()
    r_reg = v_sigma(reg, d)
    s_reg = _external_sum(r_reg, r_reg)
    assert s_reg.desc.group is P  # products are shared per factor pair
    vals = []
    for x in range(P.order):
        a, b = divmod(x, z2.order)
        vals.append(reg.value_at_element(a) + reg.value_at_element(b))
    assert s_reg == v_sigma(class_function_from_element_values(tp, vals), s_reg.desc)

    # trivial second factor: an isomorphic copy
    one = cyclic_group(1)
    t1 = character_table(one)
    d1 = lambda_desc(one, (0,))
    empty_side = v_sigma(t1.irreducible(0), d1)
    s2 = _external_sum(r, empty_side)
    assert s2.dimension() == r.dimension() + 1
    assert sorted(c.weight[0] for c, _ in s2.components) == [HALF, 1]


def test_product_factor_irrep_matches_the_reference(s3, d4):
    # nonabelian factors, every lambda on both factors, every pair of class
    # representatives as sigma = ((s, t)): external_sum reads lam boxtimes 1
    # (or 1 boxtimes lam) as the single 1 in row lam along the projection
    c2 = cyclic_group(2)
    for G, H in ((s3, c2), (d4, c2), (s3, s3)):
        P = direct_product(G, H)
        for s in (c.rep for c in character_table(G).classes):
            for t in (c.rep for c in character_table(H).classes):
                dp = lambda_desc(P, (s * H.order + t,))
                descs = (lambda_desc(G, (s,)), lambda_desc(H, (t,)))
                for factor, d in enumerate(descs):
                    empty = LambdaRep(descs[1 - factor], [])
                    for lam in range(len(d.table.rows)):
                        one = LambdaRep(d, [(TwistedIrrep(lam, d.weights[lam]), 1)])
                        pair = (one, empty) if factor == 0 else (empty, one)
                        ((comp, mult),) = _external_sum(*pair).components
                        want = ref_product_factor_irrep(
                            dp, d.table, d.to_parent, lam, factor == 0, H.order
                        )
                        assert (comp, mult) == (TwistedIrrep(want, d.weights[lam]), 1)


def test_external_sum_arity_mismatch():
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    sign = t2.irreducible(1)
    r1 = v_sigma(sign, lambda_desc(z2, (1,)))
    r2 = v_sigma(sign, lambda_desc(z2, (1, 1)))
    with pytest.raises(QuasiError):
        external_sum(r1, r2)


def test_restrict_lambda_examples(s3):
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    chi1 = _faithful_linear(t4)
    phi = hom_from_images(z2, [1], [2], z4)  # s -> g^2
    pulled, direct, equal = restrict_lambda(phi, (1,), t4.irreducible(chi1))
    assert equal and pulled == direct
    ((comp, mult),) = pulled.components
    assert mult == 1 and comp.weight == (HALF,)

    # identity homomorphism: trivially equal
    ident = hom_from_images(z4, [1], [1], z4)
    _, _, equal = restrict_lambda(ident, (1,), t4.irreducible(chi1))
    assert equal

    # tau = identity tuple: both sides are the restriction at weight 1
    pulled, direct, equal = restrict_lambda(phi, (z2.identity,), t4.irreducible(chi1))
    assert equal
    assert all(c.weight == (Fraction(1),) for c, _ in pulled.components)

    # a non-injective map: Z/4 -> Z/2 -> S3 style collapse
    t2 = character_table(z2)
    psi = hom_from_images(z4, [1], [1], z2)
    for lam in range(2):
        _, _, equal = restrict_lambda(psi, (1,), t2.irreducible(lam))
        assert equal

    # into a nonabelian group
    t3 = character_table(s3)
    std = next(i for i in range(3) if t3.degrees[i] == 2)
    incl = hom_from_images(z2, [1], [s3.index_of("(12)")], s3)
    pulled, direct, equal = restrict_lambda(incl, (1,), t3.irreducible(std))
    assert equal and pulled.dimension() == 2


def test_restrict_lambda_checks_a_comm_tuple_in_the_source(s3):
    # a CommTuple is checked in H like a sequence: phi(7) on C3 was a bare IndexError
    c3 = cyclic_group(3)
    phi = hom_from_images(c3, [1], [s3.index_of("(123)")], s3)
    chi = character_table(s3).regular_character()
    for tau in (CommTuple(entries=(7,), orders=(3,)), (7,)):
        with pytest.raises(GroupInputError, match="^element index 7 out of range$"):
            restrict_lambda(phi, tau, chi)
    pulled, direct, equal = restrict_lambda(phi, CommTuple(entries=(1,), orders=(3,)), chi)
    assert equal and pulled.desc.sigma == make_comm_tuple(c3, (1,))


def test_restrict_lambda_nonabelian_centralizer(q8):
    # phi: Z/4 -> Q8 sending g to i; tau = (g^2) maps to sigma = (-1), whose
    # centralizer is all of Q8, so the pullback decomposes a 2-dim irreducible
    z4 = cyclic_group(4)
    phi = hom_from_images(z4, [1], [q8.index_of("i")], q8)
    tq = character_table(q8)
    for chi in [tq.regular_character()] + [tq.irreducible(i) for i in range(5)]:
        pulled, direct, equal = restrict_lambda(phi, (2,), chi)
        assert equal
        assert pulled.dimension() == int(chi.degree.rational_value())
    # tau = (g): sigma = (i) with centralizer Z/4 inside Q8
    pulled, direct, equal = restrict_lambda(phi, (1,), tq.regular_character())
    assert equal and pulled.dimension() == 8
    two_dim = next(i for i in range(5) if tq.degrees[i] == 2)
    pulled, _, equal = restrict_lambda(phi, (1,), tq.irreducible(two_dim))
    assert equal
    # the 2-dim irreducible restricts to two components with quarter twists
    assert sorted(w for c, _ in pulled.components for w in c.weight) == [
        Fraction(1, 4),
        Fraction(3, 4),
    ]


def _branching_entries(*groups):
    return {(id(G), k): v for G in groups for k, v in G._memo.items()
            if isinstance(k, tuple) and k[0] == "branching"}


def _restriction_cases(G):
    """Every irreducible and the regular character of G, then chi_0 - chi_1,
    which restrict_lambda must reject."""
    table = character_table(G)
    chars = [table.irreducible(i) for i in range(len(table.rows))]
    return chars + [table.regular_character()] + non_genuine_class_functions(table)[:1]


def test_restrict_lambda_matches_the_reference(battery):
    # every distinct n = 1 centralizer C = C_G(s) of the battery mapped into G,
    # with tau each class representative of C, so C_C(tau) -> C_G(tau) is an
    # inclusion that is proper whenever tau is not central in G
    for G in battery:
        chars = _restriction_cases(G)
        descs = {}
        for orbit in commuting_tuples(G, 1):
            d = lambda_desc(G, orbit.representative)
            descs.setdefault(d.to_parent, d)
        for d in descs.values():
            incl = Homomorphism(d.cent_group, G, d.to_parent)
            for t in (c.rep for c in d.table.classes):
                for chi in chars:
                    got = outcome(restrict_lambda, incl, (t,), chi)
                    assert got == outcome(ref_restrict_lambda, incl, (t,), chi)
                    assert len(got) == 2 or got[2]
    # a tuple that does not commute, and a character of the wrong group
    s3 = build_group("symmetric:3")
    ident = Homomorphism(s3, s3, tuple(range(6)))
    chi = character_table(s3).irreducible(1)
    for args in ((ident, (s3.index_of("(12)"), s3.index_of("(13)")), chi),
                 (ident, (0,), character_table(cyclic_group(2)).irreducible(1))):
        got = outcome(restrict_lambda, *args)
        assert len(got) == 2 and got == outcome(ref_restrict_lambda, *args)


def test_restrict_lambda_along_maps_that_are_not_inclusions():
    # Z/4 -> Z/2 (exp(C_H) = 4 does not divide exp(C_G) = 2), Z/4 -> Q8, and
    # the trivial maps from Z/4 and from a Klein four group into S3, whose
    # images tuples coincide; every tau of the source
    z2, z4, q8, s3 = (build_group(n) for n in ("cyclic:2", "cyclic:4", "quaternion8", "symmetric:3"))
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    maps = [
        hom_from_images(z4, [1], [1], z2),
        hom_from_images(z4, [1], [q8.index_of("i")], q8),
        hom_from_images(z4, [1], [s3.identity], s3),
        hom_from_images(klein, [1, 2], [s3.identity] * 2, s3),
    ]
    for phi in maps:
        for t in range(phi.source.order):
            for chi in _restriction_cases(phi.target):
                got = outcome(restrict_lambda, phi, (t,), chi)
                assert got == outcome(ref_restrict_lambda, phi, (t,), chi)
                assert len(got) == 2 or got[2]
    # both trivial maps send C_H(tau) = H to the identity of C_S3(e) = S3
    cent = lambda_desc(s3, (s3.identity,)).cent_group
    shared = [k for _, k in _branching_entries(cent) if k[2] == (0, 0, 0, 0)]
    assert {k[1].group.order for k in shared} == {4}
    assert len(shared) == 2 and shared[0][1] is not shared[1][1]


def test_restriction_matrices_are_built_once():
    # restrict_lambda along Z/4 -> Q8 and external_sum over Q8 x Z/2 on
    # characters whose restrictions are rows: a second call reuses the
    # memoized matrices and adds no branching entry (restrict_character's
    # pull-back still expands its values, so sums alone are no witness)
    q8, z4, z2 = (build_group(n) for n in ("quaternion8", "cyclic:4", "cyclic:2"))
    phi = hom_from_images(z4, [1], [q8.index_of("i")], q8)
    tq = character_table(q8)
    linear = [tq.irreducible(i) for i in range(len(tq.rows)) if tq.degrees[i] == 1]
    dq = lambda_desc(q8, (q8.index_of("i"),))
    d2 = lambda_desc(z2, (1,))
    pairs = [(v_sigma(chi, dq), v_sigma(character_table(z2).irreducible(1), d2)) for chi in linear]

    def run():
        out = [restrict_lambda(phi, (t,), chi) for t in range(4) for chi in linear]
        return out + [_external_sum(a, b) for a, b in pairs]

    first = run()
    groups = [q8, z4, dq.cent_group, d2.cent_group]
    groups += [lambda_desc(q8, (phi(t),)).cent_group for t in range(4)]
    groups += [lambda_desc(z4, (t,)).cent_group for t in range(4)]
    built = _branching_entries(*groups)
    assert any(k[1] is lambda_desc(z4, (1,)).table for _, k in built)  # along phi
    assert any(k[1] is _external_sum(*pairs[0]).desc.table for _, k in built)  # projections

    assert run() == first
    again = _branching_entries(*groups)
    assert again.keys() == built.keys()
    assert all(again[k] is built[k] for k in built)


def test_restriction_takes_no_inner_product(monkeypatch):
    # fresh groups, so the matrices along each map and each projection are
    # built under the patch; the references are taken before it
    q8, z4, z2, s3 = (build_group(n) for n in ("quaternion8", "cyclic:4", "cyclic:2", "symmetric:3"))
    maps = [hom_from_images(z4, [1], [q8.index_of("i")], q8), hom_from_images(z4, [1], [1], z2),
            hom_from_images(z2, [1], [s3.index_of("(12)")], s3)]
    cases = [(phi, (t,), chi) for phi in maps for t in range(phi.source.order)
             for chi in _restriction_cases(phi.target)[:-1]]
    wanted = [ref_restrict_lambda(*case) for case in cases]
    sums = []
    for G, H in ((s3, z2), (q8, z2)):
        for s, t in product(range(G.order), range(H.order)):
            dg, dh = lambda_desc(G, (s,)), lambda_desc(H, (t,))
            dp = lambda_desc(direct_product(G, H), (s * H.order + t,))
            for chi, psi in product(_restriction_cases(G)[:-1], _restriction_cases(H)[:-1]):
                rep_g, rep_h = v_sigma(chi, dg), v_sigma(psi, dh)
                want = [
                    (TwistedIrrep(ref_product_factor_irrep(
                        dp, rep.desc.table, rep.desc.to_parent, c.lam, left, H.order), c.weight), m)
                    for left, rep in ((True, rep_g), (False, rep_h)) for c, m in rep.components
                ]
                sums.append((rep_g, rep_h, LambdaRep(dp, want)))

    def forbidden(*args):
        raise AssertionError("restriction fell back to an inner product")

    for module, name in ((chartable, "inner_product"), (chartable, "decompose"),
                         (lambdarep, "decompose")):
        monkeypatch.setattr(module, name, forbidden)
    for case, want in zip(cases, wanted):
        assert restrict_lambda(*case) == want
    for rep_g, rep_h, want in sums:
        assert _external_sum(rep_g, rep_h) == want


def test_real_v_sigma_examples():
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    d = lambda_desc(z2, (1,))
    rep = real_v_sigma(t2.irreducible(1), d)
    assert sorted(c.weight[0] for c, _ in rep.components) == [-HALF, HALF]
    assert rep.dimension() == 2

    triv = real_v_sigma(t2.irreducible(t2.trivial_index()), d)
    assert sorted(c.weight[0] for c, _ in triv.components) == [-1, 1]

    z3 = cyclic_group(3)
    t3 = character_table(z3)
    rot = t3.irreducible(1) + t3.irreducible(2)
    d3 = lambda_desc(z3, (1,))
    rep3 = real_v_sigma(rot, d3)
    assert rep3.dimension() == 4
    assert sorted(w for c, _ in rep3.components for w in c.weight) == [
        Fraction(-2, 3),
        -THIRD,
        THIRD,
        Fraction(2, 3),
    ]


def test_real_v_sigma_rejects_non_self_dual():
    z3 = cyclic_group(3)
    t3 = character_table(z3)
    d = lambda_desc(z3, (1,))
    with pytest.raises(NotRealizableError):
        real_v_sigma(t3.irreducible(1), d)


def test_real_v_sigma_rejects_odd_quaternionic(q8):
    tq = character_table(q8)
    two_dim = next(i for i in range(5) if tq.degrees[i] == 2)
    d = lambda_desc(q8, (q8.index_of("-1"),))
    with pytest.raises(NotRealizableError):
        real_v_sigma(tq.irreducible(two_dim), d)
    doubled = tq.irreducible(two_dim).scale(2)
    rep = real_v_sigma(doubled, d)
    assert rep.dimension() == 8


def test_real_basis_examples(q8):
    z2 = cyclic_group(2)
    d = lambda_desc(z2, (1,))
    entries = real_basis(d)
    assert [e.dimension for e in entries] == [2, 2]

    d_e = lambda_desc(z2, (0,))
    entries_e = real_basis(d_e)
    assert [e.dimension for e in entries_e] == [1, 1]  # unchanged for trivial tuple

    z3 = cyclic_group(3)
    d3 = lambda_desc(z3, (1,))
    entries3 = real_basis(d3)
    assert sorted(e.dimension for e in entries3) == [2, 4]
    assert sorted(e.indicator for e in entries3) == [0, 1]

    dq = lambda_desc(q8, (q8.index_of("-1"),))
    entriesq = real_basis(dq)
    # real irreducibles of Q8: four 1-dim real + one quaternionic
    assert len(entriesq) == 5
    quat = next(e for e in entriesq if e.indicator == -1)
    assert quat.dimension == 8  # 2 * dim(2 * lambda)


def test_real_basis_counts_match_real_irreducibles(s3, d4, q8):
    for G in (s3, d4, q8, cyclic_group(6)):
        table = character_table(G)
        expected = 0
        for i in range(len(table.rows)):
            ind = fs_indicator(table, i)
            if ind == 0:
                expected += 1  # counted once per conjugate pair
            else:
                expected += 2
        expected //= 2
        for orbit in commuting_tuples(G, 1):
            d = lambda_desc(G, orbit.representative)
            assert len(real_basis(lambda_desc(G, orbit.representative))) == len(
                real_basis(d)
            )
        d_id = lambda_desc(G, (G.identity,))
        assert len(real_basis(d_id)) == expected
