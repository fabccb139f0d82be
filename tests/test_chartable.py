"""Character tables: orthogonality, decomposition, scalars, restriction."""

from __future__ import annotations

import copy
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from conftest import battery_groups, non_genuine_class_functions, outcome
from cyc_reference import (
    as_root_of_unity,
    ref_abs_squared,
    ref_add,
    ref_conj,
    ref_coordinates,
    ref_decompose,
    ref_fixed_space_dimension,
    ref_fs_indicator,
    ref_inner_product,
    ref_modular_character_rows,
    ref_mul,
    ref_scalar_exponent,
    ref_v_sigma,
    ref_verify_table,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from quasik import (
    CharacterTable,
    ClassFunction,
    Cyc,
    Limits,
    NonScalarError,
    QuasiError,
    SizeLimitError,
    VirtualCharacterError,
    alternating_group,
    build_group,
    central_scalar,
    character_table,
    class_function_from_element_values,
    cyclic_group,
    decompose,
    dihedral_group,
    fixed_space_dimension,
    fs_indicator,
    hom_from_images,
    inner_product,
    lambda_desc,
    restrict_character,
    subgroup_from_generators,
    symmetric_group,
    v_sigma,
)
from quasik import chartable as chartable_module
from quasik.chartable import _charpoly_mod_p, _roots_mod_p, _scaled, _verify_table
from quasik.groups import inclusion_hom


def test_degrees():
    assert sorted(character_table(symmetric_group(3)).degrees) == [1, 1, 2]
    assert sorted(character_table(build_group("quaternion8")).degrees) == [1, 1, 1, 1, 2]
    assert sorted(character_table(symmetric_group(4)).degrees) == [1, 1, 2, 3, 3]
    assert sorted(character_table(build_group("alternating:4")).degrees) == [1, 1, 1, 3]
    assert sorted(character_table(dihedral_group(4)).degrees) == [1, 1, 1, 1, 2]


def test_trivial_character_is_first_row():
    for spec in ["cyclic:6", "symmetric:3", "quaternion8"]:
        table = character_table(build_group(spec))
        assert table.trivial_index() == 0
        assert all(v == Cyc(1) for v in table.rows[0])


def test_abelian_tables_are_dual_groups():
    for k in (2, 3, 4, 5, 6, 8, 12):
        table = character_table(cyclic_group(k))
        assert all(d == 1 for d in table.degrees)
        # each row is multiplicative: chi(g^a) = chi(g)^a
        for row in table.rows:
            gen_val = row[table.class_of[1]]
            for a in range(k):
                assert row[table.class_of[a % k]] == gen_val**a
        # all k distinct linear characters appear
        assert len(set(table.rows)) == k


def test_z4_table_values():
    table = character_table(cyclic_group(4))
    values = {tuple(row[table.class_of[g]] for g in range(4)) for row in table.rows}
    i = Cyc.zeta(4)
    expected = {
        tuple(Cyc(1) for _ in range(4)),
        (Cyc(1), i, i**2, i**3),
        (Cyc(1), i**2, Cyc(1), i**2),
        (Cyc(1), i**3, i**2, i),
    }
    assert values == expected


def test_orthogonality_exact():
    for spec in ["cyclic:9", "cyclic:12", "symmetric:4", "dihedral:6", "quaternion8", "cyclic:16"]:
        G = build_group(spec)
        table = character_table(G)
        k = table.n_classes
        for i in range(k):
            for j in range(k):
                acc = Cyc(0)
                for c in range(k):
                    acc = acc + table.rows[i][c] * table.rows[j][c].conj() * table.classes[c].size
                assert acc == Cyc(G.order if i == j else 0)
        for c1 in range(k):
            for c2 in range(k):
                acc = Cyc(0)
                for i in range(k):
                    acc = acc + table.rows[i][c1] * table.rows[i][c2].conj()
                want = Cyc(0) if c1 != c2 else Cyc(Fraction(G.order, table.classes[c1].size))
                assert acc == want


def test_size_cap():
    with pytest.raises(SizeLimitError):
        character_table(cyclic_group(5), Limits(order=4))


def test_size_cap_applies_to_memoized_tables():
    s4 = symmetric_group(4)
    character_table(s4)
    with pytest.raises(SizeLimitError):
        character_table(s4, Limits(order=10))
    # sigma = (e) has C(sigma) = G, whose memoized table must not skip the cap
    s3 = symmetric_group(3)
    character_table(s3)
    with pytest.raises(SizeLimitError):
        lambda_desc(s3, (s3.identity,), Limits(order=4))


def test_inner_products(s3):
    table = character_table(s3)
    reg = table.regular_character()
    for i in range(3):
        chi = table.irreducible(i)
        assert inner_product(reg, chi) == Cyc(table.degrees[i])
        assert inner_product(chi, chi) == Cyc(1)
        for j in range(i + 1, 3):
            assert inner_product(chi, table.irreducible(j)) == Cyc(0)
    # natural permutation character on 3 points: fixed-point counts
    fixed = [sum(1 for p in range(3) if perm[p] == p) for perm in s3.perms]
    perm_char = class_function_from_element_values(table, fixed)
    assert inner_product(perm_char, table.irreducible(table.trivial_index())) == Cyc(1)


def test_class_functions_equal_only_class_functions(s3):
    chi = character_table(s3).irreducible(0)
    for other in ("x", 1, chi.values):
        assert chi != other and not chi == other
    assert chi == character_table(s3).irreducible(0)


def test_class_functions_copy_and_pickle():
    # each raised TypeError from ClassFunction.__new__, which takes values
    chi = character_table(symmetric_group(3)).irreducible(1)
    for other in (copy.copy(chi), copy.deepcopy(chi), pickle.loads(pickle.dumps(chi))):
        assert (other.coords, other.values) == (chi.coords, chi.values)
    assert copy.copy(chi) == chi  # a shallow copy shares the table


def test_decompose(s3):
    table = character_table(s3)
    reg = table.regular_character()
    dec = decompose(reg)
    assert dec.entries == tuple((i, table.degrees[i]) for i in range(3))
    assert dec.reassemble().values == reg.values
    assert dec.dimension == 6

    zero = class_function_from_element_values(table, [0] * 6)
    assert decompose(zero).entries == ()

    doubled = table.irreducible(0).scale(2)
    assert decompose(doubled).entries == ((0, 2),)

    std = next(i for i in range(3) if table.degrees[i] == 2)
    virtual = table.irreducible(std) + table.irreducible(std).scale(-2)  # negative character
    with pytest.raises(VirtualCharacterError):
        decompose(virtual)
    half = class_function_from_element_values(
        table, [Cyc(Fraction(1, 2))] * 6
    )
    with pytest.raises(VirtualCharacterError):
        decompose(half)


def test_decompose_matches_the_reference(battery):
    # rows, regular characters, sums of rows and functions that are no
    # characters: the same multiplicities, or the same exception and message
    rejected = 0
    for G in battery:
        table = character_table(G)
        rows = [table.irreducible(i) for i in range(len(table.rows))]
        reg = table.regular_character()
        funcs = rows + [reg, reg + rows[-1], rows[0] + rows[-1].scale(3)]
        funcs += non_genuine_class_functions(table) if table.n_classes <= 8 else []
        for chi in funcs:
            got = outcome(decompose, chi)
            assert got == outcome(ref_decompose, chi)
            rejected += isinstance(got, tuple)
    assert rejected > 0


def test_central_scalar_examples(q8):
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    chi_i = next(i for i in range(4) if t4.value_at_element(i, 1) == Cyc.zeta(4))
    assert central_scalar(t4, chi_i, 2) == (1, 2)  # g^2 acts by -1
    assert central_scalar(t4, chi_i, z4.identity, 1) == (1, 1)

    tq = character_table(q8)
    two_dim = next(i for i in range(5) if tq.degrees[i] == 2)
    minus_one = q8.index_of("-1")
    assert central_scalar(tq, two_dim, minus_one) == (1, 2)
    with pytest.raises(NonScalarError):
        central_scalar(tq, two_dim, q8.index_of("i"))


def test_central_scalar_rejects_bad_input():
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    # l below 1 or not an int; irreducible -1 and 4; element -1 and |C4|; a float
    # irreducible, and bool as irreducible or order
    for irrep, z, l in [(0, 0, -2), (0, 1, 0), (0, 1, 2.5), (-1, 1, None), (4, 1, None),
                        (0, -1, None), (0, 4, 2), (1.0, 1, 1), (True, 1, 1), (0, 1, True)]:
        with pytest.raises(QuasiError, match="out of range"):
            central_scalar(t4, irrep, z, l)


def test_central_scalar_additivity():
    z6 = cyclic_group(6)
    table = character_table(z6)
    for lam in range(6):
        for z1 in range(6):
            for z2 in range(6):
                m1, l1 = central_scalar(table, lam, z1)
                m2, l2 = central_scalar(table, lam, z2)
                m3, l3 = central_scalar(table, lam, z6.mul(z1, z2))
                s1 = Cyc.zeta(l1) ** m1
                s2 = Cyc.zeta(l2) ** m2
                assert Cyc.zeta(l3) ** m3 == s1 * s2


def test_restrict_character(s3):
    table = character_table(s3)
    z3 = subgroup_from_generators(s3, [s3.index_of("(123)")])
    phi, sub_table_group = inclusion_hom(z3)
    sub_table = character_table(sub_table_group)

    triv = restrict_character(table.irreducible(table.trivial_index()), phi)
    assert all(v == Cyc(1) for v in triv.values)

    std = next(i for i in range(3) if table.degrees[i] == 2)
    res = restrict_character(table.irreducible(std), phi)
    dec = decompose(res)
    # the 2-dim irreducible restricts to the two nontrivial linear characters
    assert dec.entries == ((1, 1), (2, 1))

    reg = restrict_character(table.regular_character(), phi)
    assert reg.values == sub_table.regular_character().scale(2).values  # [G:H] = 2

    z2 = cyclic_group(2)
    phi2 = hom_from_images(z2, [1], [s3.index_of("(12)")], s3)
    res2 = restrict_character(table.irreducible(std), phi2)
    assert decompose(res2).dimension == 2


def test_fs_indicator(s3, q8):
    t3 = character_table(s3)
    assert [fs_indicator(t3, i) for i in range(3)] == [1, 1, 1]
    t4 = character_table(cyclic_group(4))
    chi_i = next(i for i in range(4) if t4.value_at_element(i, 1) == Cyc.zeta(4))
    assert fs_indicator(t4, chi_i) == 0
    tq = character_table(q8)
    two_dim = next(i for i in range(5) if tq.degrees[i] == 2)
    assert fs_indicator(tq, two_dim) == -1
    assert fs_indicator(tq, tq.trivial_index()) == 1


def test_decompose_reassemble_round_trip(s3, q8):
    from quasik.chartable import RepDecomposition

    for G in (s3, q8):
        table = character_table(G)
        dec = RepDecomposition(table, ((0, 2), (len(table.rows) - 1, 1)))
        assert decompose(dec.reassemble()).entries == dec.entries
        reg = decompose(table.regular_character())
        assert reg.reassemble().values == table.regular_character().values


def test_conjugate_rows():
    table = character_table(cyclic_group(5))
    for i in range(5):
        j = table.conjugate_row(i)
        assert table.conjugate_row(j) == i
        assert tuple(v.conj() for v in table.rows[i]) == table.rows[j]


def test_s4_table_matches_reference():
    # elementwise reference values: sign and fixed-point formulas plus the
    # cycle-type values of the two-dimensional character
    G = symmetric_group(4)
    table = character_table(G)

    def cycle_type(perm):
        seen, lengths = set(), []
        for s in range(len(perm)):
            if s in seen:
                continue
            x, k = perm[s], 1
            seen.add(s)
            while x != s:
                seen.add(x)
                x = perm[x]
                k += 1
            lengths.append(k)
        return tuple(sorted(lengths))

    def parity(perm):
        return (-1) ** (len(perm) - len(cycle_type(perm)))

    two_dim = {(1, 1, 1, 1): 2, (1, 1, 2): 0, (2, 2): 2, (1, 3): -1, (4,): 0}
    expected = set()
    for build in (
        lambda p: 1,
        parity,
        lambda p: two_dim[cycle_type(p)],
        lambda p: sum(1 for i, x in enumerate(p) if x == i) - 1,
        lambda p: parity(p) * (sum(1 for i, x in enumerate(p) if x == i) - 1),
    ):
        expected.add(tuple(Cyc(build(G.perms[c.rep])) for c in table.classes))
    assert set(table.rows) == expected


def test_q8_and_a4_tables_match_reference(q8):
    tq = character_table(q8)
    cols = [c.rep for c in tq.classes]
    by_label = {q8.label(r): i for i, r in enumerate(cols)}

    def row(d):
        out = [None] * 5
        for label, v in d.items():
            out[by_label[label]] = Cyc(v)
        return tuple(out)

    expected = {
        row({"1": 1, "-1": 1, "i": 1, "j": 1, "k": 1}),
        row({"1": 1, "-1": 1, "i": 1, "j": -1, "k": -1}),
        row({"1": 1, "-1": 1, "i": -1, "j": 1, "k": -1}),
        row({"1": 1, "-1": 1, "i": -1, "j": -1, "k": 1}),
        row({"1": 2, "-1": -2, "i": 0, "j": 0, "k": 0}),
    }
    # the set of rows is invariant under permuting the i/j/k axes
    assert set(tq.rows) == expected

    a4 = build_group("alternating:4")
    ta = character_table(a4)
    order3 = [i for i, c in enumerate(ta.classes) if a4.order_of(c.rep) == 3]
    order2 = [i for i, c in enumerate(ta.classes) if a4.order_of(c.rep) == 2]
    assert len(order3) == 2 and len(order2) == 1
    w = Cyc.zeta(3)

    def a4_row(vals):
        out = [None] * 4
        out[ta.id_class] = Cyc(vals[0])
        out[order2[0]] = Cyc(vals[1]) if isinstance(vals[1], int) else vals[1]
        out[order3[0]], out[order3[1]] = vals[2], vals[3]
        return tuple(Cyc(v) if isinstance(v, int) else v for v in out)

    expected_a4 = {
        a4_row((1, 1, Cyc(1), Cyc(1))),
        a4_row((1, 1, w, w * w)),
        a4_row((1, 1, w * w, w)),
        a4_row((3, -1, Cyc(0), Cyc(0))),
    }
    # invariant under swapping the two classes of 3-cycles
    assert set(ta.rows) == expected_a4


def test_table_determinism():
    a = character_table(symmetric_group(4))
    b = character_table(symmetric_group(4))
    c = character_table(build_group("symmetric:4"))
    assert a.rows == b.rows == c.rows
    assert a.degrees == c.degrees


# -- reference oracles: the Cyc-based verification and scalar path -------------
# The table is verified and its scalars are read on the lift's integer
# eigenvalue vectors; these are the exact cyclotomic computations they replace,
# done with the dense reference arithmetic of cyc_reference.


def _oracle_verify_table(table):
    G = table.group
    k = table.n_classes
    rows = table.rows
    if sum(d * d for d in table.degrees) != G.order:
        raise QuasiError("degree check failed")
    for i in range(k):
        for j in range(i, k):
            acc = Cyc(0)
            for c in range(k):
                term = ref_mul(rows[i][c], ref_conj(rows[j][c]))
                acc = ref_add(acc, ref_mul(term, Cyc(table.classes[c].size)))
            expected = Cyc(G.order) if i == j else Cyc(0)
            if acc != expected:
                raise QuasiError("row orthogonality failed")
    for c1 in range(k):
        for c2 in range(c1, k):
            acc = Cyc(0)
            for i in range(k):
                acc = ref_add(acc, ref_mul(rows[i][c1], ref_conj(rows[i][c2])))
            expected = (
                Cyc(Fraction(G.order, table.classes[c1].size)) if c1 == c2 else Cyc(0)
            )
            if acc != expected:
                raise QuasiError("column orthogonality failed")


def _oracle_scalar_exponent(table, irrep, z, l):
    deg = table.degrees[irrep]
    val = table.value_at_element(irrep, z)
    if ref_abs_squared(val) != deg * deg:
        return None
    return as_root_of_unity(val * Fraction(1, deg), l)


def _oracle_tables():
    groups = battery_groups() + [alternating_group(5), symmetric_group(5), dihedral_group(12)]
    return [character_table(G, Limits(order=120)) for G in groups]


@pytest.fixture(scope="module")
def oracle_tables():
    return _oracle_tables()


def test_rows_are_the_cyclotomic_values_of_the_eigenvalue_vectors(oracle_tables):
    for table in oracle_tables:
        e = table.exponent
        assert e == table.group.exponent()
        _oracle_verify_table(table)
        for row, vecs, deg in zip(table.rows, table.eig, table.degrees):
            for value, vec in zip(row, vecs):
                assert [x for x, _ in vec] == sorted({x for x, _ in vec})
                assert all(0 <= x < e and c > 0 for x, c in vec)
                assert sum(c for _, c in vec) == deg
                assert value == sum((Cyc.zeta(e, x) * c for x, c in vec), Cyc(0))


def test_scalar_lookup_matches_the_cyclotomic_oracle(oracle_tables):
    for table in oracle_tables:
        G = table.group
        for lam in range(len(table.rows)):
            for z in range(G.order):
                order = G.order_of(z)
                x = table.central_exponents[table.class_of[z]][lam]
                for l in (order, 1, table.exponent):
                    want = _oracle_scalar_exponent(table, lam, z, l)
                    assert ref_scalar_exponent(table, lam, z, l) == want
                    if l == table.exponent:  # zeta_e^x with 0 <= x < e
                        assert (None if x is None else x or l) == want
                    if want is None:
                        with pytest.raises(NonScalarError):
                            central_scalar(table, lam, z, l)
                    else:
                        assert central_scalar(table, lam, z, l) == (want, l)


def test_central_columns_read_the_single_eigenvalue(oracle_tables):
    # central_exponents[cls][lam] is the x of a one-entry eig vector, and a
    # class has a weight column exactly when it is central (size 1)
    for table in oracle_tables:
        e = table.exponent
        assert len(table.central_exponents) == len(table.central_weights) == table.n_classes
        for c, (xs, col) in enumerate(zip(table.central_exponents, table.central_weights)):
            assert xs == tuple(v[0][0] if len(v) == 1 else None
                               for v in (vecs[c] for vecs in table.eig))
            assert (col is None) == (table.classes[c].size > 1) == (None in xs)
            if col is not None:
                assert col == tuple(Fraction(x or e, e) for x in xs)
                assert all(type(w) is Fraction and 0 < w <= 1 for w in col)


def test_conjugate_row_matches_the_cyclotomic_conjugate(oracle_tables):
    for table in oracle_tables:
        lookup = {row: i for i, row in enumerate(table.rows)}
        for lam, row in enumerate(table.rows):
            assert table.conjugate_row(lam) == lookup[tuple(v.conj() for v in row)]


def _with_eig(table, eig):
    """A copy of table with these eigenvalue vectors, and the degrees they give."""
    mutant = copy.copy(table)
    mutant.eig = tuple(eig)
    mutant.degrees = tuple(sum(c for _, c in vecs[table.id_class]) for vecs in mutant.eig)
    return mutant


def _rejected_by_all(mutant):
    # both verifiers, and the constructor, which verifies the rows it is given
    for verify in (_verify_table, ref_verify_table, lambda t: CharacterTable(t.group, t.eig)):
        with pytest.raises(QuasiError):
            verify(mutant)


def test_verification_accepts_every_oracle_table(oracle_tables):
    for table in oracle_tables:
        # the verifier hands the constructor each row's conjugate
        assert _verify_table(table) == tuple(map(table.conjugate_row, range(len(table.eig))))
        assert ref_verify_table(table) is None


def test_the_constructor_conjugates_each_entry_once():
    # the verifier's conjugate rows are the constructor's: one _scaled(., -1, e) per entry
    for G in (cyclic_group(12), symmetric_group(4), build_group("quaternion8"), dihedral_group(5)):
        table = character_table(G)
        with mock.patch.object(chartable_module, "_scaled", wraps=_scaled) as spy:
            rebuilt = CharacterTable(G, table.eig)
        assert [c.args[1:] for c in spy.call_args_list] == [(-1, table.exponent)] * table.n_classes**2
        assert rebuilt._conj_rows == table._conj_rows


def test_moving_one_unit_of_multiplicity_fails_verification(oracle_tables):
    for table in oracle_tables:
        e = table.exponent
        if e == 1:
            continue  # the trivial group has no second eigenvalue to move to
        for lam, vecs in enumerate(table.eig):
            for c, vec in enumerate(vecs):
                counts = dict(vec)
                x = vec[0][0]
                counts[x] -= 1
                counts[(x + 1) % e] = counts.get((x + 1) % e, 0) + 1
                moved = tuple(sorted((y, m) for y, m in counts.items() if m))
                _rejected_by_all(_with_eig(table, (
                    vs[:c] + (moved,) + vs[c + 1:] if i == lam else vs
                    for i, vs in enumerate(table.eig)
                )))


def test_a_repeated_row_fails_verification(oracle_tables):
    for table in oracle_tables:
        k = table.n_classes
        if k == 1:
            continue  # no second row to copy
        for lam in range(k):
            twin = table.eig[(lam + 1) % k]
            _rejected_by_all(_with_eig(table, (twin if i == lam else vs
                                                for i, vs in enumerate(table.eig))))


def test_a_dropped_row_fails_the_count_check(oracle_tables):
    # the remaining rows are still orthonormal: only the count catches this
    for table in oracle_tables:
        k, mutant = table.n_classes, _with_eig(table, table.eig[:-1])
        with pytest.raises(QuasiError, match=f"{k - 1} irreducibles for {k} classes"):
            _verify_table(mutant)
        with pytest.raises(QuasiError, match="degree check failed"):
            ref_verify_table(mutant)
        with pytest.raises(QuasiError, match=f"{k - 1} irreducibles for {k} classes"):
            CharacterTable(table.group, mutant.eig)


def test_a_row_times_a_root_of_unity_has_no_conjugate_row(oracle_tables):
    # zeta_e chi is as orthonormal to the other rows as chi is, but its conjugate
    # zeta_e^-1 conj(chi) is no row when e > 2: only the closure check catches this
    for table in oracle_tables:
        e = table.exponent
        if e <= 2:
            continue
        turned = tuple(tuple(sorted(((x + 1) % e, c) for x, c in v)) for v in table.eig[0])
        mutant = _with_eig(table, (turned,) + table.eig[1:])
        assert ref_verify_table(mutant) is None
        for verify in (_verify_table, lambda t: CharacterTable(t.group, t.eig)):
            with pytest.raises(QuasiError, match="^rows are not closed under complex conjugation$"):
                verify(mutant)


def test_a_real_row_times_minus_one_is_rejected(oracle_tables):
    # -chi for a real chi is orthonormal to the other rows and its own conjugate,
    # so only the identity value catches it: with degree -1 it sorted first, and
    # trivial_index, kernel and fs_indicator (-1 on symmetric:3) took it as trivial
    negated = 0
    for table in oracle_tables:
        for lam, vecs in enumerate(table.eig):
            if table.conjugate_row(lam) != lam:
                continue
            mutant = _with_eig(table, (tuple(tuple((x, -c) for x, c in v) for v in vs) if i == lam else vs
                                       for i, vs in enumerate(table.eig)))
            for verify in (_verify_table, lambda t: CharacterTable(t.group, t.eig)):
                with pytest.raises(QuasiError, match="^a row's value at the identity is not a positive degree$"):
                    verify(mutant)
            negated += 1
    assert negated > len(oracle_tables)  # the trivial row of each, and more


@pytest.mark.parametrize("cut", ["every row", "the last row"])
def test_a_short_row_is_rejected_before_the_sort(oracle_tables, cut):
    # the sort key reads every class of every row: a short row raised IndexError there
    for table in oracle_tables:
        k = table.n_classes
        if k == 1:
            continue  # no class to cut
        rows = [vecs[:-1] if cut == "every row" or i == k - 1 else vecs for i, vecs in enumerate(table.eig)]
        with pytest.raises(QuasiError, match="^a row does not have one value per class$"):
            CharacterTable(table.group, rows)
    with pytest.raises(QuasiError, match="^a row does not have one value per class$"):
        CharacterTable(cyclic_group(3), [vecs[:2] for vecs in character_table(cyclic_group(3)).eig])


def test_the_constructor_sorts_rows_given_in_any_order(oracle_tables):
    rng = random.Random(21)
    for table in oracle_tables:
        shuffled = list(table.eig)
        rng.shuffle(shuffled)
        built = CharacterTable(table.group, shuffled)
        assert (built.rows, built.eig, built.labels) == (table.rows, table.eig, table.labels)
        assert built.trivial_index() == 0 and built.eig[0] == (((0, 1),),) * table.n_classes


def test_character_sums_match_the_cyclotomic_chain(oracle_tables):
    for table in oracle_tables:
        G = table.group
        k = len(table.rows)
        chars = [table.irreducible(i) for i in range(k)] + [table.regular_character()]
        # Isaacs, ch. 4: the sum of nu(chi) chi(1) over Irr(G) counts the g with g^2 = e
        roots = sum(G.mul(g, g) == G.identity for g in range(G.order))
        assert sum(fs_indicator(table, lam) * table.degrees[lam] for lam in range(k)) == roots
        for lam in range(k):
            assert fs_indicator(table, lam) == ref_fs_indicator(table, lam)
            for psi in chars:
                assert inner_product(chars[lam], psi) == ref_inner_product(chars[lam], psi)
        # a class function that is no character: i/2 times the conjugate of the last irreducible
        odd = ClassFunction(table, tuple(
            v.conj() * Cyc.zeta(4) * Fraction(1, 2) for v in chars[-2].values
        ))
        assert inner_product(odd, chars[-2]) == ref_inner_product(odd, chars[-2])
        for cls in table.classes:
            d = lambda_desc(G, (cls.rep,), Limits(order=G.order))
            for chi in chars:
                assert fixed_space_dimension(chi, d) == ref_fixed_space_dimension(chi, d)


@pytest.mark.parametrize("spec", ["symmetric:3", "cyclic:4"])
def test_class_functions_beyond_the_table_conductor(spec):
    # values outside Q(zeta_e): inner products are taken at the lcm of all
    # conductors, and such a class function is no character
    G = build_group(spec)
    table = character_table(G)
    if spec == "symmetric:3":
        values = [Cyc.zeta(7)] * G.order
    else:
        values = [Cyc.zeta(8), Cyc.zeta(3), Cyc.zeta(8, 3), Cyc.zeta(3) + Cyc.zeta(8)]
    chi = class_function_from_element_values(table, values)
    for i in range(len(table.rows)):
        psi = table.irreducible(i)
        got = inner_product(chi, psi)
        assert got == ref_inner_product(chi, psi)
        assert inner_product(psi, chi) == ref_inner_product(psi, chi)
    assert not inner_product(chi, table.irreducible(0)).is_rational
    with pytest.raises(VirtualCharacterError):
        decompose(chi)
    # decompose expands chi once at the lcm of the conductors and reads each
    # irreducible's eig vectors, rescaled from exp(G) to that lcm
    for f in (chi, chi + table.irreducible(1), ClassFunction(table, tuple(
            v * Cyc.zeta(7) for v in table.irreducible(1).values))):
        want = [ref_inner_product(f, table.irreducible(i)) for i in range(len(table.rows))]
        assert list(f.coords) == want


@pytest.fixture(scope="module")
def battery_tables():
    return [character_table(G) for G in battery_groups()]


def _values(e):
    """Rationals, halves, and roots of unity in Q(zeta_e) and beyond it: of order 7
    when e <= 4, else of the least odd prime order p not dividing e (the sums
    are taken at lcm(e, p), at most 60 on the battery)."""
    p = 7 if e <= 4 else next(p for p in (3, 5, 7) if e % p)
    return st.builds(lambda q, n, k: ref_mul(Cyc(q), Cyc.zeta(n, k)),
                     st.sampled_from((1, -1, 2, Fraction(-1, 2))),
                     st.sampled_from((1, p, e)), st.integers(0, e * p))


def _draw_class_function(draw, table, depth):
    """A class function built by the ClassFunction operations, with its values
    built alongside by the reference Cyc operations, class by class."""
    k = table.n_classes
    kind = draw(st.sampled_from(("row", "regular", "values") + ("sum", "scale", "conj", "half") * (depth > 0)))
    if kind == "row":
        i = draw(st.integers(0, k - 1))
        return table.irreducible(i), table.rows[i]
    if kind == "regular":
        return table.regular_character(), tuple(Cyc(table.group.order * (c == table.id_class)) for c in range(k))
    if kind == "values":
        values = draw(st.lists(st.lists(_values(table.exponent), max_size=2), min_size=k, max_size=k))
        values = tuple(ref_add(*v) if len(v) == 2 else v[0] if v else Cyc(0) for v in values)
        return ClassFunction(table, values), values
    f, values = _draw_class_function(draw, table, depth - 1)
    if kind == "sum":
        g, other = _draw_class_function(draw, table, depth - 1)
        return f + g, tuple(map(ref_add, values, other))
    if kind == "scale":
        m = draw(st.integers(-3, 3))
        return f.scale(m), tuple(ref_mul(v, Cyc(m)) for v in values)
    if kind == "conj":
        return f.conj(), tuple(map(ref_conj, values))
    halves = tuple(ref_mul(v, Cyc(Fraction(1, 2))) for v in values)
    return ClassFunction(table, halves), halves


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coordinates_agree_with_the_values_and_the_reference(battery_tables, data):
    # sums, scalings and conjugates act on the coordinates; the values read
    # back from them are the classwise results, and a class function built from
    # those values is the same value, hashing alike
    table = data.draw(st.sampled_from(battery_tables))
    f, values = _draw_class_function(data.draw, table, 2)
    assert all(type(a) is int or (type(a) is Fraction and a.denominator > 1)
               or (type(a) is Cyc and not a.is_rational) for a in f.coords)
    assert f.values == values  # equal on each read, built afresh from the coordinates
    assert (f.degree, f.value_at_element(table.group.order - 1)) == (
        values[table.id_class], values[table.class_of[table.group.order - 1]])
    assert list(f.coords) == list(ref_coordinates(f))
    g = ClassFunction(table, values)
    assert g == f and hash(g) == hash(f) and g.coords == f.coords
    assert f.conj().conj() == f and hash(f.scale(2)) == hash(f + f)
    psi, _ = _draw_class_function(data.draw, table, 1)
    assert inner_product(f, psi) == ref_inner_product(f, psi)
    # the restriction reads a unit vector's branching row, else multiplies the coordinates out
    G = table.group
    d = lambda_desc(G, (data.draw(st.sampled_from([c.rep for c in table.classes])),))
    assert outcome(v_sigma, f, d) == outcome(ref_v_sigma, f, d)


@pytest.mark.parametrize("spec", ["cyclic:24", "dihedral:12", "symmetric:4", "quaternion8"])
def test_the_galois_step_builds_one_row_per_irreducible(monkeypatch, spec):
    # each lifted character fills its k classes from the powers of the class
    # representatives, once per Galois class; then each of the k rows of k
    # vectors is built once, however many units map a character onto it
    import quasik.chartable as chartable

    G = build_group(spec)
    table = character_table(G)
    k, e = table.n_classes, table.exponent
    units = [j for j in range(1, e + 1) if gcd(j, e) == 1]
    galois_classes = {min(tuple(_scaled(v, j, e) for v in vecs) for j in units) for vecs in table.eig}
    calls = []
    real = chartable._scaled
    monkeypatch.setattr(chartable, "_scaled", lambda *args: calls.append(args) or real(*args))
    rows = chartable._modular_character_rows(G)
    assert sorted(rows) == sorted(table.eig)
    assert len(calls) == k * len(galois_classes) + k * k


@pytest.mark.parametrize("value", [Cyc.zeta(7), Fraction(1, 2)], ids=["irrational", "half"])
def test_a_fixed_space_dimension_that_is_no_integer_is_rejected(value):
    # at sigma = (e) the average over <sigma> is the one value itself
    G = build_group("symmetric:3")
    chi = class_function_from_element_values(character_table(G), [value] * G.order)
    with pytest.raises(QuasiError, match="^fixed-space dimension is not an integer$"):
        fixed_space_dimension(chi, lambda_desc(G, (G.identity,)))


@pytest.mark.parametrize("call, message", [
    (lambda a, b: a + b, "class functions live on different tables"),
    (inner_product, "class functions live on different tables"),
    (lambda a, b: class_function_from_element_values(b.table, [1] * 5), "need one value per group element"),
    (lambda a, b: class_function_from_element_values(b.table, [1, 2, 1, 1, 1, 1]),
     "values are not constant on conjugacy classes"),
    (lambda a, b: restrict_character(a, hom_from_images(cyclic_group(1), [], [], b.table.group)),
     "homomorphism target does not match the class function"),
    (lambda a, b: v_sigma(a, lambda_desc(b.table.group, (0,))), "character does not live on the ambient group"),
], ids=["add", "inner-product", "one-value-per-element", "constant-on-classes", "restrict-target",
        "v-sigma-group"])
def test_class_functions_are_checked_against_their_table(call, message):
    # cyclic:3 and symmetric:3 both have three classes, so only these checks tell them apart
    a = character_table(cyclic_group(3)).irreducible(1)
    b = character_table(symmetric_group(3)).irreducible(1)
    with pytest.raises(QuasiError, match=f"^{message}$"):
        call(a, b)


# -- the split and the lift against their references -----------------------------


def _det_mod_p(rows, p):
    mat, det = [row[:] for row in rows], 1
    for c in range(len(mat)):
        r = next((r for r in range(c, len(mat)) if mat[r][c] % p), None)
        if r is None:
            return 0
        if r != c:
            mat[c], mat[r], det = mat[r], mat[c], -det
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], -1, p)
        for i in range(c + 1, len(mat)):
            f = mat[i][c] * inv % p
            mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[c])]
    return det % p


def test_characteristic_polynomial_is_the_determinant_at_every_point():
    # det(lam I - M) at all p > n points fixes the monic polynomial of degree n;
    # sparse matrices make the Hessenberg reduction swap rows and skip columns
    rng = random.Random(20261019)
    p = 13
    for n in range(1, 8):
        for density in (0.2, 0.5, 1.0):
            for _ in range(6):
                M = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)]
                     for _ in range(n)]
                poly = _charpoly_mod_p(M, p)
                assert len(poly) == n + 1 and poly[0] == 1
                for lam in range(p):
                    value = 0
                    for a in poly:
                        value = (value * lam + a) % p
                    shifted = [[(lam * (i == j) - M[i][j]) % p for j in range(n)] for i in range(n)]
                    assert value == _det_mod_p(shifted, p)


def test_roots_come_with_their_multiplicities():
    rng = random.Random(7)
    p = 31
    for _ in range(40):
        want = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        poly = [1]
        for r in want:  # times (x - r)
            poly = [(a - r * b) % p for a, b in zip(poly + [0], [0] + poly)]
        assert Counter(_roots_mod_p(poly, p)) == Counter(want)
    # x^2 + 1 has no root mod 7: nothing is returned for it
    assert _roots_mod_p([1, 0, 1, 0], 7) == [0]


def test_split_and_lift_match_the_reference():
    groups = battery_groups() + [alternating_group(5), symmetric_group(5), dihedral_group(12),
                                 cyclic_group(24)]
    for G in groups:
        table = character_table(G, Limits(order=120))
        ref = ref_modular_character_rows(G)
        assert table.rows == tuple(row for row, _ in ref)
        assert table.eig == tuple(vecs for _, vecs in ref)


def test_the_split_builds_class_matrices_as_it_reaches_them():
    # the dense prebuild of all k class matrices held 8.9 MB at the peak on
    # cyclic:96; on a cyclic group the split is done after two of them
    import quasik.chartable as chartable

    G = cyclic_group(96)
    tracemalloc.start()
    try:
        chartable._modular_character_rows(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", [12, 47, 48])
def test_the_split_takes_one_null_space_per_galois_class(monkeypatch, n):
    # on cyclic:n the generator's class matrix has n simple roots, one per
    # character, and the characters fall into one Galois class per divisor of n
    import quasik.chartable as chartable

    calls = []
    real = chartable._nullspace_mod_p
    monkeypatch.setattr(chartable, "_nullspace_mod_p", lambda rows, p: calls.append(p) or real(rows, p))
    character_table(cyclic_group(n))
    assert len(calls) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_galois_conjugates_of_rows_are_rows(oracle_tables):
    # for a unit j mod e, x -> x j on a row's eig is the row of chi^(sigma_j),
    # whose vector at class c is chi's at the class of g_c^j
    for table in oracle_tables:
        G, e = table.group, table.exponent
        rows = set(table.eig)
        for j in (j for j in range(1, e + 1) if gcd(j, e) == 1):
            for vecs in table.eig:
                image = tuple(tuple(sorted((x * j % e, c) for x, c in v)) for v in vecs)
                assert image in rows
                for c, cls in enumerate(table.classes):
                    assert image[c] == vecs[table.class_of[G.power(cls.rep, j)]]


@pytest.mark.parametrize("n", [47, 48])
def test_large_cyclic_tables_are_the_dual_group(n):
    # under the default caps: a prime exponent (p = 283) and (Z/48)^* not cyclic.
    # chi_a(g^b) = zeta_n^(ab), one eigenvalue of multiplicity 1 at each class
    G = cyclic_group(n)
    table = character_table(G)
    e = table.exponent
    assert e == n
    want = {tuple((((a * b * e // n) % e, 1),) for b in range(n)) for a in range(n)}
    got = [tuple(vecs[table.class_of[G.power(1, b)]] for b in range(n)) for vecs in table.eig]
    assert len(got) == n and set(got) == want
    for row, vecs in zip(table.rows, table.eig):
        assert all(value == Cyc.zeta(e, v[0][0]) for value, v in zip(row, vecs))
