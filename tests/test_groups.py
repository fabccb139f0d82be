"""Group construction, conjugacy, centralizers, subgroups, commuting tuples."""

from __future__ import annotations

import gc
import itertools
import re
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from cyc_reference import (
    ref_check_associative,
    ref_commuting_tuples,
    ref_conjugacy_classes,
    ref_element_orders,
    ref_hom_from_images,
    ref_identity,
    ref_is_abelian,
)
from conftest import (
    battery_groups,
    brute_commuting_pair_count,
    brute_conjugation_orbits,
    brute_contains_conjugate,
    brute_tuple_orbit_count,
    outcome,
)

from quasik import (
    GroupInputError,
    GroupTable,
    Limits,
    NonCommutingTupleError,
    QuasiError,
    SizeLimitError,
    build_group,
    centralizer,
    character_table,
    commuting_tuples,
    conjugacy_classes,
    contains_conjugate,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_generators,
    hom_from_images,
    lambda_desc,
    load_group_file,
    make_comm_tuple,
    quaternion_group,
    subgroup_from_generators,
    subgroup_table,
    subgroups,
    symmetric_group,
    trivial_subgroup,
)
from quasik.errors import HomomorphismError
from quasik.groups import (
    Homomorphism,
    _closure,
    _generators,
    class_index_map,
    cycle_label,
    parse_permutation,
)


def test_group_from_generators_s3():
    G = group_from_generators([parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)])
    assert G.order == 6


def test_group_from_generators_trivial_and_cyclic():
    assert group_from_generators([], degree=1).order == 1
    G = group_from_generators([parse_permutation("(1 2 3 4)")])
    assert G.order == 4
    assert sorted(G.elem_orders) == [1, 2, 4, 4]


def test_group_from_generators_rejects_non_bijection():
    with pytest.raises(GroupInputError):
        group_from_generators([(0, 0, 1)])
    # 1.0 and True sort as 1, so each of these passed as a bijection: the first
    # then raised a bare TypeError, the second built a group of bool points
    for gen in [(1.0, 0), (True, False), ("1", 0)]:
        with pytest.raises(GroupInputError, match=rf"^generator {re.escape(repr(gen))} is not a bijection$"):
            group_from_generators([gen])


@pytest.mark.parametrize("table", [[[0, 1.7], [1.7, 0]], [[0, 1.0], [1.0, 0]],
                                   [[0, "1"], ["1", 0]], [[False, True], [True, False]]])
def test_table_entries_must_be_ints(table):
    # int() turned each of these into the table of cyclic:2
    with pytest.raises(GroupInputError, match="^multiplication table row 0 malformed$"):
        GroupTable(table)
    assert GroupTable([[0, 1], [1, 0]]).order == 2


# a Latin square with an identity and inverses that is not associative
_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("build, message", [
    (lambda: GroupTable([]), "group must have at least one element"),
    (lambda: GroupTable([[0, 1], [0, 1]]), "column 0 is not a permutation of the elements"),
    (lambda: GroupTable([[0, 2, 1], [2, 1, 0], [1, 0, 2]]), "table has no two-sided identity"),
    (lambda: GroupTable([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
                         [4, 2, 0, 1, 3]]), "element 2 has no two-sided inverse"),
    (lambda: GroupTable(_LOOP5, validate=True), "table is not associative"),
    (lambda: GroupTable([[0, 1], [1, 0]], labels=["a", "a"]), "labels must be distinct, one per element"),
    (lambda: parse_permutation("(1 2"), "bad cycle notation: '(1 2'"),
    (lambda: parse_permutation("(1 5)", 3), "cycle uses point 5 beyond degree 3"),
    (lambda: parse_permutation("(1 2)(2 3)"), "cycles are not disjoint in '(1 2)(2 3)'"),
    (lambda: group_from_generators([(1, 0, 2)], degree=2), "generator degree exceeds requested degree"),
    (lambda: direct_product(cyclic_group(65), cyclic_group(64)), "product order 4160 exceeds cap 4096"),
    (lambda: hom_from_images(cyclic_group(2), [1], [], cyclic_group(2)), "need one image per generator"),
], ids=["empty", "column", "identity", "inverse", "associative", "labels", "cycle-notation",
        "beyond-degree", "disjoint", "generator-degree", "product-order", "one-image-per-generator"])
def test_malformed_group_input_is_rejected_with_its_message(build, message):
    # each message is raised by one branch only, so each case fails without its branch
    with pytest.raises(QuasiError, match=f"^{re.escape(message)}$"):
        build()


def test_loop5_is_rejected_by_the_cubic_reference_too():
    with pytest.raises(GroupInputError, match="^table is not associative$"):
        ref_check_associative(_LOOP5)


def _latin_squares(n: int, reduced: bool):
    """Every Latin square of order n, or every one whose row 0 and column 0
    are in order (so that 0 is its identity), filled cell by cell."""
    cells = [[-1] * n for _ in range(n)]

    def fill(k):
        if k == n * n:
            yield [list(row) for row in cells]
            return
        i, j = divmod(k, n)
        for v in [i + j] if reduced and i * j == 0 else range(n):
            if v not in cells[i][:j] and all(cells[r][j] != v for r in range(i)):
                cells[i][j] = v
                yield from fill(k + 1)
        cells[i][j] = -1

    return fill(0)


def _reference_verdict(square) -> str:
    """The old constructor's checks in its order: identity, inverses, associativity."""
    e = ref_identity(square)
    if e is None:
        return "table has no two-sided identity"
    for a, row in enumerate(square):
        if square[row.index(e)][a] != e:
            return f"element {a} has no two-sided inverse"
    verdict = outcome(ref_check_associative, square)
    return "group" if verdict is None else verdict[1]


@pytest.mark.parametrize("n, reduced, loops_not_associative", [
    (1, False, 0), (2, False, 0), (3, False, 0), (4, False, 0), (5, True, 2), (6, True, 1728),
])
def test_table_checks_match_the_scans_they_replaced(n, reduced, loops_not_associative):
    # every Latin square of order <= 4, with or without an identity, and every
    # one of order 5 and 6 with identity 0, among them the non-associative loops
    verdicts: Counter = Counter()
    for square in _latin_squares(n, reduced):
        G = outcome(lambda t: GroupTable(t, validate=True), square)
        verdict = "group" if isinstance(G, GroupTable) else G[1]
        assert verdict == _reference_verdict(square), square
        if isinstance(G, GroupTable):
            assert G.identity == ref_identity(square)
            assert G.elem_orders == ref_element_orders(G)
            assert G.is_abelian() == ref_is_abelian(G)
            assert (conjugacy_classes(G), class_index_map(G)) == ref_conjugacy_classes(G)
        verdicts[verdict] += 1
    assert verdicts["table is not associative"] == loops_not_associative


@pytest.fixture(scope="module")
def reference_battery(tmp_path_factory):
    """The builtins within the default caps, two direct products, the
    centralizer tables of the orbit descent and a table file."""
    specs = [f"cyclic:{k}" for k in range(1, 61)] + [f"dihedral:{k}" for k in range(3, 31)]
    specs += ["symmetric:3", "symmetric:4", "symmetric:5", "alternating:4", "alternating:5", "quaternion8"]
    groups = [build_group(spec) for spec in specs]
    groups.append(direct_product(cyclic_group(2), symmetric_group(3)))
    groups.append(direct_product(quaternion_group(), cyclic_group(3)))
    for spec in ("symmetric:4", "dihedral:6", "quaternion8", "alternating:5"):
        G = build_group(spec)
        commuting_tuples(G, 2)
        groups += [H for k, H in G._memo.items() if isinstance(k, tuple) and k[0] == "subgroup"]
    # D_5 with its elements reversed, so that the identity is its last element
    D = dihedral_group(5)
    flip = [D.order - 1 - a for a in range(D.order)]
    path = tmp_path_factory.mktemp("groups") / "d5.grp"
    rows = [[flip[D.mul(flip[a], flip[b])] for b in range(D.order)] for a in range(D.order)]
    path.write_text(f"table {D.order}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    groups.append(load_group_file(path))
    assert groups[-1].identity == D.order - 1
    return groups


def test_group_scans_match_the_references(reference_battery):
    for G in reference_battery:
        assert (conjugacy_classes(G), class_index_map(G)) == ref_conjugacy_classes(G), G.name
        assert G.elem_orders == ref_element_orders(G), G.name
        assert G.is_abelian() == ref_is_abelian(G), G.name
        ref_check_associative(G._mul)
        assert GroupTable(G._mul, validate=True).elem_orders == G.elem_orders


def test_generating_sets_are_short_and_generate(reference_battery):
    for G in reference_battery:
        gens = _generators(G)
        assert len(gens) <= G.order.bit_length() - 1  # floor(log2 |G|)
        assert _closure(G, gens) == tuple(range(G.order)), G.name
        assert _generators(G) is gens  # memoized on G


def test_a_table_that_needs_too_many_generators_is_no_group():
    # x * g is g for x = 0 and x otherwise, so the closure of a set is the set
    # and 0: each of the 7 other elements would be a generator, and the search
    # stops when it would add a fourth, one more than floor(log2 8)
    calls = []

    def mul(x, g):
        calls.append((x, g))
        return g if x == 0 else x

    fake = SimpleNamespace(order=8, identity=0, _memo={}, mul=mul)
    with pytest.raises(GroupInputError, match="^table is not associative$"):
        _generators(fake)
    assert {g for _, g in calls} == {1, 2, 3}


def test_closure_size_cap():
    gens = [parse_permutation("(1 2)", 5), parse_permutation("(1 2 3 4 5)", 5)]
    with pytest.raises(SizeLimitError):
        group_from_generators(gens, limits=Limits(closure=30))


def test_degree_cap_is_checked_before_building(tmp_path):
    # a transposition on 21 points has order 2, but its degree is over the cap
    with pytest.raises(SizeLimitError):
        group_from_generators([parse_permutation("(1 2)", 21)], limits=Limits(closure=20))
    path = tmp_path / "wide.grp"
    path.write_text("perm 21\n(1 2)\n")
    with pytest.raises(SizeLimitError):
        load_group_file(path, Limits(closure=20))
    bad_generator = tmp_path / "wide_bad.grp"
    bad_generator.write_text("perm 21\n(1 x)\n")
    with pytest.raises(SizeLimitError):  # the header is checked before any generator
        load_group_file(bad_generator, Limits(closure=20))
    for spec in ("cyclic:21", "dihedral:21", "symmetric:21", "alternating:21"):
        with pytest.raises(SizeLimitError):
            build_group(spec, Limits(closure=20))
    assert build_group("cyclic:20", Limits(closure=20)).order == 20
    assert load_group_file(path, Limits(closure=21)).order == 2


def test_builtins_close_under_the_callers_limits():
    # the degree passes the cap; the closure of the generators does not
    for spec in ("symmetric:5", "alternating:6"):
        with pytest.raises(SizeLimitError, match="closure exceeds the size cap of 30"):
            build_group(spec, Limits(closure=30))
    assert build_group("symmetric:5", Limits(closure=120)).order == 120


def test_perm_degree_below_one_is_rejected(tmp_path):
    for degree in (-3, 0):
        path = tmp_path / "neg.grp"
        path.write_text(f"perm {degree}\n")
        with pytest.raises(GroupInputError) as exc:
            load_group_file(path)
        assert str(exc.value).startswith(f"{path}:1: permutation degree")


def test_table_header_is_checked_before_any_row(tmp_path):
    # 10001 elements would make a table of 10001**2 cells; the malformed row
    # shows that no row is read before the header's size is checked
    path = tmp_path / "big.grp"
    path.write_text("table 10001\n0 x\n")
    with pytest.raises(SizeLimitError, match="^table order 10001 exceeds the size cap of 10000$"):
        load_group_file(path)
    path.write_text("table 3\n0 1 2\n1 2 0\n2 0 1\n")
    assert load_group_file(path, Limits(closure=3)).order == 3
    with pytest.raises(SizeLimitError):
        load_group_file(path, Limits(closure=2))


def test_parse_and_label_round_trip():
    for text in ["()", "(12)", "(123)(45)", "(1 2)(3 4)"]:
        perm = parse_permutation(text, 5)
        assert parse_permutation(cycle_label(perm), 5) == perm


def test_group_axioms_on_builtins():
    for spec in ["cyclic:6", "symmetric:3", "dihedral:4", "quaternion8", "alternating:4"]:
        G = build_group(spec)
        e = G.identity
        for a in range(G.order):
            assert G.mul(a, e) == a == G.mul(e, a)
            assert G.mul(a, G.inverse(a)) == e
            assert G.power(a, G.order_of(a)) == e
            assert all(G.power(a, k) != e for k in range(1, G.order_of(a)))


def test_conjugacy_classes_s3(s3):
    classes = conjugacy_classes(s3)
    assert sorted(c.size for c in classes) == [1, 2, 3]
    assert [tuple(c.members) for c in classes] == brute_conjugation_orbits(s3)
    assert sum(c.size for c in classes) == s3.order
    for c in classes:
        assert c.rep == min(c.members)
        assert s3.order % c.size == 0


def test_conjugacy_classes_trivial_and_q8(q8):
    assert len(conjugacy_classes(cyclic_group(1))) == 1
    assert sorted(c.size for c in conjugacy_classes(q8)) == [1, 1, 2, 2, 2]


def test_centralizer_orbit_duality(s3, d4, q8):
    for G in (s3, d4, q8):
        for cls in conjugacy_classes(G):
            c = centralizer(G, (cls.rep,))
            assert cls.size * c.order == G.order


def test_centralizer_examples(s3, d4):
    c = centralizer(s3, (s3.index_of("(12)"),))
    assert c.order == 2
    e_tuple = (s3.identity, s3.identity)
    assert centralizer(s3, e_tuple).order == s3.order
    r2 = d4.index_of("(13)(24)")  # the rotation squared
    s = d4.index_of("(14)(23)")
    c = centralizer(d4, (r2, s))
    assert c.order == 4
    assert set(d4.label(x) for x in c.elements) == {"()", "(14)(23)", "(13)(24)", "(12)(34)"}


def test_centralizer_contains_generated_subgroup(s3, d4):
    for G in (s3, d4):
        for orbit in commuting_tuples(G, 2):
            sigma = orbit.representative
            c = set(centralizer(G, sigma).elements)
            assert set(sigma.entries) <= c


def test_commuting_tuples_counts(s3):
    assert len(commuting_tuples(s3, 1)) == 3
    assert len(commuting_tuples(s3, 2)) == 8
    assert len(commuting_tuples(cyclic_group(1), 3)) == 1


def test_commuting_tuples_match_classes_at_n1(s3, d4, q8):
    for G in (s3, d4, q8):
        orbits = commuting_tuples(G, 1)
        classes = conjugacy_classes(G)
        assert len(orbits) == len(classes)
        assert [o.representative.entries[0] for o in orbits] == [c.rep for c in classes]
        assert [o.orbit_size for o in orbits] == [c.size for c in classes]


def test_commuting_tuples_total_count(s3, d4, q8):
    for G in (s3, d4, q8):
        orbits = commuting_tuples(G, 2)
        assert sum(o.orbit_size for o in orbits) == brute_commuting_pair_count(G)
        assert len(orbits) == brute_tuple_orbit_count(G, 2)
        for o in orbits:
            assert G.order % o.orbit_size == 0


def _relabelled_s3() -> GroupTable:
    """S3 with its elements renumbered so that the identity is index 3."""
    s3 = symmetric_group(3)
    new = (3, 0, 5, 1, 4, 2)  # old index -> new index
    table = [[0] * 6 for _ in range(6)]
    labels = [""] * 6
    for a in range(6):
        labels[new[a]] = s3.label(a)
        for b in range(6):
            table[new[a]][new[b]] = new[s3.mul(a, b)]
    return GroupTable(table, labels=labels, name="s3-relabelled")


def test_commuting_tuples_match_the_scan():
    # the centralizer descent against the scan of every commuting tuple it
    # replaced: same lex-least representatives, same order, same orbit sizes
    limits = Limits(tuples=30000)
    relabelled = _relabelled_s3()
    assert relabelled.identity != 0
    for G in battery_groups() + [dihedral_group(6), relabelled]:
        for n in (1, 2, 3):
            if G.order**n <= limits.tuples:
                expected = ref_commuting_tuples(G, n, limits)
                assert commuting_tuples(G, n, limits) == expected, (G.name, n)


def test_commuting_tuples_cap():
    with pytest.raises(SizeLimitError):
        commuting_tuples(symmetric_group(4), 3, Limits(tuples=4096))


def test_make_comm_tuple_rejects_the_empty_tuple(s3):
    with pytest.raises(NonCommutingTupleError, match="^a commuting tuple needs at least one entry$"):
        make_comm_tuple(s3, ())


def test_make_comm_tuple_rejects_non_commuting(s3):
    with pytest.raises(NonCommutingTupleError):
        make_comm_tuple(s3, (s3.index_of("(12)"), s3.index_of("(13)")))


@pytest.mark.parametrize("entries, bad", [((0, 100), 100), ((1, -1), -1)])
def test_make_comm_tuple_range_checks_before_commuting(s3, entries, bad):
    # no index reaches the commutation test unchecked: 100 would raise
    # IndexError there, and -1 would wrap round to the last element
    with pytest.raises(GroupInputError, match=rf"^element index {bad} out of range$"):
        make_comm_tuple(s3, entries)


def _out_of_range(a):
    return pytest.raises(GroupInputError, match=rf"^element index {a} out of range$")


@pytest.mark.parametrize("past_the_end", [False, True])
def test_element_indices_are_range_checked(s3, past_the_end):
    # -1 would wrap round to the last element, and |G| raise IndexError
    z4 = cyclic_group(4)
    bad_s3, bad_z4 = (6, 4) if past_the_end else (-1, -1)
    with _out_of_range(bad_s3):
        subgroup_from_generators(s3, [1, bad_s3])
    memo = set(s3._memo)
    with _out_of_range(bad_s3):
        centralizer(s3, [bad_s3])
    assert set(s3._memo) == memo  # nothing memoized under the bad index
    with _out_of_range(bad_s3):
        hom_from_images(s3, [bad_s3], [0], z4)  # a generator
    with _out_of_range(bad_z4):
        hom_from_images(z4, [1], [bad_z4], z4)  # an image


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
def test_element_indices_must_be_ints(s3, bad):
    # 1.5 was truncated to 1 by make_comm_tuple, and 1.0 and True hash as 1,
    # so they would reach the memo key of the element 1: every caller
    # rejects them before any lookup, and leaves no memo key behind
    z4 = cyclic_group(4)
    centralizer(s3, [1])
    memo = set(s3._memo)
    calls = [
        lambda: make_comm_tuple(s3, [bad]),
        lambda: make_comm_tuple(s3, [0, bad]),
        lambda: subgroup_from_generators(s3, [1, bad]),
        lambda: centralizer(s3, [bad]),
        lambda: centralizer(s3, [0, bad]),
        lambda: hom_from_images(s3, [bad], [0], z4),  # a generator
        lambda: hom_from_images(z4, [1], [bad], z4),  # an image
    ]
    for call in calls:
        with pytest.raises(GroupInputError, match=rf"^element index {re.escape(repr(bad))} is not an int$"):
            call()
    assert set(s3._memo) == memo


def _all_pairs_comm_check(G, entries):
    """The reference scan: every pair of positions, in order."""
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            if not G.commutes(a, b):
                raise NonCommutingTupleError(
                    f"{G.label(a)} and {G.label(b)} do not commute in {G.name}"
                )


_SMALL_GROUPS = ("symmetric:3", "dihedral:4", "quaternion8", "cyclic:4", "symmetric:4")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SMALL_GROUPS), st.data())
def test_make_comm_tuple_matches_all_pairs_scan(spec, data):
    G = build_group(spec)
    labels = data.draw(st.lists(st.sampled_from(G.labels), min_size=1, max_size=8))
    entries = tuple(G.index_of(s) for s in labels)
    try:
        _all_pairs_comm_check(G, entries)
        expected = None
    except NonCommutingTupleError as exc:
        expected = str(exc)
    try:
        sigma = make_comm_tuple(G, entries)
    except Exception as exc:  # noqa: BLE001 - the type itself is under test
        assert type(exc) is NonCommutingTupleError
        assert str(exc) == expected
    else:
        assert expected is None
        assert sigma.entries == entries


def test_make_comm_tuple_tests_distinct_entries_only(monkeypatch):
    G = cyclic_group(1)
    real = GroupTable.commutes
    calls = []

    def counting(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(GroupTable, "commutes", counting)
    sigma = make_comm_tuple(G, (G.identity,) * 4096)
    assert sigma.n == 4096
    assert len(calls) <= 1


def test_subgroups_counts(s3, d4):
    assert len(subgroups(s3)) == 6
    assert len(subgroups(d4)) == 10
    assert len(subgroups(cyclic_group(7))) == 2
    assert len(subgroups(quaternion_group())) == 6


def test_subgroups_are_subgroups(s3):
    for sub in subgroups(s3):
        elems = set(sub.elements)
        assert s3.identity in elems
        for a in elems:
            assert s3.inverse(a) in elems
            for b in elems:
                assert s3.mul(a, b) in elems
        assert s3.order % sub.order == 0
        assert set(subgroup_from_generators(s3, sub.generators).elements) == elems


def test_subgroups_cap():
    with pytest.raises(SizeLimitError):
        subgroups(symmetric_group(4), Limits(order=10))


def test_contains_conjugate_examples(s3):
    g12 = subgroup_from_generators(s3, [s3.index_of("(12)")])
    g13 = subgroup_from_generators(s3, [s3.index_of("(13)")])
    g123 = subgroup_from_generators(s3, [s3.index_of("(123)")])
    assert contains_conjugate(s3, g12, g13)
    assert not contains_conjugate(s3, g123, g12)
    assert contains_conjugate(s3, trivial_subgroup(s3), g12)


def test_contains_conjugate_brute_force(s3, d4):
    for G in (s3, d4):
        subs = subgroups(G)
        for gamma in subs:
            for h in subs:
                assert contains_conjugate(G, gamma, h) == brute_contains_conjugate(
                    G, gamma.elements, h.elements
                )
            # whole group always contains a conjugate; trivial target iff trivial
            assert contains_conjugate(G, gamma, subs[-1])
            assert contains_conjugate(G, gamma, subs[0]) == (gamma.order == 1)


def test_group_files(tmp_path):
    f = tmp_path / "v4.grp"
    f.write_text("perm 4\n(1 2)\n(3 4)\n")
    G = load_group_file(f)
    assert G.order == 4
    assert G.is_abelian()

    t = tmp_path / "z3.grp"
    t.write_text("table 3\n0 1 2\n1 2 0\n2 0 1\n")
    H = load_group_file(t)
    assert H.order == 3
    assert H.elem_orders == (1, 3, 3)

    bad = tmp_path / "bad.grp"
    bad.write_text("table 2\n0 1\n1 1\n")
    with pytest.raises(GroupInputError):
        load_group_file(bad)
    bad.write_text("table 2\n0 1\n# a comment line\n1 x\n")
    with pytest.raises(GroupInputError, match=f"^{re.escape(str(bad))}:4: expected integers, got '1 x'$"):
        load_group_file(bad)


def test_build_group_dispatch():
    assert build_group("cyclic:5").order == 5
    assert build_group("dihedral:6").order == 12
    assert build_group("alternating:4").order == 12
    assert build_group("quaternion8").order == 8
    with pytest.raises(GroupInputError):
        build_group("nonsense:3")


def test_hom_from_images(s3):
    z2 = cyclic_group(2)
    phi = hom_from_images(z2, [1], [s3.index_of("(12)")], s3)
    assert phi(0) == s3.identity
    assert phi(1) == s3.index_of("(12)")
    with pytest.raises(HomomorphismError):
        hom_from_images(z2, [1], [s3.index_of("(123)")], s3)  # order mismatch
    z4 = cyclic_group(4)
    with pytest.raises(HomomorphismError):
        hom_from_images(z4, [2], [2], z4)  # g^2 does not generate


def test_hom_from_images_matches_the_pairwise_reference():
    # every assignment of generator images, accepted or not, gives the same
    # images or the same error as the reference that also checks all pairs
    s3, q8 = build_group("symmetric:3"), build_group("quaternion8")
    sources = [(build_group("cyclic:4"), [1]), (s3, [s3.index_of("(12)"), s3.index_of("(123)")]),
               (q8, [q8.index_of("i"), q8.index_of("j")])]
    targets = [build_group(spec) for spec in ("symmetric:3", "cyclic:4", "quaternion8", "dihedral:4")]
    accepted = 0
    for source, gens in sources:
        for target in targets:
            for images in itertools.product(range(target.order), repeat=len(gens)):
                got = outcome(hom_from_images, source, gens, images, target)
                assert got == outcome(ref_hom_from_images, source, gens, images, target)
                accepted += isinstance(got, Homomorphism)
    assert 0 < accepted


def test_hom_from_images_multiplies_once_per_generator_edge():
    s4 = symmetric_group(4)
    gens = [s4.index_of("(12)"), s4.index_of("(1234)")]
    calls = []
    mul = s4.mul
    s4.mul = lambda a, b: calls.append(1) or mul(a, b)
    try:
        phi = hom_from_images(s4, gens, gens, s4)
    finally:
        del s4.mul
    assert phi.images == tuple(range(s4.order))
    assert len(calls) == 2 * s4.order * len(gens)  # x * g in the source and f(x) * f(g) in the target


def test_labels_are_deterministic():
    a = symmetric_group(3)
    b = symmetric_group(3)
    assert a.labels == b.labels
    assert [c.rep for c in conjugacy_classes(a)] == [c.rep for c in conjugacy_classes(b)]


def test_group_memo_is_freed_with_the_group():
    G = symmetric_group(3)
    whole, to_parent = subgroup_table(centralizer(G, (G.identity,)))
    assert whole is G and to_parent == tuple(range(G.order))
    assert lambda_desc(G, (G.identity,)).table is character_table(G)
    z2 = cyclic_group(2)
    assert direct_product(G, z2) is direct_product(G, z2)
    cent = centralizer(G, (G.index_of("(12)"),))
    sub, _ = subgroup_table(cent)
    assert sub.order == 2 and subgroup_table(cent)[0] is sub
    ref = weakref.ref(G)
    del G, whole, cent, sub
    gc.collect()
    assert ref() is None
