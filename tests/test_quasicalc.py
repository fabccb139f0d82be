"""Coefficient tables, the fixed-point dichotomy, base-change report, codecs."""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from conftest import (
    battery_groups,
    brute_contains_conjugate,
    brute_tuple_orbit_count,
    class_count_checksum,
    counting_instances,
    twist_oracle,
    weight_counter,
)
from cyc_reference import ref_descent_commuting_tuples, ref_quasi_coefficients, ref_serialize_quasi
from hypothesis import given, settings
from hypothesis import strategies as st

from quasik import (
    CommTuple,
    QuasiError,
    QuasiRecord,
    QuasiTable,
    TupleOrbit,
    build_group,
    character_table,
    commuting_tuples,
    cyclic_group,
    make_comm_tuple,
    parse_quasi,
    quasi_coefficients,
    render_quasi_text,
    s_fixed_predicate,
    serialize_quasi,
    subgroup_from_generators,
    subgroups,
    symmetric_group,
    tate_rank_report,
    trivial_subgroup,
)
from quasik import groups as groups_module
from quasik.groups import GroupTable, Limits, _descent, centralizer
from quasik.lambdarep import lambda_desc
from quasik.quasicalc import render_tate_report

GOLDEN = Path(__file__).parent / "golden"


def test_s3_ranks(s3):
    table = quasi_coefficients(s3, 1)
    assert [r.rank for r in table.records] == [3, 2, 3]
    assert table.total_rank == 8
    for rec in table.records:
        assert rec.rank == len(rec.twists)
        for twist in rec.twists:
            assert all(0 < w <= 1 for w in twist)


def test_trivial_group():
    table = quasi_coefficients(cyclic_group(1), 3)
    assert len(table.records) == 1
    assert table.total_rank == 1
    assert table.records[0].twists == ((Fraction(1),) * 3,)


def test_z2_twists():
    table = quasi_coefficients(cyclic_group(2), 1)
    multisets = [sorted(t[0] for t in rec.twists) for rec in table.records]
    assert multisets == [[1, 1], [Fraction(1, 2), 1]]


def test_total_rank_equals_pair_orbit_count(s3, d4, q8):
    for G in (s3, d4, q8, cyclic_group(6)):
        table = quasi_coefficients(G, 1)
        assert table.total_rank == class_count_checksum(G) == brute_tuple_orbit_count(G, 2)
        assert quasi_coefficients(G, 2).total_rank == brute_tuple_orbit_count(G, 3)


@pytest.mark.parametrize("n", [True, 2.0, 0, -1, "1"])
def test_n_must_be_a_positive_int(s3, n):
    # n = True was serialized as "n": true, which parse_quasi rejects, and 2.0
    # and "1" raised a bare TypeError
    with pytest.raises(ValueError, match="^n must be an int >= 1$"):
        quasi_coefficients(s3, n)


def test_all_ones_twist_count(s3, d4, q8):
    # the all-ones vector appears exactly once per irreducible on which the
    # whole tuple acts by trivial scalars, hence at least once in total
    from quasik import lambda_desc

    for G in (s3, q8):
        for n in (1, 2):
            table = quasi_coefficients(G, n)
            for rec in table.records:
                ones = sum(1 for t in rec.twists if all(w == 1 for w in t))
                desc = lambda_desc(G, tuple(G.index_of(s) for s in rec.sigma_labels))
                in_cent = [desc.to_parent.index(s) for s in desc.sigma.entries]
                trivially_acted = sum(
                    1
                    for lam in range(len(desc.table.rows))
                    if all(desc.table.value_at_element(lam, s) == desc.table.degrees[lam]
                           for s in in_cent)
                )
                assert ones == trivially_acted >= 1


def test_records_follow_orbit_order(d4):
    table = quasi_coefficients(d4, 2)
    reps = [tuple(d4.index_of(s) for s in rec.sigma_labels) for rec in table.records]
    assert reps == sorted(reps)
    assert table.total_rank == sum(r.rank for r in table.records)


def test_every_centralizer_table_lives_in_the_group_memo():
    # the orbit descent reads each C_G(prefix + (s,)) = C_H(s) off its node H's
    # rows, but memoizes its table on G under its element tuple in G, so no
    # subgroup table memoizes subgroups or centralizers of its own, G holds no
    # centralizer entry, and lambda_desc finds the descent's table for
    # C_G(sigma) instead of building a second one
    from quasik import dihedral_group, quaternion_group

    limits = Limits(tuples=30**3)
    cases = ((dihedral_group(4), 2), (quaternion_group(), 2), (symmetric_group(4), 2), (dihedral_group(15), 3))
    for G, n in cases:
        table = quasi_coefficients(G, n, limits)
        assert not any(isinstance(k, tuple) and k[0] == "centralizer" for k in G._memo), G.name
        tables = [v for k, v in G._memo.items() if isinstance(k, tuple) and k[0] == "subgroup"]
        assert tables, G.name
        for H in tables:
            nested = [k for k in H._memo if isinstance(k, tuple)]
            assert not any(k[0] in ("subgroup", "centralizer") for k in nested), (G.name, H.name)
        stored = list(G._memo.values())
        for rec in table.records:
            desc = lambda_desc(G, tuple(G.index_of(s) for s in rec.sigma_labels), limits)
            assert desc.cent_group is G or any(desc.cent_group is v for v in stored)
            assert desc.cent_group.order == rec.centralizer_order


# every battery group at each n = 1 to 4 that the default caps admit
_DESCENT_CASES = [(i, n) for i, G in enumerate(battery_groups()) for n in range(1, 5)
                  if G.order**n <= Limits().tuples]


def _relabelled(G, perm):
    """G with each element a renamed perm[a], keeping its label."""
    table = [[0] * G.order for _ in range(G.order)]
    labels = [""] * G.order
    for a in range(G.order):
        labels[perm[a]] = G.label(a)
        for b in range(G.order):
            table[perm[a]][perm[b]] = perm[G.mul(a, b)]
    return GroupTable(table, labels=labels, name=G.name)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_DESCENT_CASES), st.data())
def test_the_descent_matches_the_reference(case, data):
    # the descent against the one that asked centralizer(G, .) for every node
    # and orbit, on a battery group with its elements renamed at random, so
    # that neither the identity nor the sorted inclusions sit where the
    # builder put them
    i, n = case
    base = battery_groups()[i]
    perm = data.draw(st.permutations(range(base.order)))
    G, twin = _relabelled(base, perm), _relabelled(base, perm)
    with mock.patch.object(groups_module, "centralizer", wraps=centralizer) as spy:
        leaves = list(_descent(G, n, Limits()))
        table = quasi_coefficients(G, n)
    assert spy.call_count == 0
    assert not any(isinstance(k, tuple) and k[0] == "centralizer" for k in G._memo)
    orbits = ref_descent_commuting_tuples(twin, n)
    assert [(entries, size) for entries, size, _, _ in leaves] == [
        (orbit.representative.entries, orbit.orbit_size) for orbit in orbits]
    assert commuting_tuples(G, n) == orbits
    assert table == ref_quasi_coefficients(twin, n)
    for sigma, _, C, to_G in leaves:
        assert to_G == centralizer(G, sigma).elements
        assert C is lambda_desc(G, sigma).cent_group
    for C, to_G in {id(C): (C, to_G) for _, _, C, to_G in leaves}.values():
        # to_G is a sorted homomorphism of C into G
        assert list(to_G) == sorted(to_G)
        assert all(to_G[C.mul(a, b)] == G.mul(x, y) for a, x in enumerate(to_G) for b, y in enumerate(to_G))


def test_every_records_twists_are_the_permutation_character_of_its_tuple():
    # each record of the battery at n = 1 to 3 with |G|^n <= 20,000 holds, as
    # a multiset, the central characters that twist_oracle reads off the classes
    # of C_G(sigma) alone, with no character table
    limits, checked = Limits(tuples=20000), 0
    for G in battery_groups():
        for n in (1, 2, 3):
            if G.order**n > limits.tuples:
                continue
            for rec in quasi_coefficients(G, n, limits).records:
                entries = tuple(map(G.index_of, rec.sigma_labels))
                assert weight_counter(rec.twists) == twist_oracle(G, entries), (G.name, rec.sigma_labels)
                checked += 1
    assert checked == 7258


def test_records_share_their_centralizer_columns():
    # each record holds the weight columns of its centralizer's own table, at
    # each sigma_i's class: the very tuples, neither copied nor transposed
    G, limits = build_group("dihedral:30"), Limits(order=60, tuples=60**3)
    records = quasi_coefficients(G, 3, limits).records
    leaves = list(_descent(G, 3, limits))
    assert len(records) == len(leaves) == 13560
    for rec, (entries, _, C, to_G) in zip(records, leaves):
        table = character_table(C, limits)
        assert len(rec.columns) == 3 and rec.rank == len(table.rows)
        for col, s in zip(rec.columns, entries):
            assert col is table.central_weights[table.class_of[to_G.index(s)]]


def test_quasi_coefficients_builds_no_tuple_objects():
    # the descent yields plain leaves: only commuting_tuples wraps them, once per orbit
    G = build_group("dihedral:6")
    with counting_instances(CommTuple) as tuples, counting_instances(TupleOrbit) as orbits:
        table = quasi_coefficients(G, 2)
    assert len(table.records) == 32 and tuples == [] and orbits == []
    with counting_instances(CommTuple) as tuples, counting_instances(TupleOrbit) as orbits:
        assert len(commuting_tuples(G, 2)) == len(tuples) == len(orbits) == 32


def test_s_fixed_examples(s3):
    g12 = make_comm_tuple(s3, (s3.index_of("(12)"),))
    h123 = subgroup_from_generators(s3, [s3.index_of("(123)")])
    assert s_fixed_predicate(s3, g12, h123).label == "Contractible"

    full = subgroup_from_generators(s3, range(s3.order))
    assert s_fixed_predicate(s3, g12, full).label == "Empty"

    ident = make_comm_tuple(s3, (s3.identity, s3.identity))
    assert s_fixed_predicate(s3, ident, trivial_subgroup(s3)).label == "Empty"


def test_s_fixed_matches_brute_force(s3, d4):
    for G in (s3, d4):
        from quasik import commuting_tuples

        for orbit in commuting_tuples(G, 1):
            sigma = orbit.representative
            gamma = subgroup_from_generators(G, sigma.entries)
            for H in subgroups(G):
                verdict = s_fixed_predicate(G, sigma, H)
                assert verdict.empty == brute_contains_conjugate(
                    G, gamma.elements, H.elements
                )


def test_s_fixed_conjugation_invariance(s3):
    from quasik import commuting_tuples

    subs = subgroups(s3)
    for orbit in commuting_tuples(s3, 2):
        sigma = orbit.representative
        for H in subs:
            base = s_fixed_predicate(s3, sigma, H).empty
            for g in range(s3.order):
                conj_sigma = make_comm_tuple(
                    s3, tuple(s3.conjugate(g, x) for x in sigma.entries)
                )
                conj_h = subgroup_from_generators(
                    s3, [s3.conjugate(g, x) for x in H.elements]
                )
                assert s_fixed_predicate(s3, conj_sigma, conj_h).empty == base


def test_tate_rank_report(s3):
    table = quasi_coefficients(s3, 1)
    report = tate_rank_report(table)
    assert report["total_rank"] == 8
    assert report["record_ranks"] == [3, 2, 3]
    assert report["base"] == "Z((q))"
    text = render_tate_report(report)
    assert "total rank: 8" in text

    empty = quasi_coefficients(cyclic_group(1), 2)
    report2 = tate_rank_report(empty)
    assert report2["total_rank"] == 1
    assert report2["base"] == "Z((q))^(x2)"

    z2 = tate_rank_report(quasi_coefficients(cyclic_group(2), 1))
    assert z2["record_ranks"] == [2, 2]


def test_serialization_round_trip(s3, d4):
    for G, n in ((s3, 1), (s3, 2), (d4, 1), (cyclic_group(1), 1)):
        table = quasi_coefficients(G, n)
        parsed = parse_quasi(serialize_quasi(table, "json"))
        assert parsed == table  # orbit references are excluded from equality
        assert serialize_quasi(parsed, "json") == serialize_quasi(table, "json")


def test_serialization_determinism(s3):
    a = serialize_quasi(quasi_coefficients(s3, 1), "json")
    b = serialize_quasi(quasi_coefficients(symmetric_group(3), 1), "json")
    assert a == b
    ta = serialize_quasi(quasi_coefficients(s3, 1), "text")
    tb = serialize_quasi(quasi_coefficients(symmetric_group(3), 1), "text")
    assert ta == tb


def test_golden_s3(s3):
    # oracle validation first, then the frozen byte-level snapshot
    table = quasi_coefficients(s3, 1)
    assert table.total_rank == class_count_checksum(s3)
    assert serialize_quasi(table, "json") == (GOLDEN / "s3_n1.json").read_bytes()


def test_text_format(s3):
    text = serialize_quasi(quasi_coefficients(s3, 1), "text").decode()
    assert "total rank: 8" in text
    assert "(123)" in text
    with pytest.raises(QuasiError):
        serialize_quasi(quasi_coefficients(s3, 1), "xml")


def test_parse_rejects_inconsistent_total():
    doc = serialize_quasi(quasi_coefficients(cyclic_group(2), 1), "json").decode()
    broken = doc.replace('"total_rank": 4', '"total_rank": 5')
    with pytest.raises(QuasiError):
        parse_quasi(broken)


_ZERO_TWIST = (
    b'{"group": "C2", "n": 1, "E": "K", "records": [{"sigma": ["e"], "orbit_size": 1,'
    b' "centralizer_order": 2, "rank": 1, "twists": [["1/0"]]}], "total_rank": 1}'
)


_FLOAT_TWIST = _ZERO_TWIST.replace(b'"1/0"', b"0.1")
_STRING_SIGMA = _ZERO_TWIST.replace(b'["e"]', b'"ab"').replace(b'"1/0"', b'"1"')
# a string row would iterate as the twist ("1", "2")
_STRING_TWIST_ROW = _ZERO_TWIST.replace(b'[["1/0"]]', b'["12"]')
_EXPONENT_TWIST = _ZERO_TWIST.replace(b'"1/0"', b'"1e3000000"')
_VALID = _ZERO_TWIST.replace(b'"1/0"', b'"1"')
# labels, group and E are strings; counts are integers, never truncated floats or bools
_INT_LABELS = _VALID.replace(b'["e"]', b"[1, 2]").replace(b'"C2"', b"5")
_INT_GROUP = _VALID.replace(b'"C2"', b"5")
_INT_THEORY = _VALID.replace(b'"E": "K"', b'"E": 0')
_FLOAT_N = _VALID.replace(b'"n": 1', b'"n": 1.9')
_FLOAT_ORBIT_SIZE = _VALID.replace(b'"orbit_size": 1', b'"orbit_size": 1.0')
_FLOAT_CENTRALIZER = _VALID.replace(b'"centralizer_order": 2', b'"centralizer_order": 2.5')
_BOOL_RANK = _VALID.replace(b'"rank": 1', b'"rank": true')
_STRING_TOTAL = _VALID.replace(b'"total_rank": 1', b'"total_rank": "1"')


@pytest.mark.parametrize(
    "data",
    [b"", b"[]", b"{}", _ZERO_TWIST, b"\xff", _FLOAT_TWIST, _STRING_SIGMA, _STRING_TWIST_ROW,
     _EXPONENT_TWIST, _INT_LABELS, _INT_GROUP, _INT_THEORY, _FLOAT_N, _FLOAT_ORBIT_SIZE,
     _FLOAT_CENTRALIZER, _BOOL_RANK, _STRING_TOTAL],
    ids=["empty", "list", "no-keys", "zero-denominator", "not-utf8", "float-twist",
         "string-sigma", "string-twist-row", "exponent-twist", "int-labels", "int-group",
         "int-theory", "float-n", "float-orbit-size", "float-centralizer-order", "bool-rank",
         "string-total-rank"],
)
def test_parse_rejects_malformed_documents(data):
    with pytest.raises(QuasiError, match="^malformed coefficient table"):
        parse_quasi(data)


def test_parse_accepts_the_valid_base_document():
    # each malformed document above differs from this one in a single field
    table = parse_quasi(_VALID)
    assert table.records[0].sigma_labels == ("e",) and table.total_rank == 1


def _golden_with_first_record(edit) -> str:
    # symmetric:3 at n = 1 with its first record edited; total_rank stays the sum of the ranks
    doc = json.loads((GOLDEN / "s3_n1.json").read_bytes())
    edit(doc["records"][0])
    doc["total_rank"] = sum(rec["rank"] for rec in doc["records"])
    return json.dumps(doc)


@pytest.mark.parametrize("edit, message", [
    (lambda rec: rec.update(rank=5), "^a record has rank 5 and 3 twists$"),
    (lambda rec: rec["twists"][0].append("1"), "^a record's sigma or twist does not have n = 1 entries$"),
    (lambda rec: rec["sigma"].append("()"), "^a record's sigma or twist does not have n = 1 entries$"),
    (lambda rec: (rec["twists"][0].append("1"), rec["sigma"].append("()")),
     "^a record's sigma or twist does not have n = 1 entries$"),
], ids=["rank-not-twists", "twist-row-not-n", "sigma-not-n", "twist-row-and-sigma-not-n"])
def test_parse_rejects_records_that_quasi_coefficients_cannot_make(edit, message):
    with pytest.raises(QuasiError, match=message):
        parse_quasi(_golden_with_first_record(edit))


@pytest.mark.parametrize("data, n", [
    (b'{"group": "g", "n": -1, "records": [], "total_rank": 0}', -1),
    # zero columns cannot hold a record of rank 2
    (b'{"group": "g", "n": 0, "records": [{"sigma": [], "orbit_size": 1, "centralizer_order": 2,'
     b' "rank": 2, "twists": [[], []]}], "total_rank": 2}', 0),
], ids=["negative-n", "zero-n-rank-2"])
def test_parse_rejects_a_table_of_n_below_one(data, n):
    # quasi_coefficients takes n >= 1 only
    with pytest.raises(QuasiError, match=f"^a table has n = {n}, and n must be >= 1$"):
        parse_quasi(data)


def test_parse_keeps_n_empty_columns_for_a_record_of_rank_zero():
    table = parse_quasi(_VALID.replace(b'"rank": 1', b'"rank": 0').replace(b'[["1"]]', b"[]")
                        .replace(b'"total_rank": 1', b'"total_rank": 0'))
    assert table.records[0].columns == ((),) and table.records[0].twists == ()
    assert parse_quasi(serialize_quasi(table, "json")) == table


# -- the JSON writer against json.dumps -----------------------------------------------

# the quasi ops of the lib-session benchmark: n = 1..3 with |G|^n at most 1024
LIB_SESSION_GROUPS = ("symmetric:3", "symmetric:4", "alternating:4", "dihedral:4", "dihedral:6",
                      "quaternion8", "cyclic:6", "cyclic:8", "cyclic:12")


@pytest.fixture(scope="module")
def lib_session_tables():
    groups = [build_group(spec) for spec in LIB_SESSION_GROUPS]
    return [quasi_coefficients(G, n) for G in groups for n in (1, 2, 3) if G.order**n <= 1024]


def _with_string_weights(table: QuasiTable) -> QuasiTable:
    # each weight replaced by its string, which prints as itself: a writer that
    # prints one weight for another, equal one gives the table other text
    return table._replace(records=tuple(
        rec._replace(columns=tuple(tuple(str(w) for w in c) for c in rec.columns))
        for rec in table.records))


def test_the_writer_matches_json_dumps_on_the_lib_session_tables(lib_session_tables):
    assert len(lib_session_tables) == 23
    for table in lib_session_tables:
        written = serialize_quasi(table, "json")
        assert written == ref_serialize_quasi(table), (table.group, table.n)
        parsed = parse_quasi(written)
        assert serialize_quasi(parsed, "json") == ref_serialize_quasi(parsed) == written
        text = serialize_quasi(table, "text")
        assert serialize_quasi(parsed, "text") == text
        assert serialize_quasi(_with_string_weights(table), "text") == text


_LABELS = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800e\xe9')),
                  max_size=4)
# equal weights that print differently (1, 1.0, True) and fresh equal objects
# on every draw, so a memo keyed by value shows; the columns of a record may
# differ in length, and its twists, like the writers, stop at the shortest
_WEIGHTS = st.one_of(st.fractions(max_denominator=4), st.integers(-3, 3),
                     st.sampled_from([0.5, -0.25, 1.0, 0.0, True, False, Decimal("0.50")]))
_RECORDS = st.builds(
    QuasiRecord,
    sigma_labels=st.lists(_LABELS, max_size=3).map(tuple),
    orbit_size=st.integers(),
    centralizer_order=st.integers(),
    rank=st.integers(-1, 3),
    columns=st.lists(st.lists(_WEIGHTS, max_size=4).map(tuple), max_size=3).map(tuple),
)
_TABLES = st.builds(QuasiTable, group=_LABELS, n=st.integers(),
                    records=st.lists(_RECORDS, max_size=4).map(tuple),
                    total_rank=st.integers(), theory=_LABELS)


@settings(max_examples=300, deadline=None)
@given(_TABLES)
def test_the_writer_matches_json_dumps_on_any_table(table):
    assert serialize_quasi(table, "json") == ref_serialize_quasi(table)
    assert render_quasi_text(table) == render_quasi_text(_with_string_weights(table))


_S3 = parse_quasi((GOLDEN / "s3_n1.json").read_bytes())
_REC = _S3.records[0]


@pytest.mark.parametrize("table", [
    _S3._replace(records=(_REC._replace(orbit_size=True),)),
    _S3._replace(records=(_REC._replace(rank=1.0),)),
    _S3._replace(records=(_REC._replace(centralizer_order=None),)),
    _S3._replace(records=(_REC._replace(sigma_labels=(3,)),)),
    _S3._replace(records=(_REC._replace(sigma_labels="ab"),)),
    _S3._replace(records=(_REC._replace(columns=[[Fraction(1, 2), 2]]),)),
    _S3._replace(n=False), _S3._replace(total_rank=2.5), _S3._replace(group=5),
    _S3._replace(theory=None), _S3._replace(records=list(_S3.records)),
], ids=["bool-orbit-size", "float-rank", "none-centralizer-order", "int-label", "string-sigma",
        "list-twists", "bool-n", "float-total-rank", "int-group", "none-theory", "list-records"])
def test_the_writer_gives_the_reference_bytes_or_refuses(table):
    # fields of types that neither quasi_coefficients nor parse_quasi makes
    try:
        written = serialize_quasi(table, "json")
    except TypeError:
        return
    assert written == ref_serialize_quasi(table)


def test_the_text_format_refuses_a_string_utf8_cannot_encode():
    # parse_quasi reads the JSON escape \ud800, a lone surrogate; the JSON writer
    # escapes it again, and the text writer, which encodes UTF-8, refuses it
    table = parse_quasi(b'{"group": "g", "n": 1, "records": [], "total_rank": 0, "E": "\\ud800"}')
    assert table.theory == "\ud800"
    assert b'"E": "\\ud800"' in serialize_quasi(table, "json")
    with pytest.raises(QuasiError, match=r"^the text format cannot encode '\\ud800'$"):
        serialize_quasi(table, "text")
