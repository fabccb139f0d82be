"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold (run with -s to see
them).  All checks are exact; the only tolerances are the stated runtime
budgets.
"""

from __future__ import annotations

import time
from fractions import Fraction

from conftest import (
    battery_groups,
    brute_tuple_orbit_count,
    class_count_checksum,
    oracle_kernel_grid,
    random_lambda_reps,
)

from quasik import (
    Cyc,
    character_table,
    class_function_from_element_values,
    commuting_tuples,
    cyclic_group,
    dihedral_group,
    external_sum,
    fixed_part_rep,
    fs_indicator,
    hom_from_images,
    is_faithful,
    kernel,
    lambda_basis,
    lambda_desc,
    parse_quasi,
    q_twist,
    quasi_coefficients,
    quaternion_group,
    real_basis,
    real_v_sigma,
    restrict_lambda,
    s_fixed_predicate,
    serialize_quasi,
    subgroup_from_generators,
    subgroups,
    symmetric_group,
    v_sigma,
)
from quasik.quasicalc import tate_rank_report


def test_criterion_1_character_table_suite():
    start = time.perf_counter()
    for G in battery_groups():  # fresh instances: nothing precomputed
        table = character_table(G)
        k = table.n_classes
        assert sum(d * d for d in table.degrees) == G.order
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
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"character suite took {elapsed:.1f}s"
    print(f"PASS criterion 1: character tables exact for 17 groups in {elapsed:.1f}s")


def test_criterion_2_free_basis_ranks():
    orbits_checked = 0
    for G in battery_groups():
        for n in (1, 2):
            for orbit in commuting_tuples(G, n):
                desc = lambda_desc(G, orbit.representative)
                basis = lambda_basis(desc)
                assert len(basis) == len(desc.table.rows)
                for b in basis:
                    deg = desc.table.degrees[b.lam]
                    for i, w in enumerate(b.weight):
                        l = desc.sigma.orders[i]
                        m = w * l
                        assert m.denominator == 1 and 0 < m <= l
                        s = desc.to_parent.index(desc.sigma.entries[i])
                        val = desc.table.value_at_element(b.lam, s)
                        assert val == Cyc.zeta(l) ** int(m) * deg
                orbits_checked += 1
    print(f"PASS criterion 2: free-basis rank and twists on {orbits_checked} orbits")


def test_criterion_3_commuting_tuple_counts():
    s3 = symmetric_group(3)
    assert len(commuting_tuples(s3, 2)) == 8
    for G in (dihedral_group(4), quaternion_group()):
        oracle = brute_tuple_orbit_count(G, 2)  # independent brute force, computed first
        checksum = class_count_checksum(G)
        assert oracle == checksum == 22
        assert len(commuting_tuples(G, 2)) == oracle
    print("PASS criterion 3: S3 n=2 gives 8 orbits; D4 and Q8 give 22, matching the oracle")


def test_criterion_4_faithful_constructions():
    for G in battery_groups():
        table = character_table(G)
        reg = table.regular_character()
        for orbit in commuting_tuples(G, 1):
            desc = lambda_desc(G, orbit.representative)
            base = v_sigma(reg, desc)
            assert is_faithful(base + q_twist(base, -1))
            assert is_faithful(base + fixed_part_rep(reg, desc))
            assert is_faithful(real_v_sigma(reg, desc))
    # the advertised non-faithful witness
    z4 = cyclic_group(4)
    t4 = character_table(z4)
    chi1 = next(i for i in range(4) if t4.value_at_element(i, 1) == Cyc.zeta(4))
    desc = lambda_desc(z4, (2,))
    ker = kernel(v_sigma(t4.irreducible(chi1), desc))
    g3 = z4.index_of("g3")
    assert ker.finite_points == ((g3, (Fraction(1, 2),)),)
    assert not ker.is_trivial
    print("PASS criterion 4: all three constructions faithful on every orbit; witness kernel (g3, 1/2)")


def test_criterion_5_kernel_solver_vs_oracle():
    reps = random_lambda_reps(55, seed=20260810)
    assert len(reps) >= 50
    for rep in reps:
        ker = kernel(rep)
        rank_deficient, points, _, total = oracle_kernel_grid(rep)
        if ker.full_group:
            assert len(points) == total - 1
        elif ker.torus_rank > 0:
            assert rank_deficient and points
        else:
            assert not rank_deficient
            assert points == ker.finite_points
        assert is_faithful(rep) == (
            ker.torus_rank == 0 and not points and not ker.full_group
        )
    print(f"PASS criterion 5: solver matches the brute-force oracle on {len(reps)} representations")


def test_criterion_6_sum_and_restriction_formulas():
    z2 = cyclic_group(2)
    z4 = cyclic_group(4)
    s3 = symmetric_group(3)
    t2 = character_table(z2)
    t4 = character_table(z4)
    t3 = character_table(s3)

    # restrictions: Z/2 -> Z/4 (s -> g^2), identity, collapse Z/4 -> Z/2,
    # inclusion Z/2 -> S3, all irreducibles plus the regular character
    cases = []
    phi = hom_from_images(z2, [1], [2], z4)
    for i in range(4):
        cases.append((phi, (1,), t4.irreducible(i)))
        cases.append((phi, (z2.identity,), t4.irreducible(i)))
    cases.append((phi, (1,), t4.regular_character()))
    ident = hom_from_images(z4, [1], [1], z4)
    cases.append((ident, (1,), t4.irreducible(3)))
    psi = hom_from_images(z4, [1], [1], z2)
    cases.extend((psi, (tau,), t2.irreducible(i)) for tau in (0, 1) for i in range(2))
    incl = hom_from_images(z2, [1], [s3.index_of("(12)")], s3)
    for i in range(3):
        cases.append((incl, (1,), t3.irreducible(i)))
    for hom, tau, chi in cases:
        _, _, equal = restrict_lambda(hom, tau, chi)
        assert equal

    # external sums over Z/2 x Z/2, including the direct-sum comparison
    d2 = lambda_desc(z2, (1,))
    for chi, psi_chr in [
        (t2.irreducible(1), t2.irreducible(1)),
        (t2.regular_character(), t2.regular_character()),
        (t2.irreducible(0), t2.irreducible(1)),
    ]:
        left = v_sigma(chi, d2)
        right = v_sigma(psi_chr, d2)
        total = external_sum(left, right)
        assert len(total.desc.to_parent) == len(left.desc.to_parent) * len(right.desc.to_parent)
        P = total.desc.group
        tp = character_table(P)
        vals = []
        for x in range(P.order):
            a, b = divmod(x, z2.order)
            vals.append(chi.value_at_element(a) + psi_chr.value_at_element(b))
        direct = v_sigma(class_function_from_element_values(tp, vals), total.desc)
        assert total == direct
        assert total.dimension() == left.dimension() + right.dimension()
    print(f"PASS criterion 6: sum/restriction multiset equality on {len(cases) + 3} instances")


def test_criterion_7_real_suite():
    for G in battery_groups():
        table = character_table(G)
        reg = table.regular_character()
        for orbit in commuting_tuples(G, 1):
            desc = lambda_desc(G, orbit.representative)
            # real irreducibles of the centralizer = conjugation orbits of
            # its complex irreducibles
            rows = range(len(desc.table.rows))
            n_real = len(
                {tuple(sorted({i, desc.table.conjugate_row(i)})) for i in rows}
            )
            assert len(real_basis(desc)) == n_real
            assert real_v_sigma(reg, desc).dimension() == 2 * G.order
    # dimension doubling on small non-regular real representations
    z2 = cyclic_group(2)
    t2 = character_table(z2)
    d2 = lambda_desc(z2, (1,))
    assert real_v_sigma(t2.irreducible(1), d2).dimension() == 2
    z3 = cyclic_group(3)
    t3 = character_table(z3)
    rot = t3.irreducible(1) + t3.irreducible(2)
    assert real_v_sigma(rot, lambda_desc(z3, (1,))).dimension() == 4
    q8 = quaternion_group()
    tq = character_table(q8)
    two_dim = next(i for i in range(5) if tq.degrees[i] == 2)
    doubled = tq.irreducible(two_dim).scale(2)
    assert fs_indicator(tq, two_dim) == -1
    assert real_v_sigma(doubled, lambda_desc(q8, (q8.index_of("-1"),))).dimension() == 8
    print("PASS criterion 7: real basis counts and dimension doubling verified")


def test_criterion_8_fixed_point_dichotomy():
    checks = 0
    for G in (symmetric_group(3), dihedral_group(4)):
        subs = subgroups(G)
        for n in (1, 2):
            for orbit in commuting_tuples(G, n):
                sigma = orbit.representative
                gamma = subgroup_from_generators(G, sigma.entries)
                for H in subs:
                    verdict = s_fixed_predicate(G, sigma, H)
                    # direct brute force over all conjugators
                    hset = set(H.elements)
                    brute = any(
                        all(G.mul(G.mul(G.inverse(b), x), b) in hset for x in gamma.elements)
                        for b in range(G.order)
                    )
                    assert verdict.empty == brute
                    checks += 1
    print(f"PASS criterion 8: fixed-point dichotomy matches brute force on {checks} cases")


def test_criterion_9_quasi_golden_values():
    start = time.perf_counter()
    s3 = symmetric_group(3)
    table = quasi_coefficients(s3, 1)
    assert [r.rank for r in table.records] == [3, 2, 3]
    assert table.total_rank == 8
    z2_table = quasi_coefficients(cyclic_group(2), 1)
    twist_multisets = [sorted(t[0] for t in rec.twists) for rec in z2_table.records]
    assert twist_multisets == [[1, 1], [Fraction(1, 2), 1]]
    # full battery: every group at n = 1 plus the n = 2 tables used above,
    # with serialization round trips and base-change rank preservation
    for G in battery_groups():
        t = quasi_coefficients(G, 1)
        assert t.total_rank == class_count_checksum(G)
        assert parse_quasi(serialize_quasi(t, "json")) == t
        report = tate_rank_report(t)
        assert report["total_rank"] == t.total_rank
        assert report["record_ranks"] == [r.rank for r in t.records]
    for G in (s3, dihedral_group(4), quaternion_group()):
        t = quasi_coefficients(G, 2)
        assert parse_quasi(serialize_quasi(t, "json")) == t
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
    print(f"PASS criterion 9: golden ranks/twists and battery round trips in {elapsed:.1f}s")
