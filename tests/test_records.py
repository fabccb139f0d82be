"""The value records: their semantics, and the import graph they leave."""

from __future__ import annotations

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quasik
from quasik import (
    ClassFunction,
    LambdaDesc,
    LambdaRep,
    QuasiError,
    QuasiRecord,
    TwistedIrrep,
    character_table,
    commuting_tuples,
    conjugacy_classes,
    decompose,
    inclusion_hom,
    kernel,
    lambda_desc,
    make_comm_tuple,
    q_twist,
    quasi_coefficients,
    real_basis,
    s_fixed_predicate,
    subgroup_from_generators,
    symmetric_group,
    v_sigma,
)
from quasik.cli import parse_args


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, quasik.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "quasik.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_every_public_function_is_exported_or_named_in_src():
    # a top-level public function that quasik does not export and that no
    # module of the package names is dead code
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(quasik.__file__).parent.glob("*.py")}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = {node.id for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    dead = sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in exported | named)
    assert dead == []


def _record_pairs():
    """(name, a, b, field): two records built apart from equal fields."""
    G = symmetric_group(3)
    t = G.index_of("(123)")
    table = character_table(G)
    sub = subgroup_from_generators(G, (t,))
    desc = lambda_desc(G, (t,))
    rep = v_sigma(table.regular_character(), desc)
    half = (Fraction(1, 2),)
    argv = ["quasi", "--group", "symmetric:3", "-n", "2"]
    return [
        ("ConjugacyClass", conjugacy_classes(G)[1], conjugacy_classes(symmetric_group(3))[1],
         "rep"),
        ("Subgroup", sub, subgroup_from_generators(G, (t, t)), "elements"),
        ("CommTuple", make_comm_tuple(G, (t,)), make_comm_tuple(G, [t]), "entries"),
        ("TupleOrbit", commuting_tuples(G, 1)[1], commuting_tuples(G, 1)[1], "orbit_size"),
        ("Homomorphism", inclusion_hom(sub)[0], inclusion_hom(sub)[0], "images"),
        ("ClassFunction", table.irreducible(1), table.irreducible(1), "values"),
        ("RepDecomposition", decompose(table.regular_character()),
         decompose(table.regular_character()), "entries"),
        ("TwistedIrrep", TwistedIrrep(1, half), TwistedIrrep(1, half), "weight"),
        # lambda_desc is memoized on G: a distinct, equal record is a copy
        ("LambdaDesc", desc, LambdaDesc._make(desc), "weights"),
        ("KernelDescription", kernel(rep), kernel(rep), "torus_rank"),
        ("RealBasisEntry", real_basis(desc)[0], real_basis(desc)[0], "indicator"),
        ("QuasiRecord", quasi_coefficients(G, 1).records[1],
         quasi_coefficients(symmetric_group(3), 1).records[1], "rank"),
        ("QuasiTable", quasi_coefficients(G, 1), quasi_coefficients(symmetric_group(3), 1),
         "total_rank"),
        ("SFixedVerdict", s_fixed_predicate(G, make_comm_tuple(G, (t,)), sub),
         s_fixed_predicate(G, make_comm_tuple(G, (t,)), sub), "empty"),
        ("CliConfig", parse_args(argv), parse_args(argv), "n"),
    ]


def test_records_are_immutable_values():
    pairs = _record_pairs()
    assert len({name for name, *_ in pairs}) == 15
    for name, a, b, field in pairs:
        assert a is not b, name
        assert a == b, name
        assert hash(a) == hash(b), name
        assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a), name
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        assert a == b, name

    # a coefficient record holds exactly what its JSON holds
    assert QuasiRecord._fields == (
        "sigma_labels", "orbit_size", "centralizer_order", "rank", "twists"
    )
    assert LambdaDesc._fields == ("group", "sigma", "to_parent", "table", "weights")

    # value records are tuples: index and unpack in field order
    rep_index, members = conjugacy_classes(symmetric_group(3))[1]
    assert (rep_index, len(members)) == (1, 3)


def test_reps_over_separately_built_descriptors_are_one_value():
    G = symmetric_group(3)
    regular = character_table(G).regular_character()
    for label in ("()", "(12)", "(123)"):
        t = G.index_of(label)
        desc = lambda_desc(G, (t,))
        a, b = v_sigma(regular, desc), v_sigma(regular, LambdaDesc._make(desc))
        assert a.desc is not b.desc and a.desc == b.desc, label
        assert a == b and hash(a) == hash(b), label
        assert (a + b).components == LambdaRep(a.desc, a.components * 2).components, label
    one = v_sigma(regular, lambda_desc(G, (G.index_of("(12)"),)))
    other = v_sigma(regular, lambda_desc(G, (G.index_of("(13)"),)))
    assert one != other
    with pytest.raises(QuasiError, match="^representations live over different groups$"):
        one + other  # noqa: B018


def test_twisted_irreps_sort_by_lam_then_weight():
    w = Fraction
    comps = [TwistedIrrep(2, (w(0),)), TwistedIrrep(1, (w(1, 2),)), TwistedIrrep(1, (w(0),))]
    assert sorted(comps) == sorted(comps, key=lambda c: (c.lam, c.weight))
    assert [(c.lam, c.weight) for c in sorted(comps)] == [(1, (0,)), (1, (w(1, 2),)), (2, (0,))]


def test_merged_components_keep_the_twisted_irrep_order():
    # sums and the checked constructor order components by (lam, weight
    # numerators), which is the TwistedIrrep order: the weights of one lam
    # share their denominators, an int weight 0 or 1 included
    G = symmetric_group(3)
    desc = lambda_desc(G, (G.index_of("(123)"),))
    base = v_sigma(character_table(G).regular_character(), desc)
    rep = base + q_twist(base, -1) + q_twist(base, 2) + q_twist(base, -3)
    comps = [c for c, _ in rep.components]
    assert comps == sorted(comps) and len(set(comps)) == len(comps)
    mixed = [(TwistedIrrep(0, (2,)), 1), (TwistedIrrep(0, (Fraction(0),)), 1), (TwistedIrrep(0, (1,)), 2),
             (TwistedIrrep(0, (Fraction(2),)), 1)]
    checked = LambdaRep(desc, mixed)
    assert [(c.weight, m) for c, m in checked.components] == [((0,), 1), ((1,), 2), ((2,), 2)]


def test_class_function_checks_length_and_has_no_scalar_product():
    table = character_table(symmetric_group(3))
    chi = table.irreducible(1)
    with pytest.raises(QuasiError):
        ClassFunction(table, chi.values[:-1])
    with pytest.raises(TypeError):
        2 * chi  # noqa: B018 - class functions scale with .scale(k), not *
    with pytest.raises(TypeError):
        chi * 2  # noqa: B018
    assert (chi + chi) == chi.scale(2)
