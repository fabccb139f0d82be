"""Exact coefficient-table engine for q-twisted equivariant K-theory of
finite groups: commuting-tuple orbits, character tables over cyclotomic
fields, twisted representation bases, faithfulness solving, and
machine-readable coefficient tables."""

from .cyclotomic import Cyc
from .errors import (
    GroupInputError,
    HomomorphismError,
    NonCommutingTupleError,
    NonScalarError,
    NotRealizableError,
    QuasiError,
    SelectorError,
    SizeLimitError,
    VirtualCharacterError,
)
from .groups import (
    CommTuple,
    ConjugacyClass,
    GroupTable,
    Homomorphism,
    Limits,
    Subgroup,
    TupleOrbit,
    build_group,
    centralizer,
    commuting_tuples,
    conjugacy_classes,
    contains_conjugate,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_generators,
    hom_from_images,
    inclusion_hom,
    load_group_file,
    make_comm_tuple,
    quaternion_group,
    subgroup_from_generators,
    subgroup_table,
    subgroups,
    symmetric_group,
    alternating_group,
    trivial_subgroup,
)
from .chartable import (
    CharacterTable,
    ClassFunction,
    RepDecomposition,
    central_scalar,
    character_table,
    class_function_from_element_values,
    decompose,
    fs_indicator,
    inner_product,
    restrict_character,
)
from .lambdarep import (
    KernelDescription,
    LambdaDesc,
    LambdaRep,
    RealBasisEntry,
    TwistedIrrep,
    dual,
    external_sum,
    fixed_part_rep,
    fixed_space_dimension,
    is_faithful,
    kernel,
    lambda_basis,
    lambda_desc,
    q_twist,
    real_basis,
    real_v_sigma,
    restrict_lambda,
    v_sigma,
)
from .quasicalc import (
    QuasiRecord,
    QuasiTable,
    SFixedVerdict,
    parse_quasi,
    quasi_coefficients,
    render_quasi_text,
    render_tate_report,
    s_fixed_predicate,
    serialize_quasi,
    tate_rank_report,
)
from .snf import hermite_form

__version__ = "0.1.0"
