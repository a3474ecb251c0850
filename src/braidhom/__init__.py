"""Exact-arithmetic homology of braid groups and quantum shuffle algebras.

Submodules compute, over Q or a prime field: braid group homology with
coefficients in tensor powers of a braided vector space (cellular complexes
on ordered partitions), Ext ranks of quantum shuffle algebras via bar
complexes, Nichols algebra dimensions and skew derivations, Hurwitz orbit
tables and monodromy stratifications, Koszul-type complexes with
generator-count diagnostics, and the index arithmetic feeding point-count
upper bounds.  `cli` wires everything to a deterministic command line.
"""

from .braided import (
    BraidedVectorSpace,
    Cocycle,
    ConjClassSet,
    PermGroup,
    Rack,
    braid_word_action,
    braided_space,
    check_braided,
    dual_space,
    rank_one_space,
    sign_twist,
)
from .exactla import CoefficientField, GF, GF2, QQ, RankTable, SparseMatrix, rank
from .fnf import braid_homology, fnf_complex
from .hurwitz import monodromy_labels, nielsen_components, subgroup_lattice
from .koszul import generator_counts, koszul_complex, koszul_homology, verify_koszul_identities
from .malle import index, malle_a, point_count_bound
from .nichols import NicholsData, hopf_pairing, nichols_dims, skew_derivation
from .qsa import bar_complex, components_ring, ext_table, verify_main_cor
from .shuffle import matsumoto_lift, quantum_binomial, quantum_symmetrizer, shuffle_product, shuffles, signed_shuffle_count

__all__ = [
    "BraidedVectorSpace",
    "Cocycle",
    "CoefficientField",
    "ConjClassSet",
    "GF",
    "GF2",
    "NicholsData",
    "PermGroup",
    "QQ",
    "Rack",
    "RankTable",
    "SparseMatrix",
    "bar_complex",
    "braid_homology",
    "braid_word_action",
    "braided_space",
    "check_braided",
    "components_ring",
    "dual_space",
    "ext_table",
    "fnf_complex",
    "generator_counts",
    "hopf_pairing",
    "index",
    "koszul_complex",
    "koszul_homology",
    "malle_a",
    "matsumoto_lift",
    "monodromy_labels",
    "nichols_dims",
    "nielsen_components",
    "point_count_bound",
    "quantum_binomial",
    "quantum_symmetrizer",
    "rank",
    "rank_one_space",
    "shuffle_product",
    "shuffles",
    "sign_twist",
    "signed_shuffle_count",
    "skew_derivation",
    "subgroup_lattice",
    "verify_koszul_identities",
    "verify_main_cor",
]

__version__ = "0.1.0"
