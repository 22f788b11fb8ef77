"""Finite poset topology toolkit for symplectic lattice complexes.

Build posets of unimodular submodules, isotropic sequences, orthogonal
decompositions, split-unimodular sequences, partial bases, and labeled
trees; compute exact integer simplicial homology of their order
complexes; and run the named verification suites over them.
"""

__version__ = "0.1.0"

from .rings import IntegerRing, PrimeField, ZZ, ring_from_name
from .symplectic import RadicalQuotient, Submodule, SymplecticModule
from .posets import (FinitePoset, PosetMap, barycentric_subdivision,
                     check_isomorphism, join, mapping_cone, mapping_cylinder,
                     thick_join)
from .homology import (HomologyProfile, ConnectivityVerdict,
                       cohen_macaulay_check, homologically_connected,
                       homology_spherical, map_connectivity,
                       reduced_homology)
from .builders import (build_D, build_HU, build_I, build_O, build_U,
                       flag_to_decomposition, hu_decomposition_map,
                       partition_sequences_poset, partitions_poset)
from .trees import UTree, build_T, build_TD, contract, tree_forget_map
from .nerve import (CoverFamily, NerveWitness, build_Z, fiber_transfer_check,
                    check_nerve_hypotheses, check_nerve_witness,
                    isotropic_perp_cover, validate_cover)
from .io import export_poset, poset_from_structured
from .suites import (SuiteConfig, VerificationReport, exit_status, run_suite,
                     SUITE_NAMES)

__all__ = [
    "IntegerRing", "PrimeField", "ZZ", "ring_from_name",
    "RadicalQuotient", "Submodule", "SymplecticModule",
    "FinitePoset", "PosetMap", "barycentric_subdivision", "check_isomorphism",
    "join", "mapping_cone", "mapping_cylinder", "thick_join",
    "HomologyProfile", "ConnectivityVerdict", "cohen_macaulay_check",
    "homologically_connected", "homology_spherical", "map_connectivity",
    "reduced_homology",
    "build_D", "build_HU", "build_I", "build_O", "build_U",
    "flag_to_decomposition", "hu_decomposition_map",
    "partition_sequences_poset", "partitions_poset",
    "UTree", "build_T", "build_TD", "contract", "tree_forget_map",
    "CoverFamily", "NerveWitness", "build_Z", "fiber_transfer_check",
    "check_nerve_hypotheses", "check_nerve_witness", "isotropic_perp_cover",
    "validate_cover",
    "export_poset", "poset_from_structured",
    "SuiteConfig", "VerificationReport", "exit_status", "run_suite",
    "SUITE_NAMES",
]
