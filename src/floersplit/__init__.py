"""Exact verification engine for splitting identities in mod-8 graded
Floer (co)homology with special boundary structure.

Everything is exact rational arithmetic; every check is an equality.
"""

from .qlinalg import (
    Matrix,
    Subspace,
    QuotientSpace,
    rref,
    solve,
    kernel_basis,
    image_basis,
    intersect,
    quotient,
    restrict,
    induced_on_quotient,
    trace,
)
from .graded import (
    GradedSpace,
    GradedMap,
    CochainComplex,
    CohomologyResult,
    cohomology,
    induced_map,
    lefschetz,
    euler,
    regrade,
)
from .froyshov import (
    Case,
    ChainSpecial,
    SpecialPair,
    ReducedResult,
    induce_special,
    z_subspaces,
    b_subspaces,
    reduced,
    froyshov_h,
)
from .cobordism import (
    RelationReport,
    SplittingVerdict,
    validate_relations,
    reduced_induced,
    verify_splitting,
    trace_towers,
    trace_refinement,
)
from .instance import Instance, HOMOLOGY, COHOMOLOGY, LEVEL_CHAIN, LEVEL_COHOMOLOGY
from .gen import GenConfig, gen_instance, gen_chain_instance
from .serialize import load, export, dumps, document_to_instance, instance_to_document
from . import catalog, errors

__version__ = "0.1.0"
