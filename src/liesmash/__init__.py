"""liesmash: iterated analytic smash-product decompositions, exactly verified.

The pipeline starts from a solvable complex Lie algebra given by exact
structure constants, computes its nilpotent and exponential radicals and the
iterated semidirect chain through an intermediate ideal, and realizes the
corresponding smash-product factorization on exact truncated Hopf models.
Weight descriptors, series norms and Cayley-graph word metrics provide the
sampled and exact checks for the analytic side of the construction.
"""

from .exactnum import GaussianRational, gq
from .lie import (
    DecompositionChain,
    InputError,
    LieAlgebra,
    PreconditionError,
    Subspace,
    VerificationError,
    adjoint_action_matrices,
    parse_factorization,
    semidirect_chain,
)
from .hopf import (
    ModuleAlgebraAction,
    SmashAlgebra,
    TruncatedHopf,
    derivation_to_action,
    iterated_smash,
    make_group_like_hopf,
    make_primitive_series_hopf,
    tau,
    trivial_action,
    verify_hopf_axioms,
)
from .weights import (
    Const,
    ExpPower,
    ExpSum,
    MaxPower,
    Poly,
    Power,
    Product,
    Restriction,
    SamplerConfig,
    SeriesNorm,
    Weight,
    WordWeight,
    chain_weight,
    decompose_check,
    equivalent,
    majorizes,
    norm_submultiplicativity_check,
    parse_weight,
    series_norm,
)
from .cayley import (
    BS12,
    CayleyGroup,
    Heis3Z,
    SemidirectZkZ,
    WordWeightTable,
    ZK,
    delta_smash_check,
    distortion_fit,
    weighted_l1_submult_check,
    word_table,
    word_weight,
)
from .report import DecompositionReport, decompose, decompose_algebra

__version__ = "0.1.0"
