"""Rate functionals of finite-state Markov chains, cross-validated three ways.

The package computes the occupation-measure and occupation-flux rate
functionals of an ergodic chain, the composite rate of windowed block
statistics built from endpoint-conditioned (bridge) laws, and the
inf-convolution and contraction identities tying them together, with
Monte Carlo decay fits as an end-to-end check.
"""

from .chain import (
    ChainError,
    GeneratorMatrix,
    NegativeOffDiagonal,
    NonZeroRowSum,
    ProbVector,
    Reducible,
    TransitionKernel,
    dtmc_invariant,
    invariant_measure,
    is_irreducible,
    transition_at,
    validate_generator,
)
from .ratefun import (
    FluxField,
    NegativeInput,
    NonConvergence,
    PairMeasure,
    VariationalResult,
    bfg_rate,
    cond_rate,
    divergence,
    dvg_objective,
    dvg_rate,
    pair_empirical_rate,
    rel_entropy,
    theorem_rate,
)
from .conjugate import (
    ConjugateEstimate,
    DiscreteLaw,
    EmpiricalLaw,
    ZeroRate,
    conjugate_at,
    flux_mgf_bound,
    load_samples,
    save_samples,
)
from .simulate import batch_occupations
from .bridge import (
    BridgeSpec,
    DegenerateDenominator,
    bridge_generator,
    bridge_transition_row,
    conditional_samples,
)
from .estimate import (
    BallResult,
    ConjugateOracle,
    ContractionResult,
    DecayFit,
    InfConvResult,
    InsufficientHits,
    ball_rate,
    build_oracle,
    contract_dvg_from_bfg,
    infconv_bfg,
    infconv_dvg,
    mc_decay_rate,
)

__version__ = "0.1.0"
