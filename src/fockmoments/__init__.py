"""Exact position moments of oscillator number states.

The package computes moments of the position observable in number states
of standard, q-deformed, and general interacting Fock spaces, entirely
over the rationals, by two independent engines; provides the arcsine
limit law with rational sandwich envelopes; and reconstructs the
underlying discrete spectral measures.
"""

from .fock import (
    CapExceeded,
    JacobiSequence,
    LadderWord,
    Letter,
    STANDARD,
    WORD_ORDER_CAP,
    as_fraction,
    canonical_scale,
    enumerate_balanced_words,
    q_integer,
)
from .laws import (
    arcsine_cdf,
    arcsine_density,
    arcsine_moment,
    classical_moment,
    classical_moment_quadrature,
    vacuum_gaussian_moment,
    validate_moments,
)
from .moments import (
    ConvergenceRow,
    MomentEnvelope,
    MomentSequence,
    convergence_csv,
    convergence_json,
    convergence_table,
    moment_by_tridiagonal,
    moment_by_words,
    moment_envelope,
    moment_sequence,
    moments_by_walk,
    walk_returns,
    word_matrix_element,
)
from .spectral import (
    DiscreteMeasure,
    EIGEN_DIM_CAP,
    EigensolverFailure,
    Tridiagonal,
    TridiagonalSpectrum,
    TruncationTooSmall,
    density_spectrum_sup,
    eigendecompose,
    hermite_density_grid,
    hermite_state_density,
    ks_distance_to_arcsine,
    lossless_order,
    reconstruct_state_measure,
    truncated_position_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ConvergenceRow",
    "DiscreteMeasure",
    "EIGEN_DIM_CAP",
    "EigensolverFailure",
    "JacobiSequence",
    "LadderWord",
    "Letter",
    "MomentEnvelope",
    "MomentSequence",
    "STANDARD",
    "Tridiagonal",
    "TridiagonalSpectrum",
    "TruncationTooSmall",
    "WORD_ORDER_CAP",
    "arcsine_cdf",
    "arcsine_density",
    "arcsine_moment",
    "as_fraction",
    "canonical_scale",
    "classical_moment",
    "classical_moment_quadrature",
    "convergence_csv",
    "convergence_json",
    "convergence_table",
    "density_spectrum_sup",
    "eigendecompose",
    "enumerate_balanced_words",
    "hermite_density_grid",
    "hermite_state_density",
    "ks_distance_to_arcsine",
    "lossless_order",
    "moment_by_tridiagonal",
    "moment_by_words",
    "moment_envelope",
    "moment_sequence",
    "moments_by_walk",
    "q_integer",
    "reconstruct_state_measure",
    "truncated_position_matrix",
    "vacuum_gaussian_moment",
    "validate_moments",
    "walk_returns",
    "word_matrix_element",
]
