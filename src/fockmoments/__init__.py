"""Exact position moments of oscillator number states.

The package computes moments of the position observable in number states
of standard, q-deformed, and general interacting Fock spaces, entirely
over the rationals, by two independent engines; provides the arcsine
limit law with rational sandwich envelopes; and reconstructs the
underlying discrete spectral measures.

Submodules load on first use (PEP 562): ``import fockmoments`` imports
none of them, and the first access to a public name imports the one
submodule that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("cli", "cli_float", "fock", "laws", "moments", "selfcheck", "spectral",
               "svgplot", "words")

# public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "fock": (
            "CapExceeded", "EigensolverFailure", "JacobiSequence", "STANDARD",
            "TruncationTooSmall", "as_fraction", "canonical_scale",
        ),
        "laws": (
            "arcsine_cdf", "arcsine_density", "arcsine_moment", "classical_moment",
            "classical_moment_quadrature", "vacuum_gaussian_moment",
            "validate_moments",
        ),
        "moments": (
            "ConvergenceRow", "convergence_table", "moment_envelope", "moments_by_walk",
        ),
        "spectral": (
            "DiscreteMeasure", "EIGEN_DIM_CAP", "Tridiagonal", "density_spectrum_sup",
            "eigendecompose", "hermite_density_grid", "ks_distance_to_arcsine",
            "lossless_order", "reconstruct_state_measure", "truncated_position_matrix",
        ),
        "words": ("WORD_ORDER_CAP", "moment_by_words", "word_matrix_element"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
