"""Coherent-state average evolution for degree-4 oscillator models.

Closed-form quantum and classical averages for a Kerr-type oscillator and for
a quartic squeezing model with a hyperbolic fixed point, an independent
truncated-basis simulator that validates every formula, a finite-difference
residual checker for the phase-space evolution equations, and a sweep/export
command line front end.

The truncated-basis simulator (``cohevol.fock``) is the only part that needs
numpy and scipy.  Its seven names here (``_FOCK_NAMES``) are imported on first
use, so importing the package and running the closed-form commands loads
neither.
"""

import importlib

from .core import (
    CollapseProximity,
    ConfigError,
    ConvergenceError,
    DegreeError,
    DimensionError,
    DomainError,
    Monomial,
    ObservableSpec,
    RegimeMismatch,
    StencilError,
    SystemParams,
    TailMassError,
    WickPolynomial,
    XPower,
    elliptic_symbol,
    hyperbolic_classical_symbol,
    hyperbolic_symbol,
    lyapunov_exponents,
    make_hyperbolic_params,
)
from .closedform import (
    BranchedValue,
    DispersionRegime,
    branch_factor,
    check_collapse_guard,
    classify_dispersion_regime,
    collapse_spacing,
    collapse_times,
    dispersion_approx,
    dispersion_exact,
    elliptic_classical_average,
    elliptic_quantum_average,
    gaussian_moment_ratios,
    hyperbolic_classical_xn,
    hyperbolic_xn_average,
    hyperbolic_xn_log10_magnitude,
    hyperbolic_xn_paths,
    scaling_transform_check,
)
from .residual import (
    EvolutionOperator,
    OperatorTerm,
    apply_operator,
    central_weights,
    generate_operator,
    liouville_operator,
    residual,
    wirtinger_derivative,
)
from .harness import (
    EhrenfestFit,
    RunConfig,
    cmd_collapse_scan,
    cmd_compare,
    cmd_dispersion_regimes,
    cmd_ehrenfest,
    cmd_evolve,
    load_config,
    parse_config,
    render,
)

__version__ = "0.1.0"

_FOCK_NAMES = (
    "CoherentVector",
    "FockRepresentation",
    "build_hamiltonian",
    "coherent_vector",
    "monomial_expectation",
    "oracle_average",
    "propagate_expectation",
)


def __getattr__(name: str):
    if name in _FOCK_NAMES:
        return getattr(importlib.import_module(".fock", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FOCK_NAMES})
