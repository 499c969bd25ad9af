"""Shared domain types, parameter validation, and the error taxonomy.

Everything here is dimensionless and immutable after construction, so values
can be shared freely across threads and cached without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

DEFAULT_MAX_DEGREE = 8
# Largest basis the truncated-basis oracle builds (see ``cohevol.fock``).  It
# lives here so that a run config can default to it without importing numpy.
DEFAULT_DIM_CAP = 8192


# ---------------------------------------------------------------------------
# Error taxonomy (shared by all modules)
# ---------------------------------------------------------------------------

class DomainError(ValueError):
    """Inputs lie outside the validity region of an operation."""


class DegreeError(ValueError):
    """Polynomial symbol degree exceeds the configured cap."""


class CollapseProximity(ValueError):
    """Evaluation time falls inside the guard band around a collapse time."""


class RegimeMismatch(ValueError):
    """Inputs violate the inequality set of the requested dispersion regime."""


class DimensionError(ValueError):
    """Requested basis size cannot represent the operator couplings."""


class TailMassError(RuntimeError):
    """Coherent-state tail mass above tolerance at the allowed basis size."""


class ConvergenceError(RuntimeError):
    """Truncated-basis result did not stabilize under dimension doubling."""


class StencilError(RuntimeError):
    """A finite-difference stencil point violates an evaluation guard."""


class ConfigError(ValueError):
    """Malformed or unknown entry in a run-configuration file."""


# ---------------------------------------------------------------------------
# System parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """Oscillator frequency, quartic coupling and effective Planck parameter.

    All three are dimensionless.  ``hbar`` must be positive; ``mu = 0`` is the
    quadratic limit and is allowed everywhere (collapse enumeration is then
    empty).
    """

    omega: float
    mu: float
    hbar: float

    def __post_init__(self) -> None:
        for name in ("omega", "mu", "hbar"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.hbar <= 0.0:
            raise DomainError(f"hbar must be > 0, got {self.hbar!r}")

    @property
    def hyperbolic_capable(self) -> bool:
        """True when the hyperbolic-model growth rates are real."""
        return abs(self.mu) * self.hbar < abs(self.omega)

    def require_hyperbolic(self) -> None:
        if not self.hyperbolic_capable:
            raise DomainError(
                "hyperbolic regime needs |mu|*hbar < |omega|; got "
                f"|{self.mu}|*{self.hbar} >= |{self.omega}|"
            )


def make_hyperbolic_params(omega: float, mu: float, hbar: float) -> SystemParams:
    """Validated parameters for the hyperbolic model.

    Raises
    ------
    DomainError
        If ``hbar <= 0`` or ``|mu|*hbar >= |omega|`` (growth rates would not
        be real).
    """
    params = SystemParams(omega, mu, hbar)
    params.require_hyperbolic()
    return params


def lyapunov_exponents(params: SystemParams) -> tuple[float, float]:
    """Growth/contraction rates ``(+2*sqrt(omega^2 - mu^2 hbar^2), -...)``."""
    params.require_hyperbolic()
    rate = 2.0 * math.sqrt(params.omega**2 - (params.mu * params.hbar) ** 2)
    return (rate, -rate)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XPower:
    """Observable x^n; the solved hyperbolic-model case (n >= 1)."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"XPower needs integer n >= 1, got {self.n!r}")


@dataclass(frozen=True)
class Monomial:
    """Normal-ordered observable adag^m a^q; the solved elliptic-model case."""

    m: int
    q: int

    def __post_init__(self) -> None:
        for name in ("m", "q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"Monomial needs integer {name} >= 0, got {v!r}")


ObservableSpec = Union[XPower, Monomial]


# ---------------------------------------------------------------------------
# Polynomial symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WickPolynomial:
    """Sparse coefficient table of a 1-D polynomial phase-space symbol.

    Keys are ``(ell, s)`` exponent pairs for ``conj(alpha)^ell * alpha^s``.
    The table must satisfy ``coeffs[ell, s] == conj(coeffs[s, ell])`` so the
    normal-ordered quantization is a symmetric operator, and the degree must
    not exceed ``DEFAULT_MAX_DEGREE``.
    """

    coeffs: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        table: dict[tuple[int, int], complex] = {}
        for key, value in dict(self.coeffs).items():
            ell, s = key
            if not (isinstance(ell, int) and isinstance(s, int)) or ell < 0 or s < 0:
                raise DomainError(f"exponents must be nonnegative integers, got {key!r}")
            c = complex(value)
            if c != 0:
                table[(ell, s)] = c
        object.__setattr__(self, "coeffs", table)
        if self.degree > DEFAULT_MAX_DEGREE:
            raise DegreeError(
                f"symbol degree {self.degree} exceeds cap {DEFAULT_MAX_DEGREE}"
            )
        self.validate_hermitian()

    @property
    def degree(self) -> int:
        return max((ell + s for ell, s in self.coeffs), default=0)

    def validate_hermitian(self) -> None:
        """Check the conjugate-transpose symmetry of the table; idempotent."""
        for (ell, s), c in self.coeffs.items():
            mirror = self.coeffs.get((s, ell))
            if mirror is None or mirror != c.conjugate():
                raise DomainError(
                    f"coefficient table is not Hermitian-symmetric at {(ell, s)}: "
                    f"{c!r} vs conj({mirror!r})"
                )

    def __add__(self, other: "WickPolynomial") -> "WickPolynomial":
        merged = dict(self.coeffs)
        for key, c in other.coeffs.items():
            merged[key] = merged.get(key, 0.0) + c
        return WickPolynomial(merged)


def elliptic_symbol(params: SystemParams) -> WickPolynomial:
    """Symbol ``omega |alpha|^2 + mu |alpha|^4`` of the elliptic model."""
    return WickPolynomial({(1, 1): params.omega, (2, 2): params.mu})


def hyperbolic_symbol(params: SystemParams) -> WickPolynomial:
    """Full symbol of the hyperbolic model, including its hbar corrections.

    ``i w (a*^2 - a^2) + mu (a*^2 - a^2)^2 - 4 mu hbar a* a - 2 mu hbar^2``
    expanded into the sparse table.
    """
    omega, mu, hbar = params.omega, params.mu, params.hbar
    return WickPolynomial(
        {
            (2, 0): 1j * omega,
            (0, 2): -1j * omega,
            (4, 0): mu,
            (2, 2): -2.0 * mu,
            (0, 4): mu,
            (1, 1): -4.0 * mu * hbar,
            (0, 0): -2.0 * mu * hbar**2,
        }
    )


def hyperbolic_classical_symbol(params: SystemParams) -> WickPolynomial:
    """Hyperbolic symbol with the hbar-correction terms dropped."""
    omega, mu = params.omega, params.mu
    return WickPolynomial(
        {
            (2, 0): 1j * omega,
            (0, 2): -1j * omega,
            (4, 0): mu,
            (2, 2): -2.0 * mu,
            (0, 4): mu,
        }
    )
