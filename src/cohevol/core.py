"""Shared domain types, parameter validation, and the error taxonomy.

Everything here is dimensionless and immutable after construction, so values
can be shared freely across threads and cached without copying.
"""

from __future__ import annotations

import math
from functools import partial

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


class FloatRangeError(DomainError, OverflowError):
    """A closed-form value or input that overflows float64 (not a collapse)."""


class DimensionError(DomainError):
    """A basis size outside the range the truncated-basis oracle can build."""


class TailMassError(RuntimeError):
    """Coherent-state tail mass above tolerance at the allowed basis size."""


class ConvergenceError(RuntimeError):
    """Truncated-basis result did not stabilize under dimension doubling."""


class StencilError(RuntimeError):
    """A finite-difference stencil point violates an evaluation guard."""


class ConfigError(ValueError):
    """Malformed or unknown entry in a run-configuration file."""


# ---------------------------------------------------------------------------
# Frozen records
# ---------------------------------------------------------------------------

class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields`` and holds them in ``__slots__``.
    The base constructor takes each field by keyword, with ``_defaults``
    filling the ones left out; a positional argument, an unknown name or a
    missing field is a ``TypeError`` that names the class.  A record that
    checks or converts its values defines its own ``__init__``, which passes
    them to the base one.  After that, assignment is refused.  Equality,
    hash and repr go over the fields, and :meth:`replace` builds the changed
    copy through ``__init__``, so the copy is checked as a new record is.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **values) -> None:
        name = type(self).__name__
        if args:
            raise TypeError(f"{name}() takes its fields by keyword only, got {len(args)} positional")
        unknown = values.keys() - self._fields
        if unknown:
            raise TypeError(f"{name}() got an unexpected keyword argument {min(unknown)!r}")
        values = {**self._defaults, **values}
        for field in self._fields:
            if field not in values:
                raise TypeError(f"{name}() missing keyword argument {field!r}")
            object.__setattr__(self, field, values[field])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes) -> Record:
        """A new record with ``changes`` applied, checked by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which assignment cannot bypass
        return partial(type(self), **dict(zip(self._fields, self._values()))), ()


# ---------------------------------------------------------------------------
# System parameters
# ---------------------------------------------------------------------------

class SystemParams(Record):
    """Oscillator frequency, quartic coupling and effective Planck parameter.

    All three are dimensionless.  ``hbar`` must be positive; ``mu = 0`` is the
    quadratic limit and is allowed everywhere (collapse enumeration is then
    empty).
    """

    __slots__ = _fields = ("omega", "mu", "hbar")

    def __init__(self, omega: float, mu: float, hbar: float) -> None:
        values = {}
        for name, value in zip(self._fields, (omega, mu, hbar)):
            value = values[name] = float(value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        super().__init__(**values)
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

class XPower(Record):
    """Observable x^n; the solved hyperbolic-model case (n >= 1)."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"XPower needs integer n >= 1, got {n!r}")
        super().__init__(n=n)


class Monomial(Record):
    """Normal-ordered observable adag^m a^q; the solved elliptic-model case."""

    __slots__ = _fields = ("m", "q")

    def __init__(self, m: int, q: int) -> None:
        for name, v in (("m", m), ("q", q)):
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"Monomial needs integer {name} >= 0, got {v!r}")
        super().__init__(m=m, q=q)


ObservableSpec = XPower | Monomial


# ---------------------------------------------------------------------------
# Polynomial symbols
# ---------------------------------------------------------------------------

class WickPolynomial(Record):
    """Sparse coefficient table of a 1-D polynomial phase-space symbol.

    Keys are ``(ell, s)`` exponent pairs for ``conj(alpha)^ell * alpha^s``.
    The table must satisfy ``coeffs[ell, s] == conj(coeffs[s, ell])`` so the
    normal-ordered quantization is a symmetric operator, and the degree must
    not exceed ``DEFAULT_MAX_DEGREE``.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], complex]) -> None:
        table: dict[tuple[int, int], complex] = {}
        for key, value in dict(coeffs).items():
            ell, s = key
            if not (isinstance(ell, int) and isinstance(s, int)) or ell < 0 or s < 0:
                raise DomainError(f"exponents must be nonnegative integers, got {key!r}")
            c = complex(value)
            if c != 0:
                table[(ell, s)] = c
        super().__init__(coeffs=table)
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
