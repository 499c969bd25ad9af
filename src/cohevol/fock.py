"""Brute-force truncated-basis ground truth for the quartic models.

Ladder operators carry the scaled convention ``a|k> = sqrt(hbar k)|k-1>``,
``adag|k> = sqrt(hbar (k+1))|k+1>``, so ``[a, adag] = hbar`` and the coherent
state is the eigenvector ``a|alpha> = alpha |alpha>``.

Propagation is exact in time (spectral, no integrator error) and uses only
the definition of each Hamiltonian on the truncated basis, never a closed
form:

- The elliptic ``H = w adag a + mu adag^2 a^2`` is diagonal in the Fock
  basis, ``E_k = w hbar k + mu hbar^2 k (k - 1)``; propagation is an
  elementwise phase.
- The hyperbolic ``H = i w G + mu G^2`` with ``G = adag^2 - a^2`` is a
  polynomial in one generator.  The diagonal gauge ``U = diag(e^{i pi k/4})``
  gives ``U^* G U = -i S`` with the real ``S = adag^2 + a^2``, so the
  truncated ``H = U (w S - mu S^2) U^*`` exactly (the square is of the
  truncated ``S``, as in the literal build).  ``S`` only couples ``k`` to
  ``k +- 2``: it splits into an even and an odd parity sector, each a real
  symmetric tridiagonal matrix with zero diagonal and off-diagonal
  ``hbar sqrt((k+1)(k+2))``.  Each sector is diagonalised once per
  representation with ``scipy.linalg.eigh_tridiagonal``, whose default driver
  for the full spectrum is LAPACK ``stevd`` (divide and conquer) in scipy
  1.17.1; the energies are ``w s - mu s^2`` for the eigenvalues ``s`` of ``S``.  Inside a sector
  the gauge reduces to ``i^j`` (a constant sector phase cancels), so it adds
  no rounding either.  scipy is imported at the first hyperbolic eigensolve,
  so an elliptic run never loads it.

Observables ``x^n`` and ``adag^m a^q`` are applied by banded shifts with the
ladder elements ``sqrt(hbar k)``; no dense operator is formed.

What does not depend on ``t`` is built once and kept on the cached
representation: its eigensystem, ladder and phase rates ``-1j E``, and, for
each recent ``alpha``, the coherent vector with its tail-test verdict, its
norm ``|psi_0|`` and its coefficients ``V^T g^* psi_0`` in each sector's
eigenbasis (the last one found again by identity).  Each time point then
computes only the phases ``exp(-1j E * (t / hbar))``, their product with the
coefficients (hyperbolic: ``g V (phases * coefficients)``), the unitarity
check against ``|psi_0|`` and the observable.

numpy loads with this module, and no other module of the package imports
numpy or scipy.  The package imports this module when one of its oracle
names is first used, and the harness at its first oracle call, so the
closed-form commands start without either.

The dense literal matrices, assembled from ladder matrices, live in the
tests as the reference this module is checked against.  Basis sizes above
``DEFAULT_DIM_CAP`` are refused: the two hyperbolic sectors' eigenvectors
take ``4 dim^2`` bytes (256 MiB at the cap).
"""

from __future__ import annotations

import cmath
import math
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_DIM_CAP,
    ConvergenceError,
    DimensionError,
    DomainError,
    SystemParams,
    TailMassError,
)

DEFAULT_TAIL_TOL = 1e-14
DEFAULT_START_DIM = 64
_UNITARITY_TOL = 1e-10
_I_POWERS = np.array([1, 1j, -1, -1j])
_TAIL_BLOCK = 64
_STATES_PER_REPRESENTATION = 4


class Sector(NamedTuple):
    """One invariant block of the basis, ``H[index, index] = g V diag(E) V^T g^*``.

    ``vectors`` (real, orthonormal columns) and ``gauge`` (unit phases ``g``)
    are ``None`` for a block on which ``H`` is already diagonal.
    """

    index: slice
    energies: np.ndarray
    vectors: "np.ndarray | None"
    gauge: "np.ndarray | None"


@dataclass
class FockRepresentation:
    """One model at one basis size.

    The spectral data (:meth:`eigensystem`) and the ladder are computed lazily
    exactly once.  ``_states`` holds the time-invariant data of the last few
    initial states evolved on this basis, ``_last`` the latest of them.
    """

    kind: str
    params: SystemParams
    dim: int
    _eig: "tuple[Sector, ...] | None" = field(default=None, repr=False)
    _states: "dict[bytes, _Initial | None]" = field(default_factory=dict, init=False, repr=False)
    _last: "_Initial | None" = field(default=None, init=False, repr=False)
    _rates: "tuple | None" = field(default=None, init=False, repr=False)

    @property
    def hbar(self) -> float:
        return self.params.hbar

    @cached_property
    def _ladder(self) -> np.ndarray:
        """Ladder elements ``sqrt(hbar k)`` for ``k = 1 .. dim-1``."""
        return _frozen(np.sqrt(self.hbar * np.arange(1, self.dim)))

    def eigensystem(self) -> tuple[Sector, ...]:
        """Spectral data of ``H``, one :class:`Sector` per invariant block."""
        if self._eig is None:
            self._eig = (
                _elliptic_sectors(self.params, self.dim)
                if self.kind == "elliptic"
                else _hyperbolic_sectors(self.params, self.dim)
            )
        return self._eig


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _elliptic_sectors(params: SystemParams, dim: int) -> tuple[Sector, ...]:
    k = np.arange(dim, dtype=float)
    energies = params.omega * params.hbar * k + params.mu * params.hbar**2 * k * (k - 1.0)
    return (Sector(slice(None), _frozen(energies), None, None),)


def _hyperbolic_sectors(params: SystemParams, dim: int) -> tuple[Sector, ...]:
    import scipy.linalg  # here, not at module level: elliptic runs never need it

    sectors = []
    for parity in (0, 1):
        k = np.arange(parity, dim - 2, 2, dtype=float)
        offdiag = params.hbar * np.sqrt((k + 1.0) * (k + 2.0))
        s, vectors = scipy.linalg.eigh_tridiagonal(
            np.zeros(len(k) + 1), offdiag, check_finite=False
        )
        energies = params.omega * s - params.mu * s * s
        gauge = _I_POWERS[np.arange(len(k) + 1) % 4]
        sectors.append(
            Sector(slice(parity, None, 2), _frozen(energies), _frozen(vectors), _frozen(gauge))
        )
    return tuple(sectors)


@lru_cache(maxsize=8)
def _cached_representation(
    kind: str, omega: float, mu: float, hbar: float, dim: int
) -> FockRepresentation:
    if kind not in ("elliptic", "hyperbolic"):
        raise DomainError(f"unknown Hamiltonian kind {kind!r}")
    return FockRepresentation(kind=kind, params=SystemParams(omega, mu, hbar), dim=dim)


def build_hamiltonian(kind: str, params: SystemParams, dim: int) -> FockRepresentation:
    """Representation of the chosen model on a ``dim``-state basis.

    Cached per ``(kind, params, dim)``, so the spectral data of one basis size
    is reused by every later time point.

    Raises
    ------
    DimensionError
        If ``dim < 5`` (degree-4 couplings do not fit) or
        ``dim > DEFAULT_DIM_CAP`` (the spectral data would not fit in memory).
    """
    if dim < 5:
        raise DimensionError(f"degree-4 couplings need dim >= 5, got {dim}")
    if dim > DEFAULT_DIM_CAP:
        raise DimensionError(f"basis size {dim} exceeds the cap {DEFAULT_DIM_CAP}")
    return _cached_representation(kind, params.omega, params.mu, params.hbar, int(dim))


@dataclass(frozen=True)
class CoherentVector:
    """Truncated coherent-state coefficients and the mass left beyond them."""

    dim: int
    hbar: float
    alpha: complex
    coeffs: np.ndarray
    tail_mass: float


def _poisson_tail(nbar: float, dim: int, stop_above: float) -> float:
    """``sum_{k >= dim} p_k`` for the Poisson weights ``p_k = e^-nbar nbar^k / k!``.

    Carried in log scale from ``log p_{dim-1}`` by ``p_k = p_{k-1} nbar / k``,
    so terms below the float range on the way up to the peak at ``k ~ nbar``
    do not zero the sum.  Summed in blocks until the terms are negligible
    (past ``2 nbar`` the rest of the series is bounded by its last term), or
    as soon as the partial sum exceeds ``stop_above``.
    """
    if nbar == 0.0:
        return 0.0
    log_nbar = math.log(nbar)
    log_term = -nbar + (dim - 1) * log_nbar - math.lgamma(dim)
    tail, k = 0.0, dim
    while True:
        logs = log_term + np.cumsum(log_nbar - np.log(np.arange(k, k + _TAIL_BLOCK)))
        tail += float(np.exp(logs).sum())
        log_term = float(logs[-1])
        k += _TAIL_BLOCK
        if tail > stop_above or (k > 2.0 * nbar and math.exp(log_term) <= 1e-17 * tail):
            return tail


def coherent_vector(
    alpha: complex,
    hbar: float,
    dim: int,
    tail_tol: "float | None" = None,
) -> CoherentVector:
    """Coefficients ``exp(-|a|^2/2hbar) a^k / sqrt(hbar^k k!)`` for k < dim.

    Built by the stable forward recurrence ``c_{k+1} = c_k a / sqrt(hbar(k+1))``.
    The tail mass is the sum of the omitted Poisson terms ``|c_k|^2, k >= dim``
    (see :func:`_poisson_tail`), so it has no rounding floor.  A Gaussian
    weight ``c_0`` below the normal float range cannot seed the recurrence
    accurately and counts as a tail of 1.  With ``tail_tol`` given, raises
    :class:`TailMassError` when the tail exceeds it (the caller's ``dim`` acts
    as the growth cap).
    """
    if dim < 1:
        raise DimensionError("coherent vector needs dim >= 1")
    a = complex(alpha)
    # a NaN or infinite nbar would never end the tail sum
    if not (cmath.isfinite(a) and math.isfinite(hbar) and hbar > 0.0):
        raise DomainError(f"coherent state needs finite alpha and hbar > 0, got {a!r}, {hbar!r}")
    nbar = abs(a) ** 2 / hbar
    steps = np.empty(dim, dtype=complex)
    c0 = math.exp(-nbar / 2.0)
    steps[0] = c0
    steps[1:] = a / np.sqrt(hbar * np.arange(1, dim))
    coeffs = np.cumprod(steps)
    if c0 < sys.float_info.min:
        tail = 1.0  # zero or subnormal: nothing is representable to full precision
    else:
        stop_above = math.inf if tail_tol is None else tail_tol
        tail = _poisson_tail(nbar, dim, stop_above)
    if tail_tol is not None and tail > tail_tol:
        raise TailMassError(
            f"tail mass {tail:.3e} above tolerance {tail_tol:.3e} at dim {dim}"
        )
    coeffs.flags.writeable = False
    return CoherentVector(dim=dim, hbar=hbar, alpha=a, coeffs=coeffs, tail_mass=tail)


def _real_matmul(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    # real matrix times complex vector without a complex copy of the matrix
    out = matrix @ np.stack((vec.real, vec.imag), axis=1)
    return out[:, 0] + 1j * out[:, 1]


class _Initial(NamedTuple):
    """Time-invariant data of one initial state on one representation."""

    vector: CoherentVector
    norm: float
    coeffs: tuple[np.ndarray, ...]  # per sector, the state in its eigenbasis


def _prepare(rep: FockRepresentation, vector: CoherentVector) -> _Initial:
    coeffs = []
    for sector in rep.eigensystem():
        part = vector.coeffs[sector.index]
        if sector.vectors is not None:
            part = _frozen(_real_matmul(sector.vectors.T, sector.gauge.conj() * part))
        coeffs.append(part)
    return _Initial(vector, float(np.linalg.norm(vector.coeffs)), tuple(coeffs))


def _state_key(alpha: complex) -> bytes:
    # the exact bits, so that 0.0 and -0.0 stay apart
    return struct.pack("dd", alpha.real, alpha.imag)


def _initial_state(rep: FockRepresentation, alpha: complex) -> "_Initial | None":
    """The coherent state's :class:`_Initial` on ``rep``, ``None`` if its tail fails.

    The tail test is :data:`DEFAULT_TAIL_TOL`.  Built once per ``alpha`` and
    remembered on ``rep`` for the last ``_STATES_PER_REPRESENTATION`` values.
    """
    key = _state_key(alpha)
    if key not in rep._states:
        try:
            vector = coherent_vector(alpha, rep.hbar, rep.dim, tail_tol=DEFAULT_TAIL_TOL)
        except TailMassError:
            initial = None
        else:
            initial = _prepare(rep, vector)
        if len(rep._states) >= _STATES_PER_REPRESENTATION:
            del rep._states[next(iter(rep._states))]
        rep._states[key] = initial
    rep._last = rep._states[key]
    return rep._last


def _initial_of(rep: FockRepresentation, v: CoherentVector) -> _Initial:
    # the remembered data if v is the vector _initial_state last returned, else fresh
    known = rep._last
    return known if known is not None and known.vector is v else _prepare(rep, v)


def _propagate(rep: FockRepresentation, initial: _Initial, t: float) -> np.ndarray:
    sectors = rep.eigensystem()
    if rep._rates is None or rep._rates[0] is not sectors:  # once per sectors eigensystem() returns
        rep._rates = (sectors, tuple(_frozen(-1j * s.energies) for s in sectors))
    rates = rep._rates[1]
    if sectors[0].vectors is None:  # elliptic: one diagonal sector, the whole basis
        out = np.exp(rates[0] * (t / rep.hbar)) * initial.coeffs[0]
    else:
        out = np.empty(rep.dim, dtype=complex)
        for sector, rate, coeffs in zip(sectors, rates, initial.coeffs):
            phases = np.exp(rate * (t / rep.hbar))
            out[sector.index] = sector.gauge * _real_matmul(sector.vectors, phases * coeffs)
    drift = abs(math.sqrt(np.vdot(out, out).real) - initial.norm)
    if drift > _UNITARITY_TOL:
        raise ConvergenceError(f"propagator lost unitarity: norm drift {drift:.3e}")
    return out


def _apply_x(state: np.ndarray, half_ladder: np.ndarray) -> np.ndarray:
    # (a + adag)/sqrt(2) on the truncated basis, with half_ladder = sqrt(hbar k / 2)
    out = np.zeros_like(state)
    out[:-1] = half_ladder * state[1:]
    out[1:] += half_ladder * state[:-1]
    return out


def propagate_expectation(
    rep: FockRepresentation, v: CoherentVector, obs_power: int, t: float
) -> complex:
    """``<v| exp(iHt/hbar) X^n exp(-iHt/hbar) |v>`` at a single basis size.

    Evaluated as ``<y|y>`` or ``<y|X y>`` with ``y = X^(n//2) psi`` (``X`` is
    Hermitian).  Norm preservation of the spectral propagator is checked on
    every call.  Truncation convergence is the caller's concern; see
    :func:`oracle_average` for the dimension-doubling protocol.
    """
    if rep.dim != v.dim or rep.hbar != v.hbar:
        raise DomainError("representation and state must share dim and hbar")
    if obs_power < 1:
        raise DomainError("obs_power must be >= 1")
    state = _propagate(rep, _initial_of(rep, v), t)
    half_ladder = rep._ladder * math.sqrt(0.5)
    for _ in range(obs_power // 2):
        state = _apply_x(state, half_ladder)
    other = _apply_x(state, half_ladder) if obs_power % 2 else state
    return complex(np.vdot(state, other))


def monomial_expectation(
    rep: FockRepresentation, v: CoherentVector, m: int, q: int, t: float
) -> complex:
    """Evolved average of the normal-ordered observable ``adag^m a^q``.

    Evaluated as ``<a^m psi | a^q psi>``; each lowering drops the top basis
    entry, which the truncated ``a`` maps to zero.
    """
    if rep.dim != v.dim or rep.hbar != v.hbar:
        raise DomainError("representation and state must share dim and hbar")
    lowered = [_propagate(rep, _initial_of(rep, v), t)]
    size = rep.dim - max(m, q)
    if size <= 0:
        return 0j  # a^j vanishes on the truncated basis for j >= dim
    ladder = rep._ladder
    for _ in range(max(m, q)):
        state = lowered[-1]
        lowered.append(ladder[: len(state) - 1] * state[1:])
    return complex(np.vdot(lowered[m][:size], lowered[q][:size]))


def _expectation(
    kind: str,
    params: SystemParams,
    alpha: complex,
    obs: "int | tuple[int, int]",
    t: float,
    dim: int,
) -> "complex | None":
    # None when the coherent state fails the tail test at this basis size
    rep = build_hamiltonian(kind, params, dim)
    initial = _initial_state(rep, alpha)
    if initial is None:
        return None
    if isinstance(obs, tuple):
        return monomial_expectation(rep, initial.vector, obs[0], obs[1], t)
    return propagate_expectation(rep, initial.vector, obs, t)


def _observable_scale(params: SystemParams, obs: "int | tuple[int, int]") -> float:
    # Coherent zero-point scale of the observable; floors the relative
    # convergence metric so identically-zero averages (vacuum x^n by parity)
    # stabilize instead of dividing roundoff by roundoff.
    degree = obs[0] + obs[1] if isinstance(obs, tuple) else obs
    return params.hbar ** (degree / 2.0)


def oracle_average(
    kind: str,
    params: SystemParams,
    alpha: complex,
    obs: "int | tuple[int, int]",
    t: float,
    tol: float = 1e-6,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> complex:
    """Truncation-converged average: double the basis until the value is stable.

    ``obs`` is either an integer (power of the position operator) or an
    ``(m, q)`` pair for the normal-ordered monomial.  Starting at
    ``DEFAULT_START_DIM``, a basis size whose coherent vector leaves more than
    ``DEFAULT_TAIL_TOL`` of its mass outside is skipped.  Returns the value at
    the first doubled dimension whose relative change is below ``tol``.

    Raises
    ------
    ConvergenceError
        If the doubling schedule reaches ``dim_cap`` without stabilizing
        (expected near collapse times, where no truncation suffices).  The
        message names the largest basis size evaluated and its last
        relative change.
    """
    dim = DEFAULT_START_DIM
    previous = delta = tried = None
    floor = _observable_scale(params, obs)
    while dim <= dim_cap:
        value = _expectation(kind, params, alpha, obs, t, dim)
        if value is not None:
            if previous is not None:
                delta = abs(value - previous) / (abs(value) + floor)
                if delta < tol:
                    return value
            previous, tried = value, dim
        dim *= 2
    if tried is None:
        reason = f"no basis size up to dim_cap {dim_cap} passed the tail test"
    elif delta is None:
        reason = (
            f"only dim {tried} passed the tail test up to dim_cap {dim_cap}, "
            "so there is no change to measure"
        )
    else:
        reason = (
            f"dim {tried}, the largest basis tried (dim_cap {dim_cap}), still changed the "
            f"value by a relative {delta:.3e} against tol {tol:g}; the state may have "
            "outgrown every allowed truncation"
        )
    raise ConvergenceError(f"no stabilization for t={t}: {reason}")
