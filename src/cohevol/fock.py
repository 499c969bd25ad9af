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
  ``hbar sqrt((k+1)(k+2))``.  Such a matrix is bipartite: its even
  positions couple only to its odd ones, through a lower bidiagonal block
  ``B`` (rows the even positions, columns the odd ones) of about half the
  sector's size.  So its eigenvalues are ``s = -+sigma`` and its
  eigenvectors ``(u, -+w) / sqrt 2`` for the singular triplets
  ``B w = sigma u`` (Golub & Kahan 1965).  Every coupling carries one
  factor ``hbar``, so ``S = hbar S_1`` with a model-free ``S_1``: the
  eigenvectors depend on ``dim`` alone, and the model enters only through the
  energies.  Each sector's ``B`` of ``S_1`` is factored once per basis size,
  for every model, by LAPACK ``dbdsdc`` (divide and conquer; Gu & Eisenstat
  1995), which forms only ``sigma_1`` and the two half-size factors ``U`` and
  ``W``; the sector's full eigenvector matrix is never formed.  A sector of
  odd size (``dim`` not a multiple of 4) has one more even position than odd
  ones; a zero coupling to one more odd position makes ``B`` square and gives
  it a zero singular value, whose ``u`` is the sector's zero mode (on its
  even positions) and whose ``w`` is that added position alone, dropped from
  ``W``.  Each model forms only its energies ``w s - mu s^2`` at
  ``s = hbar (-+sigma_1)``.  The eigenpairs agree with those of ``scipy.linalg.eigh_tridiagonal`` to
  rounding, not bit for bit.  Inside a sector the gauge reduces to ``i^j``
  (a constant sector phase cancels), so it adds no rounding.  ``dbdsdc`` is
  called through ctypes, which releases the GIL for the call, so where the
  process may run on two CPUs or more one helper thread solves the parity-1
  sector while the calling thread solves parity 0; the helper is started by
  the first such solve, and a forked child starts its own.  The routine is
  taken from the LAPACK that numpy's ``linalg`` extension links, found by
  name at the first hyperbolic eigensolve, so no scipy is loaded.  Where
  numpy's LAPACK does not export it by a known name, it is taken from
  scipy's Cython LAPACK table (``scipy.linalg.cython_lapack``), loaded from
  its file; the top-level ``scipy`` package is imported for its library
  paths, but ``scipy.linalg`` is not, unless the extension is not found
  where scipy puts it.  An elliptic run loads no scipy.

Observables ``x^n`` and ``adag^m a^q`` are applied by banded shifts with the
ladder elements ``sqrt(hbar k)``; no dense operator is formed.

What does not depend on ``t`` is built once and kept on the representation:
its eigensystem, whose sectors carry their phase rates ``-1j E`` (a
hyperbolic sector refers to the shared factors of ``S_1``, not to a copy),
its ladder, and one prepared state, that of the last ``alpha`` asked for:
the coherent vector with its tail-test verdict, its norm ``|psi_0|`` and its
coefficients ``V^T g^* psi_0`` in each sector's eigenbasis (hyperbolic:
``U^T`` and ``W^T`` applied to the even and odd entries).  Asking for another
``alpha`` replaces it.  Each time point then computes only the phases
``exp(-1j E * (t / hbar))``, their product with the coefficients
(hyperbolic: ``g V (phases * coefficients)``, as one product with ``U`` and
one with ``W``), the unitarity check against ``|psi_0|`` and the
observable.

The process keeps the representations of one model, the ``(kind, omega, mu,
hbar)`` that :func:`build_hamiltonian` was last asked for, one per basis
size; asking for another model releases them all.  The factors of ``S_1``
live apart from them, in a cache of 8 basis sizes (the least recently used
goes first) that nothing public releases, so they stay until the process
ends.  A representation of the current model still refers to the factors of
its size after the cache drops them, so the factors alive are those of the
8 cached sizes plus the current model's.  A run driven by a config asks only
for sizes on the doubling ladder from ``DEFAULT_START_DIM`` to the cap, 8 of
them, whose factors take about 171 MiB, ``4/3`` of the cap's own 128 MiB:
the same bound as when they were released with their model, now held after
its last model too.  A library caller that asks for sizes off the ladder can
hold 8 of them beside its current model's (1 GiB near the cap, and more).
That retention is the cost of solving no basis size twice in a process.
Alternating between two models re-forms each one's energies
and prepared states every time but solves no basis size twice, and
alternating between two ``alpha`` on one model prepares each state every
time.  This state is shared by the whole process: use the oracle from one
thread at a time.

numpy loads with this module, and no other module of the package imports
numpy or scipy.  The package imports this module when one of its oracle
names is first used, and the harness at its first oracle call, so the
closed-form commands start without either.

The dense literal matrices, assembled from ladder matrices, live in the
tests as the reference this module is checked against.  Basis sizes above
``DEFAULT_DIM_CAP`` are refused: the two hyperbolic sectors' factors take
``2 dim^2`` bytes (128 MiB at the cap), and the two sectors' solves, which
run at once, need ``6 (dim/4)^2`` more doubles while they run (192 MiB at the
cap; one sector's solve, ``3 (dim/4)^2`` doubles, on one CPU).  Energies that
would leave float64 are refused before any solve (:class:`FloatRangeError`).
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import os
import struct
import sys
from functools import cached_property, lru_cache
from importlib.machinery import PathFinder

import numpy as np

from .core import (
    DEFAULT_DIM_CAP,
    ConvergenceError,
    DimensionError,
    DomainError,
    FloatRangeError,
    Record,
    SystemParams,
    TailMassError,
)

DEFAULT_TAIL_TOL = 1e-14
DEFAULT_START_DIM = 64
_UNITARITY_TOL = 1e-10
_I_POWERS = np.array([1, 1j, -1, -1j])
_TAIL_BLOCK = 64


class Sector(Record):
    """One invariant block of the basis, ``H[index, index] = g V diag(E) V^T g^*``.

    The energies ``E`` are held as the phase rates ``rates = -1j E``.  On a
    block where ``H`` is already diagonal, ``even``, ``odd`` and ``gauge`` are
    ``None`` (``V = 1``).  Otherwise ``g`` (``gauge``) holds unit phases and the
    real orthonormal ``V`` is never formed: its columns are ``(u, -w) / sqrt 2``
    with energy ``E(-sigma)``, then ``(u, w) / sqrt 2`` with ``E(+sigma)``, for
    the columns ``u`` of ``even`` on the block's even positions and ``w`` of
    ``odd`` on its odd ones.
    """

    __slots__ = _fields = ("index", "rates", "even", "odd", "gauge")


class FockRepresentation:
    """One model at one basis size.

    The spectral data (:meth:`eigensystem`, kept in ``_eig``) and the ladder
    are computed lazily exactly once.  ``_prepared`` holds the key of the last
    ``alpha`` evolved on this basis and its time-invariant data (``None`` if
    its tail failed); its empty key matches no ``alpha``.
    """

    def __init__(self, kind: str, params: SystemParams, dim: int) -> None:
        self.kind, self.params, self.dim = kind, params, dim
        self._eig: tuple[Sector, ...] | None = None
        self._prepared: tuple[bytes, _Initial | None] = (b"", None)

    @property
    def hbar(self) -> float:
        return self.params.hbar

    @cached_property
    def _max_scale(self) -> float:
        """A ``|t / hbar|`` up to which every phase ``exp(-1j E t / hbar)`` is finite.

        Half the exact limit, so that no rounding of ``E t / hbar`` can reach it.
        """
        top = max(float(np.abs(sector.rates).max()) for sector in self.eigensystem())
        return 0.5 * sys.float_info.max / max(top, 1.0)

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


def _check_energies(bound: float, params: SystemParams, dim: int) -> None:
    """:class:`FloatRangeError` unless ``bound`` is finite.

    ``bound`` is the energy formula's terms, with each factor at its largest
    size in the basis, formed in the formula's order in Python floats (which
    give ``inf`` or ``nan`` without a warning).  If it is finite, so is every
    energy and every product formed on the way.
    """
    if not math.isfinite(bound):
        raise FloatRangeError(
            f"the oracle's energies at dim {dim} leave float64 "
            f"(omega {params.omega!r}, mu {params.mu!r}, hbar {params.hbar!r})"
        )


def _elliptic_sectors(params: SystemParams, dim: int) -> tuple[Sector, ...]:
    top = dim - 1.0
    _check_energies(
        abs(params.omega) * params.hbar * top + abs(params.mu) * (params.hbar * params.hbar) * top * top,
        params, dim,
    )
    k = np.arange(dim, dtype=float)
    energies = params.omega * params.hbar * k + params.mu * params.hbar**2 * k * (k - 1.0)
    return (Sector(index=slice(None), rates=_frozen(-1j * energies), even=None, odd=None, gauge=None),)


def _hyperbolic_sectors(params: SystemParams, dim: int) -> tuple[Sector, ...]:
    # The couplings grow with k, so no row sum of S, and no |s|, exceeds twice the last.
    s_max = 2.0 * params.hbar * math.sqrt((dim - 2.0) * (dim - 1.0))
    _check_energies(abs(params.omega) * s_max + abs(params.mu) * s_max * s_max, params, dim)
    sectors = []
    for parity, (sigma, even, odd, gauge) in enumerate(_sector_factors(dim)):
        s = params.hbar * np.concatenate((-sigma, sigma))
        energies = params.omega * s - params.mu * s * s
        sectors.append(Sector(
            index=slice(parity, None, 2), rates=_frozen(-1j * energies), even=even, odd=odd, gauge=gauge,
        ))
    return tuple(sectors)


@lru_cache(maxsize=(DEFAULT_DIM_CAP // DEFAULT_START_DIM).bit_length())  # the doubling ladder's sizes
def _sector_factors(dim: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """``(sigma, U, W, gauge)`` of each parity sector of ``S / hbar``, frozen.

    Every coupling of ``S`` is ``hbar`` times that of ``S / hbar``, so its
    eigenvalues are ``hbar (-+sigma)`` and its eigenvectors are those of
    ``S / hbar``: they depend on ``dim`` alone and are shared by every model.
    """
    dbdsdc = _dbdsdc()
    sizes, bidiagonals = [], []
    for parity in (0, 1):
        k = np.arange(parity, dim - 2, 2, dtype=float)
        couplings = np.sqrt((k + 1.0) * (k + 2.0))
        sizes.append(len(k) + 1)
        if sizes[-1] % 2:
            # a zero coupling to one more odd position squares B; the zero singular
            # value this adds has that position alone as w, so its row of W is dropped
            couplings = np.append(couplings, 0.0)
        bidiagonals.append((couplings[0::2], couplings[1::2]))
    # The foreign call releases the GIL: where the process may run on two CPUs, the
    # helper thread solves parity 1 while this thread solves parity 0.
    if _cpus() > 1:
        helper = _helper().submit(dbdsdc, *bidiagonals[1])
        try:
            first = dbdsdc(*bidiagonals[0])
        finally:  # waited for even beside a failed solve, so that none outlives this call
            second = helper.result()
        solved = (first, second)
    else:
        solved = [dbdsdc(*bidiagonal) for bidiagonal in bidiagonals]
    factors = []
    for parity, size, (sigma, even, odd, info) in zip((0, 1), sizes, solved):
        if info != 0:
            raise ConvergenceError(
                f"LAPACK dbdsdc failed on the parity-{parity} sector at dim {dim}: info {info}"
            )
        gauge = _I_POWERS[np.arange(size) % 4]
        factors.append(tuple(_frozen(array) for array in (sigma, even, odd[: size // 2], gauge)))
    return tuple(factors)


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _helper():
    """The one worker thread that solves a second sector beside the calling thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1)


if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor but not its thread, so it starts its own
    os.register_at_fork(after_in_child=_helper.cache_clear)

# numpy's LAPACK names dbdsdc with the 64-bit-integer suffix of its OpenBLAS build
# (and, from numpy 2, the scipy_ prefix of the scipy-openblas wheels)
_NUMPY_DBDSDC = ("scipy_dbdsdc_64_", "dbdsdc_64_")


@lru_cache(maxsize=1)
def _dbdsdc():
    """LAPACK ``dbdsdc`` on a lower bidiagonal ``B``: ``(d, e) -> (sigma, U, W, info)``.

    ``d`` is the diagonal and ``e`` the subdiagonal of ``B = U diag(sigma) W^T``
    (divide and conquer, ``COMPQ = 'I'``); ``sigma`` is descending.  The
    routine is called through ctypes, which releases the GIL for the call.  It
    is taken from the LAPACK that numpy's own ``linalg`` extension links, by
    name (:data:`_NUMPY_DBDSDC`, 64-bit integers), so that no second LAPACK
    and BLAS is loaded.  Where neither name resolves (a DLL handle on Windows
    does not search the DLL's dependencies; macOS arm64 wheels link
    Accelerate), it is taken from scipy's Cython LAPACK table, see
    :func:`_scipy_dbdsdc`.
    """
    import ctypes

    import numpy.linalg._umath_linalg as umath_linalg

    library = ctypes.CDLL(umath_linalg.__file__)
    found = [getattr(library, name) for name in _NUMPY_DBDSDC if hasattr(library, name)]
    if found:
        # Fortran passes the lengths of uplo and compq after the arguments
        address, integer, lengths = ctypes.cast(found[0], ctypes.c_void_p).value, np.int64, 2
    else:
        address, integer, lengths = _scipy_dbdsdc(), np.intc, 0
    # (uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info), all by pointer
    routine = ctypes.CFUNCTYPE(None, *(ctypes.c_void_p,) * 14, *(ctypes.c_size_t,) * lengths)(address)

    def dbdsdc(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        n = len(d)
        if n < 1 or len(e) != n - 1:
            raise ValueError(f"dbdsdc needs n >= 1 and n - 1 subdiagonal entries, got {n} and {len(e)}")
        sigma = np.array(d, dtype=float)  # overwritten with the singular values
        sub = np.zeros(n)  # destroyed; one entry more, so that n = 1 passes a buffer
        sub[:-1] = e
        u, vt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
        work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=integer)
        ints = np.array([n, 0], dtype=integer)  # n (also ldu and ldvt), info
        # q and iq are not referenced for COMPQ = 'I'
        routine(
            b"L", b"I", ints.ctypes.data, sigma.ctypes.data, sub.ctypes.data,
            u.ctypes.data, ints.ctypes.data, vt.ctypes.data, ints.ctypes.data,
            work.ctypes.data, iwork.ctypes.data, work.ctypes.data, iwork.ctypes.data,
            ints[1:].ctypes.data, *(1,) * lengths,
        )
        return sigma, u, vt.T, int(ints[1])

    return dbdsdc


def _scipy_dbdsdc() -> int:
    """The address of ``dbdsdc`` in scipy's Cython LAPACK table (C ``int`` arguments).

    Read from ``scipy.linalg.cython_lapack.__pyx_capi__``.  Importing ``scipy``
    loads none of its subpackages but sets up the paths to its bundled
    libraries; the extension module is then run from its file, so the
    ``scipy.linalg`` package is not imported.  (CPython still registers the
    extension under its own name, and a later ``import scipy.linalg`` reuses
    it.)  Where the extension is not found, it is imported from
    ``scipy.linalg``.
    """
    import ctypes

    import scipy

    spec = PathFinder.find_spec(
        "scipy.linalg.cython_lapack", [os.path.join(path, "linalg") for path in scipy.__path__]
    )
    if spec is None:
        import scipy.linalg.cython_lapack as lapack
    else:
        lapack = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lapack)
    capsule, api = lapack.__pyx_capi__["dbdsdc"], ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))(capsule)
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )(capsule, name)


@lru_cache(maxsize=1)
def _model_bases(kind: str, omega: float, mu: float, hbar: float) -> dict[int, FockRepresentation]:
    # the representations of the last model asked for, by basis size; asking
    # for another model drops them all
    if kind not in ("elliptic", "hyperbolic"):
        raise DomainError(f"unknown Hamiltonian kind {kind!r}")
    return {}


def build_hamiltonian(kind: str, params: SystemParams, dim: int) -> FockRepresentation:
    """Representation of the chosen model on a ``dim``-state basis.

    The representations of the most recent ``(kind, params)`` are kept, one per
    basis size, so the spectral data of one basis size is reused by every later
    time point; asking for another model releases them.

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
    omega, mu, hbar, dim = params.omega, params.mu, params.hbar, int(dim)
    bases = _model_bases(kind, omega, mu, hbar)
    if dim not in bases:
        bases[dim] = FockRepresentation(kind=kind, params=SystemParams(omega, mu, hbar), dim=dim)
    return bases[dim]


class CoherentVector(Record):
    """Truncated coherent-state coefficients and the mass left beyond them."""

    __slots__ = _fields = ("dim", "hbar", "alpha", "coeffs", "tail_mass")


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
    try:
        nbar = abs(a) ** 2 / hbar
    except OverflowError:
        raise DomainError(f"coherent state needs |alpha|^2 within float64, got alpha {a!r}") from None
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


class _Initial(Record):
    """Time-invariant data of one initial state on one representation."""

    __slots__ = _fields = ("vector", "norm", "coeffs")  # coeffs: per sector, the state in its eigenbasis


def _prepare(rep: FockRepresentation, vector: CoherentVector) -> _Initial:
    coeffs = []
    for sector in rep.eigensystem():
        part = vector.coeffs[sector.index]
        if sector.even is not None:
            # V^T g^* psi_0 is (U^T a -+ W^T b) / sqrt 2 for its even entries a and odd
            # entries b; the 1 / sqrt 2 of V in _evolve is taken here too, as one halving
            part = sector.gauge.conj() * part
            even = _real_matmul(sector.even.T, part[0::2])
            odd = _real_matmul(sector.odd.T, part[1::2])
            part = _frozen(np.concatenate((even - odd, even + odd)) * 0.5)
        coeffs.append(part)
    return _Initial(vector=vector, norm=float(np.linalg.norm(vector.coeffs)), coeffs=tuple(coeffs))


def _state_key(alpha: complex) -> bytes:
    # the exact bits, so that 0.0 and -0.0 stay apart
    return struct.pack("dd", alpha.real, alpha.imag)


def _initial_state(rep: FockRepresentation, alpha: complex) -> "_Initial | None":
    """The coherent state's :class:`_Initial` on ``rep``, ``None`` if its tail fails.

    The tail test is :data:`DEFAULT_TAIL_TOL`.  Remembered on ``rep`` until
    another ``alpha`` is asked for.
    """
    key = _state_key(alpha)
    if rep._prepared[0] != key:
        try:
            vector = coherent_vector(alpha, rep.hbar, rep.dim, tail_tol=DEFAULT_TAIL_TOL)
        except TailMassError:
            initial = None
        else:
            initial = _prepare(rep, vector)
        rep._prepared = (key, initial)
    return rep._prepared[1]


def _initial_of(rep: FockRepresentation, v: CoherentVector) -> _Initial:
    # the remembered data if v is the vector _initial_state last returned, else fresh
    known = rep._prepared[1]
    return known if known is not None and known.vector is v else _prepare(rep, v)


def _propagate(rep: FockRepresentation, initial: _Initial, t: float) -> np.ndarray:
    """The state at ``t``; a norm that drifted from ``|psi_0|`` is a :class:`ConvergenceError`."""
    scale = t / rep.hbar
    if abs(scale) <= rep._max_scale:
        return _evolve(rep, initial, scale)
    # A phase beyond float64 is inf or nan, and so is the drift; numpy need not
    # warn of it before the ConvergenceError.  Entering errstate costs about as
    # much as an elliptic point's phases, so only such a time enters it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _evolve(rep, initial, scale)


def _evolve(rep: FockRepresentation, initial: _Initial, scale: float) -> np.ndarray:
    sectors = rep.eigensystem()
    if sectors[0].even is None:  # elliptic: one diagonal sector, the whole basis
        out = np.exp(sectors[0].rates * scale) * initial.coeffs[0]
    else:
        out = np.empty(rep.dim, dtype=complex)
        for sector, coeffs in zip(sectors, initial.coeffs):
            lower, upper = np.split(np.exp(sector.rates * scale) * coeffs, 2)  # -sigma, +sigma
            block = np.empty(len(sector.gauge), dtype=complex)
            block[0::2] = _real_matmul(sector.even, lower + upper)
            block[1::2] = _real_matmul(sector.odd, upper - lower)
            out[sector.index] = sector.gauge * block
    drift = abs(math.sqrt(np.vdot(out, out).real) - initial.norm)
    if not drift <= _UNITARITY_TOL:  # a nan drift fails too
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
    try:
        return params.hbar ** (degree / 2.0)
    except OverflowError:
        raise FloatRangeError(
            f"the oracle's convergence floor hbar^({degree}/2) overflows float64 at hbar {params.hbar!r}"
        ) from None


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
    DimensionError
        If ``dim_cap`` is below ``DEFAULT_START_DIM``, so that no basis is built.
    ConvergenceError
        If the doubling schedule reaches ``dim_cap`` without stabilizing
        (expected near collapse times, where no truncation suffices).  The
        message names the largest basis size evaluated and its last
        relative change.
    """
    dim = DEFAULT_START_DIM
    if dim_cap < dim:
        raise DimensionError(f"dim_cap {dim_cap} is below the oracle's first basis size {dim}")
    previous = delta = tried = None
    floor = _observable_scale(params, obs)
    while dim <= dim_cap:
        value = _expectation(kind, params, alpha, obs, t, dim)
        if value is not None:
            if previous is not None:
                scale = abs(value) + floor
                # a floor that underflows to 0 leaves a zero value no scale: two
                # equal values have converged, a zero after a nonzero one has not
                if scale:
                    delta = abs(value - previous) / scale
                else:
                    delta = 0.0 if value == previous else math.inf
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
