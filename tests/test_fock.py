"""Truncated-basis oracle: structure, invariants, and convergence protocol."""

import cmath
import gc
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cohevol import (
    ConvergenceError,
    DimensionError,
    DomainError,
    FockRepresentation,
    SystemParams,
    TailMassError,
    build_hamiltonian,
    coherent_vector,
    elliptic_quantum_average,
    hyperbolic_xn_average,
    make_hyperbolic_params,
    monomial_expectation,
    oracle_average,
    propagate_expectation,
)
from cohevol.cli import EXIT_CONVERGENCE, main
import cohevol.fock as fock
from cohevol.fock import DEFAULT_DIM_CAP, DEFAULT_START_DIM, DEFAULT_TAIL_TOL, _prepare, _propagate

HYP = make_hyperbolic_params(1.0, 0.1, 0.05)
OTHER_HYP = make_hyperbolic_params(0.7, -0.2, 0.03)
ELL = SystemParams(1.0, 0.05, 0.1)
SRC = Path(__file__).resolve().parents[1] / "src"


# Dense references, assembled literally from each Hamiltonian's definition.

def ladder_matrices(dim, hbar):
    """Dense annihilation/creation matrices on ``|0>..|dim-1>``."""
    a = np.diag(np.sqrt(hbar * np.arange(1, dim)), 1)
    return a, a.T.copy()


def dense_ham(rep):
    omega, mu = rep.params.omega, rep.params.mu
    a, adag = ladder_matrices(rep.dim, rep.hbar)
    if rep.kind == "elliptic":
        return (omega * (adag @ a) + mu * (adag @ adag @ a @ a)).astype(complex)
    gen = adag @ adag - a @ a
    return 1j * omega * gen + mu * (gen @ gen)


def dense_x_op(rep):
    a, adag = ladder_matrices(rep.dim, rep.hbar)
    return ((adag + a) / math.sqrt(2.0)).astype(complex)


class TestLadderAndStructure:
    def test_commutator_on_interior_block(self):
        dim, hbar = 128, 0.1
        a, adag = ladder_matrices(dim, hbar)
        comm = a @ adag - adag @ a - hbar * np.eye(dim)
        interior = comm[: dim - 1, : dim - 1]
        assert np.max(np.abs(interior)) <= 1e-13
        # the defect is confined to the truncation edge
        assert abs(comm[dim - 1, dim - 1] + hbar * dim) <= 1e-10

    def test_elliptic_diagonal_spectrum_at_mu_zero(self):
        p = SystemParams(1.3, 0.0, 0.2)
        rep = build_hamiltonian("elliptic", p, 32)
        expected = np.diag(p.omega * p.hbar * np.arange(32))
        assert np.max(np.abs(dense_ham(rep) - expected)) <= 1e-13

    def test_hyperbolic_band_structure(self):
        ham = dense_ham(build_hamiltonian("hyperbolic", HYP, 24))
        for i in range(24):
            for j in range(24):
                if abs(i - j) not in (0, 2, 4):
                    assert ham[i, j] == 0

    def test_hermiticity(self):
        for kind, p in (("elliptic", ELL), ("hyperbolic", HYP)):
            rep = build_hamiltonian(kind, p, 96)
            for op in (dense_ham(rep), dense_x_op(rep)):
                assert np.max(np.abs(op - op.conj().T)) <= 1e-13

    def test_vacuum_energy_of_hyperbolic_quartic(self):
        rep = build_hamiltonian("hyperbolic", HYP, 16)
        assert dense_ham(rep)[0, 0] == pytest.approx(-2.0 * HYP.mu * HYP.hbar**2, rel=1e-13)

    def test_minimum_dimension(self):
        with pytest.raises(DimensionError):
            build_hamiltonian("hyperbolic", HYP, 4)

    def test_maximum_dimension(self):
        with pytest.raises(DimensionError, match="exceeds the cap"):
            build_hamiltonian("hyperbolic", HYP, 2 * DEFAULT_DIM_CAP)

    def test_cap_above_the_limit_unused_once_converged(self):
        # the point converges by dim 256, so the doubling never asks for more
        args = ("hyperbolic", HYP, 0.5 + 0.3j, 1, 0.3)
        value = oracle_average(*args, dim_cap=2 * DEFAULT_DIM_CAP)
        assert value == oracle_average(*args, dim_cap=256)

    def test_mixed_position_momentum_form(self):
        # the quartic generator satisfies 2i xp + hbar = -(adag^2 - a^2), so
        # H also equals 2 w xp - i w hbar + mu (2i xp + hbar)^2; truncation
        # contaminates only the last few basis rows
        dim = 64
        rep = build_hamiltonian("hyperbolic", HYP, dim)
        a, adag = ladder_matrices(dim, HYP.hbar)
        x = (adag + a) / math.sqrt(2.0)
        p = 1j * (adag - a) / math.sqrt(2.0)
        xp = x @ p
        eye = np.eye(dim)
        alt = (
            2.0 * HYP.omega * xp
            - 1j * HYP.omega * HYP.hbar * eye
            + HYP.mu * np.linalg.matrix_power(2j * xp + HYP.hbar * eye, 2)
        )
        interior = slice(0, dim - 4)
        assert np.max(np.abs((dense_ham(rep) - alt)[interior, interior])) <= 1e-12


class TestCoherentVector:
    def test_vacuum(self):
        v = coherent_vector(0.0, 0.1, 8)
        assert v.coeffs[0] == 1.0
        assert np.all(v.coeffs[1:] == 0.0)
        assert v.tail_mass == 0.0

    def test_norm_approaches_one(self):
        norms = [
            np.linalg.norm(coherent_vector(1.2, 0.1, dim).coeffs)
            for dim in (16, 32, 64)
        ]
        assert norms[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a for a, b in zip(norms, norms[1:]))

    def test_annihilation_eigenvector(self):
        alpha, hbar, dim = 0.8 + 0.5j, 0.1, 96
        a, _ = ladder_matrices(dim, hbar)
        v = coherent_vector(alpha, hbar, dim)
        residual = a @ v.coeffs - alpha * v.coeffs
        # truncation contaminates only the last entry
        assert np.linalg.norm(residual[: dim - 1]) <= 1e-12

    def test_number_expectation(self):
        alpha, hbar = 1.1 - 0.3j, 0.1
        v = coherent_vector(alpha, hbar, 128)
        _, adag = ladder_matrices(128, hbar)
        a, _ = ladder_matrices(128, hbar)
        value = np.vdot(v.coeffs, adag @ a @ v.coeffs)
        assert value.real == pytest.approx(abs(alpha) ** 2, rel=1e-12)

    def test_coeffs_match_the_recurrence_loop(self):
        alpha, hbar, dim = 1.1 - 0.7j, 0.05, 128
        ref = [math.exp(-abs(alpha) ** 2 / (2.0 * hbar)) + 0j]
        for k in range(dim - 1):
            ref.append(ref[-1] * alpha / math.sqrt(hbar * (k + 1)))
        coeffs = coherent_vector(alpha, hbar, dim).coeffs
        assert np.max(np.abs(coeffs - np.array(ref))) <= 1e-14 * np.max(np.abs(ref))

    def test_tail_mass_error(self):
        with pytest.raises(TailMassError):
            coherent_vector(3.0, 0.05, 32, tail_tol=1e-14)

    def test_rejects_non_finite_input(self):
        for alpha, hbar in ((math.nan, 0.1), (complex(0.5, math.inf), 0.1), (0.5, 0.0)):
            with pytest.raises(DomainError):
                coherent_vector(alpha, hbar, 16)

    def test_tail_mass_is_the_omitted_poisson_mass(self):
        hbar = 0.1
        for nbar, dim in ((20.0, 40), (20.0, 64), (50.0, 128), (3.0, 64)):
            v = coherent_vector(math.sqrt(nbar * hbar), hbar, dim)
            exact = math.fsum(
                math.exp(-nbar + k * math.log(nbar) - math.lgamma(k + 1))
                for k in range(dim, dim + 1000)
            )
            assert v.tail_mass == pytest.approx(exact, rel=1e-12)

    def test_tail_below_the_float_range_on_the_way_up_still_counts(self):
        # at nbar = 1400 the omitted weights near dim are far below the float
        # range while the mass beyond them is ~1; the sum must not read 0
        alpha, hbar = math.sqrt(1400 * 0.005), 0.005
        for dim in (64, 128):
            assert coherent_vector(alpha, hbar, dim).tail_mass == pytest.approx(1.0, rel=1e-12)
            with pytest.raises(TailMassError):
                coherent_vector(alpha, hbar, dim, tail_tol=1e-14)

    def test_subnormal_gaussian_weight_is_unrepresentable(self):
        hbar = 0.005
        v = coherent_vector(math.sqrt(1450 * hbar), hbar, 4096)
        assert v.tail_mass == 1.0

    def test_elliptic_oracle_at_nbar_1400(self):
        p = SystemParams(0.8, 0.05, 0.005)
        alpha = math.sqrt(1400 * p.hbar)
        orc = oracle_average("elliptic", p, alpha, (1, 0), 0.7, tol=1e-9)
        closed = elliptic_quantum_average(1, 0, alpha, p, 0.7)
        assert abs(closed) > 1.0
        assert abs(closed - orc) <= 1e-6 * abs(closed)

    @pytest.mark.parametrize("nbar", (20.0, 50.0))
    def test_large_nbar_elliptic_oracle_converges(self, nbar):
        # 1 - sum |c_k|^2 has a rounding floor near the 1e-14 tail test at
        # these occupations; the omitted-mass sum has none
        for j in range(0, 400, 7):
            alpha = cmath.rect(math.sqrt(nbar * ELL.hbar), 2.0 * math.pi * j / 400)
            for m, q in ((1, 0), (2, 1), (1, 1)):
                orc = oracle_average("elliptic", ELL, alpha, (m, q), 0.7, tol=2e-7, dim_cap=2048)
                closed = elliptic_quantum_average(m, q, alpha, ELL, 0.7)
                assert abs(closed - orc) <= 1e-6 * abs(orc)


class TestPropagation:
    def test_unitarity(self):
        rep = build_hamiltonian("hyperbolic", HYP, 256)
        v = coherent_vector(0.5 + 0.3j, HYP.hbar, 256)
        for t in (0.1, 0.8, 2.0):
            out = _propagate(rep, _prepare(rep, v), t)
            assert abs(np.linalg.norm(out) - np.linalg.norm(v.coeffs)) <= 1e-12

    def test_initial_mean_position(self):
        alpha = 0.5 + 0.3j
        rep = build_hamiltonian("hyperbolic", HYP, 128)
        v = coherent_vector(alpha, HYP.hbar, 128)
        value = propagate_expectation(rep, v, 1, 0.0)
        assert value == pytest.approx((alpha + alpha.conjugate()) / math.sqrt(2.0), abs=1e-12)

    def test_initial_moments_match_closed_forms(self):
        # every closed form agrees with the simulator already at t = 0
        rep = build_hamiltonian("hyperbolic", HYP, 192)
        for alpha in (0.4, 1j, 0.5 + 0.3j, -0.8 + 0.6j):
            v = coherent_vector(alpha, HYP.hbar, 192)
            for n in (1, 2, 3):
                closed = hyperbolic_xn_average(n, alpha, HYP, 0.0)
                orc = propagate_expectation(rep, v, n, 0.0)
                scale = max(abs(orc), HYP.hbar ** (n / 2.0))
                assert abs(closed - orc) <= 1e-12 * scale

    def test_quadratic_limit_stretch(self):
        p = make_hyperbolic_params(1.0, 0.0, 0.1)
        alpha = 0.6
        value = oracle_average("hyperbolic", p, alpha, 1, 0.9, tol=1e-9, dim_cap=2048)
        expected = math.exp(2.0 * p.omega * 0.9) * 2.0 * alpha / math.sqrt(2.0)
        assert abs(value - expected) / abs(expected) <= 1e-8

    def test_symmetrized_xp_conserved(self):
        # invariant of the hyperbolic flow; checked on the propagated state
        dim = 512
        rep = build_hamiltonian("hyperbolic", HYP, dim)
        a, adag = ladder_matrices(dim, HYP.hbar)
        x = (adag + a) / math.sqrt(2.0)
        p_op = 1j * (adag - a) / math.sqrt(2.0)
        sym = (x @ p_op + p_op @ x) / 2.0
        v = coherent_vector(0.5 + 0.3j, HYP.hbar, dim)
        values = []
        for t in (0.0, 0.3, 0.6):
            state = _propagate(rep, _prepare(rep, v), t)
            values.append(complex(np.vdot(state, sym @ state)))
        for value in values[1:]:
            assert abs(value - values[0]) <= 1e-9

    def test_matches_closed_form(self):
        alpha = 0.5 + 0.3j
        t = 0.7
        closed = hyperbolic_xn_average(1, alpha, HYP, t)
        orc = oracle_average("hyperbolic", HYP, alpha, 1, t, tol=1e-8, dim_cap=2048)
        assert abs(closed - orc) / abs(orc) <= 1e-6

    def test_elliptic_monomial_conserved(self):
        rep = build_hamiltonian("elliptic", ELL, 256)
        v = coherent_vector(0.9 + 0.2j, ELL.hbar, 256)
        values = [monomial_expectation(rep, v, 1, 1, t) for t in (0.0, 1.0, 2.0)]
        for value in values[1:]:
            assert abs(value - values[0]) <= 1e-12 * abs(values[0]) + 1e-15


def _dense_state(rep, vec, t):
    evals, evecs = scipy.linalg.eigh(dense_ham(rep))
    return evecs @ (np.exp(-1j * evals * (t / rep.hbar)) * (evecs.conj().T @ vec))


def _dense_x_power(rep, state, n):
    return complex(np.vdot(state, np.linalg.matrix_power(dense_x_op(rep), n) @ state))


def _dense_monomial(rep, state, m, q):
    a, adag = ladder_matrices(rep.dim, rep.hbar)
    mono = np.linalg.matrix_power(adag, m) @ np.linalg.matrix_power(a, q)
    return complex(np.vdot(state, mono @ state))


class TestDenseReference:
    """The structured oracle against ``eigh`` of the literal dense ``H``."""

    # dims 30 and 31 give hyperbolic sectors of odd size
    @pytest.mark.parametrize("dim", (30, 31, 64, 256, 512))
    @pytest.mark.parametrize("kind,params", (("hyperbolic", HYP), ("elliptic", ELL)))
    def test_structured_equals_dense(self, kind, params, dim):
        rep = build_hamiltonian(kind, params, dim)
        v = coherent_vector(0.5 + 0.3j, params.hbar, dim)
        for t in (0.0, 0.3, 0.7):
            dense = _dense_state(rep, v.coeffs, t)
            assert np.max(np.abs(_propagate(rep, _prepare(rep, v), t) - dense)) <= 1e-12
            for n in (1, 2, 3, 4):
                ref = _dense_x_power(rep, dense, n)
                value = propagate_expectation(rep, v, n, t)
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
            for m, q in ((1, 0), (2, 1), (1, 1)):
                ref = _dense_monomial(rep, dense, m, q)
                value = monomial_expectation(rep, v, m, q, t)
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_monomial_beyond_the_basis_vanishes(self):
        rep = build_hamiltonian("elliptic", ELL, 16)
        v = coherent_vector(0.5 + 0.3j, ELL.hbar, 16)
        dense = _dense_state(rep, v.coeffs, 0.7)
        for m, q in ((16, 0), (3, 20)):
            assert _dense_monomial(rep, dense, m, q) == 0
            assert monomial_expectation(rep, v, m, q, 0.7) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        omega=st.floats(min_value=0.5, max_value=2.0),
        mu=st.floats(min_value=-0.2, max_value=0.2),
        hbar=st.floats(min_value=0.02, max_value=0.3),
        re=st.floats(min_value=-1.0, max_value=1.0),
        im=st.floats(min_value=-1.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1.0),
        dim=st.sampled_from((16, 32, 64, 128)),
    )
    def test_structured_equals_dense_property(self, omega, mu, hbar, re, im, t, dim):
        params = make_hyperbolic_params(omega, mu, hbar)
        v = coherent_vector(complex(re, im), hbar, dim)
        norm = np.linalg.norm(v.coeffs)
        for kind in ("hyperbolic", "elliptic"):
            rep = build_hamiltonian(kind, params, dim)
            dense = _dense_state(rep, v.coeffs, t)
            assert np.linalg.norm(_propagate(rep, _prepare(rep, v), t) - dense) <= 1e-10 * norm
            x_norm = np.linalg.norm(dense_x_op(rep), 2)
            for n in (1, 2, 3, 4):
                ref = _dense_x_power(rep, dense, n)
                value = propagate_expectation(rep, v, n, t)
                assert abs(value - ref) <= 1e-10 * norm**2 * x_norm**n
            a_norm = math.sqrt(hbar * (dim - 1))
            ref = _dense_monomial(rep, dense, 2, 1)
            value = monomial_expectation(rep, v, 2, 1, t)
            assert abs(value - ref) <= 1e-10 * norm**2 * a_norm**3


class TestUnitarityDrift:
    @pytest.fixture
    def leaky(self, monkeypatch):
        # phase rates of complex energies E - 1e-6j make the spectral propagator lose norm
        exact = FockRepresentation.eigensystem

        def leaky_eigensystem(rep):
            return tuple(s.replace(rates=s.rates - 1e-6) for s in exact(rep))

        monkeypatch.setattr(FockRepresentation, "eigensystem", leaky_eigensystem)

    @pytest.mark.parametrize("kind,params", (("hyperbolic", HYP), ("elliptic", ELL)))
    def test_drift_raises_convergence_error(self, leaky, kind, params):
        rep = build_hamiltonian(kind, params, 64)
        v = coherent_vector(0.5 + 0.3j, params.hbar, 64)
        with pytest.raises(ConvergenceError, match="unitarity"):
            propagate_expectation(rep, v, 1, 0.5)
        with pytest.raises(ConvergenceError, match="unitarity"):
            monomial_expectation(rep, v, 1, 1, 0.5)

    @pytest.mark.parametrize("kind,params", (("hyperbolic", HYP), ("elliptic", ELL)))
    def test_nan_drift_fails_closed(self, kind, params):
        # the phases (t / hbar) E at t = 1e308 leave float64, so the state and its drift are nan
        rep = build_hamiltonian(kind, params, 64)
        v = coherent_vector(0.5, params.hbar, 64)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="norm drift nan"):
            _propagate(rep, _prepare(rep, v), 1e308)

    def test_cli_maps_drift_to_convergence_exit_code(self, leaky, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 0.5+0.3j\n"
            "observable = x^1\nt_min = 0.2\nt_max = 0.4\npoints = 2\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 3
        assert "unitarity" in capsys.readouterr().err


class TestTridiagonalSolve:
    """Each hyperbolic parity sector as the half-size bidiagonal SVD (LAPACK ``dbdsdc``)."""

    @staticmethod
    def sector_spectrum(sector):
        """The sector's ``V`` (assembled from its factors) and eigenvalues, at ``omega 1, mu 0``.

        The energies are then the eigenvalues ``s`` of ``S`` themselves.  A
        sector of odd size has one zero mode ``u`` on its even positions,
        listed twice by the factors; it is taken once, as ``(u, 0)``.
        """
        size = len(sector.gauge)
        s = -sector.rates.imag
        half = len(s) // 2
        columns, values = [], []
        for i in range(half):
            zero_mode = size % 2 and i == half - 1  # sigma descends, so it is last
            for sign in (0.0,) if zero_mode else (-1.0, 1.0):
                column = np.zeros(size)
                column[0::2] = sector.even[:, i]
                if sign:
                    column[1::2] = sign * sector.odd[:, i]
                    column /= math.sqrt(2.0)
                columns.append(column)
                values.append(sign * s[half + i])
        return np.array(columns).T, np.array(values)

    # named for the solve it checked bit for bit; the SVD agrees to rounding
    @pytest.mark.parametrize("hbar", (0.1, 0.02))
    @pytest.mark.parametrize("dim", (5, 6, 30, 64, 1024))
    @pytest.mark.parametrize("parity", (0, 1))
    def test_bits_equal_eigh_tridiagonal(self, parity, dim, hbar):
        """Eigenvalues, ``|T V - V diag(s)|`` and ``|V^T V - I|`` against ``eigh_tridiagonal``."""
        sector = fock._hyperbolic_sectors(SystemParams(1.0, 0.0, hbar), dim)[parity]
        k = np.arange(parity, dim - 2, 2, dtype=float)
        diag, offdiag = np.zeros(len(k) + 1), hbar * np.sqrt((k + 1.0) * (k + 2.0))
        size = len(diag)
        assert sector.even.shape == ((size + 1) // 2,) * 2
        assert sector.odd.shape == (size // 2, (size + 1) // 2)
        vectors, values = self.sector_spectrum(sector)
        expected = scipy.linalg.eigh_tridiagonal(diag, offdiag, eigvals_only=True)
        tridiagonal = np.diag(offdiag, 1) + np.diag(offdiag, -1)
        scale = size * np.finfo(float).eps * np.abs(expected).max()
        assert vectors.shape == (size, size)
        assert np.abs(np.sort(values) - expected).max() <= 4.0 * scale
        assert np.abs(tridiagonal @ vectors - vectors * values).max() <= 4.0 * scale
        assert np.abs(vectors.T @ vectors - np.eye(size)).max() <= 4.0 * size * np.finfo(float).eps
        if size % 2:  # the zero mode leaves nothing on the odd positions
            assert np.abs(sector.odd[:, -1]).max() <= 4.0 * size * np.finfo(float).eps

    @staticmethod
    def clear_caches():
        # no representation or solved factors left over from earlier tests
        fock._representation.cache_clear()
        fock._sector_factors.cache_clear()

    @pytest.fixture
    def failing(self, monkeypatch):
        # fresh representations whose eigensolve reports a LAPACK failure
        self.clear_caches()
        monkeypatch.setattr(fock, "_dbdsdc", lambda: lambda d, e: (d, None, None, 1))
        yield
        self.clear_caches()

    def test_failure_raises_convergence_error(self, failing):
        with pytest.raises(ConvergenceError, match="dbdsdc failed on the parity-0 sector at dim 64: info 1"):
            oracle_average("hyperbolic", HYP, 0.5 + 0.3j, 1, 0.5)

    def test_cli_maps_failure_to_convergence_exit_code(self, failing, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = hyperbolic\nmu = 0.1\nhbar = 0.1\nalpha = 0.5+0.3j\n"
            "observable = x^1\nt_min = 0.2\nt_max = 0.4\npoints = 2\n"
        )
        assert main(["compare", "--config", str(cfg)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "convergence failure" in err and "dbdsdc" in err

    @staticmethod
    def serial_sectors(params, dim):
        """Each sector's ``(rates, even, odd)`` from two serial ``hbar``-free calls of ``_dbdsdc()``."""
        dbdsdc, sectors = fock._dbdsdc(), []
        for parity in (0, 1):
            k = np.arange(parity, dim - 2, 2, dtype=float)
            couplings = np.sqrt((k + 1.0) * (k + 2.0))
            size = len(k) + 1
            if size % 2:
                couplings = np.append(couplings, 0.0)
            sigma, even, odd, info = dbdsdc(couplings[0::2], couplings[1::2])
            assert info == 0
            s = params.hbar * np.concatenate((-sigma, sigma))
            sectors.append((-1j * (params.omega * s - params.mu * s * s), even, odd[: size // 2]))
        return sectors

    @pytest.mark.parametrize("cpus", (1, 2))
    @pytest.mark.parametrize("dim", (5, 6, 64, 1024))
    def test_sectors_bit_equal_two_serial_solves(self, dim, cpus, monkeypatch):
        self.clear_caches()
        monkeypatch.setattr(fock, "_cpus", lambda: cpus)
        built = fock._hyperbolic_sectors(HYP, dim)
        for sector, (rates, even, odd) in zip(built, self.serial_sectors(HYP, dim)):
            assert np.array_equal(sector.rates, rates)
            assert np.array_equal(sector.even, even)
            assert np.array_equal(sector.odd, odd)

    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_helper_solves_parity_1_only_on_two_cpus_or_more(self, cpus, monkeypatch):
        submitted = []

        class Recorder(fock.ThreadPoolExecutor):
            def submit(self, function, d, e):
                submitted.append(d[0])
                return super().submit(function, d, e)

        self.clear_caches()
        monkeypatch.setattr(fock, "_cpus", lambda: cpus)
        monkeypatch.setattr(fock, "ThreadPoolExecutor", Recorder)
        fock._hyperbolic_sectors(HYP, 64)
        # the parity-1 bidiagonal of S / hbar starts with sqrt(2 * 3)
        assert submitted == ([math.sqrt(6.0)] if cpus >= 2 else [])

    def test_cpus_counts_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert fock._cpus() == len(os.sched_getaffinity(0))
        else:
            assert fock._cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("cpus", (1, 2))
    def test_parity_1_failure_names_its_sector(self, cpus, monkeypatch):
        dbdsdc = fock._dbdsdc()

        def odd_fails(d, e):
            sigma, even, odd, info = dbdsdc(d, e)
            return sigma, even, odd, 2 if d[0] == math.sqrt(6.0) else info

        self.clear_caches()
        monkeypatch.setattr(fock, "_cpus", lambda: cpus)
        monkeypatch.setattr(fock, "_dbdsdc", lambda: odd_fails)
        try:
            with pytest.raises(ConvergenceError, match="dbdsdc failed on the parity-1 sector at dim 64: info 2"):
                oracle_average("hyperbolic", HYP, 0.5 + 0.3j, 1, 0.5)
        finally:
            self.clear_caches()

    def test_models_at_one_dim_share_the_factors(self):
        first = fock._hyperbolic_sectors(HYP, 64)
        second = fock._hyperbolic_sectors(OTHER_HYP, 64)
        for one, other in zip(first, second):
            assert one.even is other.even and one.odd is other.odd and one.gauge is other.gauge
            assert not np.array_equal(one.rates, other.rates)

    def test_each_sector_is_solved_once_per_dim_across_models(self, monkeypatch):
        dbdsdc, solved = fock._dbdsdc(), []

        def counted(d, e):
            solved.append(len(d))
            return dbdsdc(d, e)

        self.clear_caches()
        monkeypatch.setattr(fock, "_dbdsdc", lambda: counted)
        try:
            for params in (HYP, OTHER_HYP, HYP, make_hyperbolic_params(1.3, 0.05, 0.2)):
                for dim in (64, 128):
                    build_hamiltonian("hyperbolic", params, dim).eigensystem()
            assert sorted(solved) == [16, 16, 32, 32]  # each parity's bidiagonal, once per dim
            # OTHER_HYP's dim-64 representation is still cached, and holds its factors
            fock._representation.cache_clear()
            fock._sector_factors.cache_clear()
            build_hamiltonian("hyperbolic", OTHER_HYP, 64).eigensystem()
            assert sorted(solved) == [16, 16, 16, 16, 32, 32]
        finally:
            self.clear_caches()

    def test_values_do_not_depend_on_the_model_solved_before(self):
        times = (0.0, 0.4, 0.8)

        def values(params, alpha):
            return [oracle_average("hyperbolic", params, alpha, 2, t) for t in times]

        self.clear_caches()
        first = values(HYP, 0.5 + 0.3j)
        self.clear_caches()
        values(OTHER_HYP, 0.6 - 0.2j)
        solves = fock._sector_factors.cache_info().misses
        after = values(HYP, 0.5 + 0.3j)
        assert fock._sector_factors.cache_info().misses == solves  # every factor came from the other model
        assert after == first

    @staticmethod
    def stand_in_solve(monkeypatch):
        # no basis is factored: sigma is the diagonal, U and W are empty
        monkeypatch.setattr(fock, "_dbdsdc", lambda: lambda d, e: (np.array(d), np.empty((0, 0)), np.empty((0, 0)), 0))

    def test_a_ladder_to_the_cap_keeps_at_most_8_sizes(self, monkeypatch):
        self.stand_in_solve(monkeypatch)
        ladder = [DEFAULT_START_DIM << j for j in range(8)]
        assert ladder[-1] == DEFAULT_DIM_CAP
        self.clear_caches()
        try:
            for dim in ladder + ladder:
                fock._hyperbolic_sectors(HYP, dim)
            info = fock._sector_factors.cache_info()
            assert (info.misses, info.hits, info.currsize) == (8, 8, 8)  # the second ladder solved nothing
            for dim in (5, 6, 30, 100):
                fock._hyperbolic_sectors(HYP, dim)
            assert fock._sector_factors.cache_info().currsize == 8
        finally:
            self.clear_caches()

    def test_retained_factors_are_bounded(self, monkeypatch):
        # each representation refers to the factors of its size, which hold the
        # sectors' gauges; a cache of 8 of each keeps those of 16 sizes at most
        self.stand_in_solve(monkeypatch)
        self.clear_caches()
        dims, gauges = range(100, 120), []  # off the doubling ladder
        try:
            for dim in dims:
                sectors = build_hamiltonian("hyperbolic", HYP, dim).eigensystem()
                gauges.append([weakref.ref(sector.gauge) for sector in sectors])
            del sectors
            gc.collect()
            alive = [dim for dim, refs in zip(dims, gauges) if any(ref() is not None for ref in refs)]
            assert len(alive) <= 16, alive
        finally:
            self.clear_caches()

    def test_no_thread_outlives_a_solve(self, monkeypatch):
        dbdsdc, solvers = fock._dbdsdc(), []

        def recorded(d, e):
            solvers.append(threading.current_thread())
            return dbdsdc(d, e)

        self.clear_caches()
        monkeypatch.setattr(fock, "_cpus", lambda: 2)
        monkeypatch.setattr(fock, "_dbdsdc", lambda: recorded)
        before = threading.active_count()
        try:
            fock._hyperbolic_sectors(HYP, 64)
            assert fock._sector_factors.cache_info().misses == 1
            assert threading.active_count() == before
            # parity 1 ran on a helper, which was joined when the solve ended
            assert len(solvers) == 2 and threading.current_thread() in solvers
            assert [thread.is_alive() for thread in solvers if thread is not threading.current_thread()] == [False]
        finally:
            self.clear_caches()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_solves_after_a_solve_in_the_parent(self):
        # no helper thread is left after the parent's solve, so the fork raises no
        # DeprecationWarning (Python 3.12+ warns of a fork beside a live thread) and
        # the child's solve starts its own helper; a child that hung would be
        # killed by the alarm
        code = (
            "import os, signal\n"
            "import cohevol.fock as fock\n"
            "from cohevol import SystemParams\n"
            "fock._cpus = lambda: 2\n"
            "fock._hyperbolic_sectors(SystemParams(1.0, 0.1, 0.1), 1024)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(10)\n"
            "    fock._sector_factors.cache_clear()  # so that the child solves, not reuses\n"
            "    fock._hyperbolic_sectors(SystemParams(1.0, 0.2, 0.1), 1024)\n"
            "    os._exit(0 if fock._sector_factors.cache_info().misses == 1 else 3)\n"
            "print(os.waitpid(pid, 0)[1])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0"]  # the child's wait status: exit 0, no signal


def _per_point_state(rep, v, t):
    """The evolved state as each point formed it before the per-representation caches.

    A fresh prepared state, every sector written into one new buffer.
    """

    def real_matmul(matrix, vec):
        out = matrix @ np.stack((vec.real, vec.imag), axis=1)
        return out[:, 0] + 1j * out[:, 1]

    out = np.empty(rep.dim, dtype=complex)
    for sector in rep.eigensystem():
        coeffs = v.coeffs[sector.index]
        phases = np.exp(sector.rates * (t / rep.hbar))
        if sector.even is None:
            out[sector.index] = phases * coeffs
        else:
            # c-+ = (U^T a -+ W^T b) / 2, then U (c- + c+) on the even positions, W (c+ - c-) on the odd
            coeffs = sector.gauge.conj() * coeffs
            even = real_matmul(sector.even.T, coeffs[0::2])
            odd = real_matmul(sector.odd.T, coeffs[1::2])
            turned = phases * (np.concatenate((even - odd, even + odd)) * 0.5)
            lower, upper = turned[: len(turned) // 2], turned[len(turned) // 2:]
            block = np.empty(len(coeffs), dtype=complex)
            block[0::2] = real_matmul(sector.even, lower + upper)
            block[1::2] = real_matmul(sector.odd, upper - lower)
            out[sector.index] = sector.gauge * block
    return out


def _per_point_x_power(rep, state, n):
    half_ladder = np.sqrt(rep.hbar * np.arange(1, rep.dim)) * math.sqrt(0.5)

    def apply_x(vec):
        out = np.zeros_like(vec)
        out[:-1] = half_ladder * vec[1:]
        out[1:] += half_ladder * vec[:-1]
        return out

    for _ in range(n // 2):
        state = apply_x(state)
    return complex(np.vdot(state, apply_x(state) if n % 2 else state))


def _per_point_monomial(rep, state, m, q):
    ladder = np.sqrt(rep.hbar * np.arange(1, rep.dim))
    lowered = [state]
    for _ in range(max(m, q)):
        lowered.append(ladder[: len(lowered[-1]) - 1] * lowered[-1][1:])
    size = rep.dim - max(m, q)
    return complex(np.vdot(lowered[m][:size], lowered[q][:size]))


class TestPerPointPath:
    """The cached per-point path gives every bit of the uncached one."""

    @pytest.mark.parametrize("kind,params", (("elliptic", ELL), ("hyperbolic", HYP)))
    @pytest.mark.parametrize("dim", (64, 128, 256))
    def test_equals_the_uncached_path(self, kind, params, dim):
        rep = build_hamiltonian(kind, params, dim)
        remembered = fock._initial_state(rep, 0.4 - 0.2j).vector
        last = fock._initial_state(rep, 0.5 + 0.3j).vector
        fresh = coherent_vector(0.5 + 0.3j, params.hbar, dim)
        # the state _initial_state returned last, one it returned earlier and a
        # fresh vector: the first is found by identity, the others prepared anew
        for v in (last, remembered, fresh):
            for t in (0.0, 0.1, 0.7, 2.5, 11.0):
                state = _per_point_state(rep, v, t)
                for n in (1, 2, 3, 4):
                    assert propagate_expectation(rep, v, n, t) == _per_point_x_power(rep, state, n)
                for m, q in ((1, 0), (2, 1), (1, 1), (0, 3)):
                    expected = _per_point_monomial(rep, state, m, q)
                    assert monomial_expectation(rep, v, m, q, t) == expected

    def test_signed_zeros_are_distinct_states(self):
        # alpha's bits are the prepared state's key: -0.0 would otherwise reuse +0.0's vector
        rep = build_hamiltonian("elliptic", ELL, 64)
        for alpha in (complex(0.0, 0.5), complex(-0.0, 0.5), complex(0.0, 0.5)):
            remembered = fock._initial_state(rep, alpha).vector.alpha
            assert math.copysign(1.0, remembered.real) == math.copysign(1.0, alpha.real)

    @pytest.fixture
    def corrupted_norm(self, monkeypatch):
        # every state prepared from here on carries a norm off by 1e-9
        fock._representation.cache_clear()
        prepare = fock._prepare

        def corrupted(rep, v):
            initial = prepare(rep, v)
            return initial.replace(norm=initial.norm + 1e-9)

        monkeypatch.setattr(fock, "_prepare", corrupted)
        yield
        fock._representation.cache_clear()  # drop the corrupted states

    @pytest.mark.parametrize("kind,params,obs", (("elliptic", ELL, (2, 1)), ("hyperbolic", HYP, 1)))
    def test_corrupted_norm_raises(self, corrupted_norm, kind, params, obs):
        with pytest.raises(ConvergenceError, match="unitarity"):
            oracle_average(kind, params, 0.5 + 0.3j, obs, 0.3)
        rep = build_hamiltonian(kind, params, 64)
        v = coherent_vector(0.5 + 0.3j, params.hbar, 64)
        with pytest.raises(ConvergenceError, match="unitarity"):
            propagate_expectation(rep, v, 1, 0.3)
        with pytest.raises(ConvergenceError, match="unitarity"):
            monomial_expectation(rep, v, 1, 1, 0.3)


def _oracle_from_scratch(kind, params, alpha, obs, t, tol=1e-6):
    """The doubling protocol on a fresh coherent vector at every basis size."""
    degree = sum(obs) if isinstance(obs, tuple) else obs
    floor = params.hbar ** (degree / 2.0)
    previous, dim = None, 64
    while dim <= DEFAULT_DIM_CAP:
        try:
            vec = coherent_vector(alpha, params.hbar, dim, tail_tol=DEFAULT_TAIL_TOL)
        except TailMassError:
            dim *= 2
            continue
        rep = build_hamiltonian(kind, params, dim)
        if isinstance(obs, tuple):
            value = monomial_expectation(rep, vec, obs[0], obs[1], t)
        else:
            value = propagate_expectation(rep, vec, obs, t)
        if previous is not None and abs(value - previous) / (abs(value) + floor) < tol:
            return value
        previous, dim = value, 2 * dim
    raise AssertionError("the reference did not converge")


class TestStateReuse:
    """The data an oracle job remembers per state changes no bit of its values."""

    @pytest.fixture
    def coherent_builds(self, monkeypatch):
        # fresh representations; counts only the oracle's builds (the
        # reference calls the unpatched function imported above)
        fock._representation.cache_clear()
        builds = []
        coherent = fock.coherent_vector

        def counted(alpha, hbar, dim, *args, **kwargs):
            builds.append((complex(alpha), hbar, dim))
            return coherent(alpha, hbar, dim, *args, **kwargs)

        monkeypatch.setattr(fock, "coherent_vector", counted)
        return builds

    @pytest.mark.parametrize("kind,obs", (
        ("hyperbolic", 1), ("hyperbolic", 2), ("elliptic", (1, 0)), ("elliptic", (2, 1)),
    ), ids=("hyperbolic-x1", "hyperbolic-x2", "elliptic-mono10", "elliptic-mono21"))
    def test_equals_a_fresh_evaluation(self, coherent_builds, kind, obs):
        make = make_hyperbolic_params if kind == "hyperbolic" else SystemParams
        params = {hbar: make(1.0, 0.05, hbar) for hbar in (0.1, 0.2)}
        # alpha 2.0 fails the tail test at dim 64 for hbar 0.1 (nbar 40)
        alphas = (0.5 + 0.3j, 2.0)
        steps = ((0.1, 0), (0.1, 1), (0.2, 0), (0.1, 0), (0.2, 1), (0.1, 1))
        alternating = [(hbar, alpha, t) for t in (0.05, 0.1, 0.05) for hbar, alpha in steps]

        def run(points):
            for hbar, alpha, t in points:
                p, a = params[hbar], alphas[alpha]
                assert oracle_average(kind, p, a, obs, t) == _oracle_from_scratch(kind, p, a, obs, t)

        # alternating between two models rebuilds each one, value for value the same
        run(alternating)
        # one model and one alpha after the other, as every command and bench
        # job runs: each state is built once
        fock._representation.cache_clear()
        coherent_builds.clear()
        run(sorted(alternating, key=lambda point: point[:2]))
        assert len(coherent_builds) == len(set(coherent_builds))
        with pytest.raises(TailMassError):
            coherent_vector(2.0, 0.1, 64, tail_tol=DEFAULT_TAIL_TOL)
        assert coherent_builds.count((2.0, 0.1, 64)) == 1

    def test_the_last_8_representations_are_kept(self):
        # one LRU of 8 (model, dim) representations, whatever their models: the
        # least recently used goes when a 9th is asked for
        other = SystemParams(1.0, 0.05, 0.2)
        fock._representation.cache_clear()
        first = weakref.ref(build_hamiltonian("elliptic", ELL, 64))
        second = weakref.ref(build_hamiltonian("elliptic", ELL, 128))
        build_hamiltonian("elliptic", other, 64)
        gc.collect()
        # model A's representation survives a model-B build, as the same object
        assert second() is not None and build_hamiltonian("elliptic", ELL, 128) is second()
        for dim in range(100, 105):  # the 8th distinct (model, dim)
            build_hamiltonian("elliptic", other, dim)
        gc.collect()
        assert first() is not None
        build_hamiltonian("elliptic", other, 105)  # the 9th
        gc.collect()
        assert first() is None
        assert second() is not None and build_hamiltonian("elliptic", ELL, 128) is second()

    def test_one_state_per_basis(self, coherent_builds):
        # each basis keeps the state of the last alpha only: alternating two
        # alphas on one model prepares each one again, value for value the same
        args = ("elliptic", ELL)
        alphas = (0.3 + 0.1j, 0.5 - 0.2j)
        for alpha in alphas + alphas:
            for t in (0.4, 0.7):
                value = oracle_average(*args, alpha, (1, 0), t)
                assert value == _oracle_from_scratch(*args, alpha, (1, 0), t)
        for dim in (64, 128):
            rep = build_hamiltonian(*args, dim)
            assert rep._prepared[0] == fock._state_key(alphas[1])
            assert rep._prepared[1].vector.alpha == alphas[1]
        # built once per visit, not once per time point
        assert [coherent_builds.count((alpha, ELL.hbar, 64)) for alpha in alphas] == [2, 2]


class TestConvergenceMessage:
    PARAMS = make_hyperbolic_params(1.0, 0.1, 0.1)
    T = 25.0 * math.pi / 8.0 * (1.0 - 1e-2)  # criterion 05's point nearest collapse

    def test_names_the_largest_basis_and_its_delta(self):
        with pytest.raises(ConvergenceError) as info:
            oracle_average("hyperbolic", self.PARAMS, 1j, 2, self.T, tol=1e-6, dim_cap=1000)
        message = str(info.value)
        assert "dim 512, the largest basis tried (dim_cap 1000)" in message
        delta = float(message.split("by a relative ")[1].split()[0])
        assert 1e-6 < delta < math.inf

    def test_single_basis_has_no_delta(self):
        with pytest.raises(ConvergenceError, match="only dim 64 passed the tail test"):
            oracle_average("hyperbolic", self.PARAMS, 1j, 2, self.T, dim_cap=64)

    def test_cap_below_the_first_basis_size_builds_no_basis(self):
        with pytest.raises(DimensionError, match="dim_cap 32 is below the oracle's first basis size 64"):
            oracle_average("hyperbolic", self.PARAMS, 1j, 2, self.T, dim_cap=32)

    def test_no_basis_passes_the_tail_test(self):
        with pytest.raises(ConvergenceError, match="no basis size up to dim_cap 128 passed"):
            oracle_average("elliptic", ELL, 4.0, (1, 0), 0.5, dim_cap=128)
