"""Tests for temporal channels, the channel decomposition, and certification."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    KET0,
    KET1,
    bell_state,
    count_factorizations,
    octahedral_ensemble,
    proj,
    random_faithful_separable,
    random_trace_one_hermitian,
    rank_deficient_separable,
    werner,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import tempcert as tc

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

DIM_PAIRS = [(2, 2), (2, 3), (3, 3), (4, 4)]


class TestTemporalChannel:
    def test_product_state_gives_replace_channel(self):
        rng = np.random.default_rng(0)
        rho_a = tc.random_density(2, seed=rng)  # faithful w.p. 1
        rho_b = tc.random_density(3, seed=rng)
        e = tc.temporal_channel(tc.tensor(rho_a, rho_b), (2, 3), "a")
        np.testing.assert_allclose(e.choi, tc.replace_channel(rho_b, dim_in=2).choi, atol=1e-10)

    def test_non_faithful_product_measures_and_prepares(self):
        rng = np.random.default_rng(1)
        rho_b = tc.random_density(2, seed=rng)
        tau = tc.tensor(proj(KET0), rho_b)
        e = tc.temporal_channel(tau, (2, 2), "a")
        assert tc.is_cptp(e).ok
        np.testing.assert_allclose(tc.apply(e, proj(KET0)), rho_b, atol=1e-12)
        np.testing.assert_allclose(tc.apply(e, proj(KET1)), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(tc.apply(e, np.outer(KET0, KET1.conj())), 0, atol=1e-12)
        rho_a = tc.partial_trace(tau, (2, 2), "b")
        assert tc.max_abs(tc.star_product(e, rho_a) - tau) < 1e-12

    def test_swap_half_gives_identity_channel(self):
        e = tc.temporal_channel(SWAP / 2, (2, 2), "a")
        np.testing.assert_allclose(e.choi, tc.identity_channel(2).choi, atol=1e-12)

    @pytest.mark.parametrize("dims", DIM_PAIRS)
    def test_reconstruction_on_hermitian_inputs(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(5):
            tau = random_trace_one_hermitian(dims, rng)
            for side in ("a", "b"):
                e = tc.temporal_channel(tau, dims, side)
                assert tc.is_hptp(e)
                traced = "b" if side == "a" else "a"
                rho = tc.partial_trace(tau, dims, traced)
                if side == "a":
                    recon = tc.star_product(e, rho)
                else:
                    recon = tc.reverse_star(e, rho)
                assert tc.max_abs(recon - tau) < 1e-9

    def test_reconstruction_with_rank_deficient_marginal(self):
        rng = np.random.default_rng(2)
        ens = rank_deficient_separable((3, 2), rank_a=2, n_terms=3, rng=rng)
        tau = tc.assemble_state(ens)
        e = tc.temporal_channel(tau, (3, 2), "a")
        assert tc.is_cptp(e).ok
        rho_a = tc.partial_trace(tau, (3, 2), "b")
        assert tc.max_abs(tc.star_product(e, rho_a) - tau) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_choi_matches_ensemble_structure(self, seed):
        # for separable tau the Choi matrix is the ensemble sum of
        # (cauchy (.) transposed first factors) tensor second factors,
        # everything expressed in an eigenbasis of the marginal
        rng = np.random.default_rng(seed)
        ens = random_faithful_separable((3, 2), rng)
        tau = tc.assemble_state(ens)
        rho_a = tc.partial_trace(tau, (3, 2), "b")
        p, u = np.linalg.eigh(rho_a)
        omega = tc.cauchy_matrix(p)
        expected = np.zeros((6, 6), dtype=complex)
        for w, sa, sb in zip(ens.weights, ens.states_a, ens.states_b):
            sa_eig = u.conj().T @ sa @ u
            factor = u.conj() @ tc.hadamard_product(omega, sa_eig.T) @ u.T
            expected += w * tc.tensor(factor, sb)
        e = tc.temporal_channel(tau, (3, 2), "a")
        assert tc.max_abs(e.choi - expected) < 1e-10

    def test_invalid_marginal_raises(self):
        bad = tc.tensor(np.diag([1.5, -0.5]).astype(complex), np.eye(2) / 2)
        with pytest.raises(ValueError, match="marginal on side a.*psd"):
            tc.temporal_channel(bad, (2, 2), "a")

    def test_non_unit_trace_raises(self):
        with pytest.raises(ValueError, match="trace"):
            tc.temporal_channel(np.eye(4) / 2, (2, 2), "a")


class TestSylvesterOracle:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        rho = tc.random_density(2, seed=rng)
        sigma = tc.random_density(3, seed=rng)
        x = tc.sylvester_oracle(tc.tensor(rho, sigma), (2, 3), "a")
        np.testing.assert_allclose(x, tc.tensor(np.eye(2), sigma), atol=1e-10)

    def test_swap_half(self):
        np.testing.assert_allclose(tc.sylvester_oracle(SWAP / 2, (2, 2), "a"), SWAP, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_agrees_with_eigenbasis_construction(self, dims):
        rng = np.random.default_rng(sum(dims) + 10)
        for _ in range(5):
            tau = random_trace_one_hermitian(dims, rng)
            for side in ("a", "b"):
                oracle = tc.sylvester_oracle(tau, dims, side)
                direct = tc.jamiolkowski(tc.temporal_channel(tau, dims, side))
                assert tc.max_abs(oracle - direct) < 1e-9

    def test_declines_non_faithful(self):
        tau = tc.tensor(proj(KET0), np.eye(2) / 2)
        with pytest.raises(ValueError, match="non-faithful"):
            tc.sylvester_oracle(tau, (2, 2), "a")

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_refuses_dims_above_bound(self, side):
        tau = tc.tensor(np.eye(5) / 5, np.eye(13) / 13)
        with pytest.raises(ValueError, match=r"m\*n <= 64"):
            tc.sylvester_oracle(tau, (5, 13), side)

    @pytest.mark.parametrize("dims", [(2, 2, 1), (True, 4)])
    def test_dims_are_gated_before_they_are_read(self, dims):
        with pytest.raises(ValueError, match="dims must be two positive ints"):
            tc.sylvester_oracle(np.eye(4) / 4, dims)

    def test_size_limit_is_checked_after_the_tau_gate(self):
        with pytest.raises(ValueError, match="^trace invariant violated"):
            tc.sylvester_oracle(np.eye(65), (5, 13))


class TestDephasingChannel:
    def test_maximally_mixed_gives_identity(self):
        d = tc.dephasing_channel(np.eye(3) / 3)
        np.testing.assert_allclose(d.choi, tc.identity_channel(3).choi, atol=1e-12)

    def test_damping_factor(self):
        d = tc.dephasing_channel(np.diag([0.9, 0.1]))
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = tc.apply(d, plus)
        assert abs(out[0, 1] - 0.3) < 1e-12  # 0.5 * 2 sqrt(0.09)
        assert abs(out[0, 0] - 0.5) < 1e-12

    def test_fixes_its_own_state(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = tc.random_density(4, seed=rng)
            d = tc.dephasing_channel(rho)
            assert tc.is_cptp(d).ok
            np.testing.assert_allclose(tc.apply(d, rho), rho, atol=1e-11)

    def test_hadamard_schur_form_in_eigenbasis(self):
        rng = np.random.default_rng(5)
        p = np.array([0.5, 0.3, 0.2])
        u = tc.random_unitary(3, seed=rng)
        rho = u @ np.diag(p) @ u.conj().T
        d = tc.dephasing_channel(rho)
        h = tc.harmonic_mean_matrix(p)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = tc.apply(d, u @ x @ u.conj().T)
        rhs = u @ tc.hadamard_product(h, x) @ u.conj().T
        assert tc.max_abs(lhs - rhs) < 1e-11

    def test_projector_form_is_basis_independent(self):
        # degenerate spectrum: any orthonormal basis of the eigenspace gives the same map
        rng = np.random.default_rng(6)
        p = np.array([0.4, 0.4, 0.2])
        rho = np.diag(p).astype(complex)
        d = tc.dephasing_channel(rho)
        theta = rng.uniform(0, 2 * np.pi)
        mix = np.eye(3, dtype=complex)
        mix[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        naive = np.zeros_like(d.choi)
        basis = [mix[:, i] for i in range(3)]
        for i, vi in enumerate(basis):
            for j, vj in enumerate(basis):
                h = 2 * np.sqrt(p[i] * p[j]) / (p[i] + p[j])
                ketbra_i, ketbra_j = proj(vi), proj(vj)
                v = np.outer(ketbra_i.T.ravel(), ketbra_j.T.ravel().conj())
                naive += h * v
        assert tc.max_abs(d.choi - naive) < 1e-12

    @pytest.mark.parametrize(
        "spectrum",
        [
            [0.5, 0.3, 0.2],
            [0.4, 0.4, 0.2],
            [0.25, 0.25, 0.25, 0.25],
            [0.7, 0.3, 0.0],
            [0.4, 0.3, 0.3, 0.0, 0.0],
        ],
    )
    def test_matches_projector_definition(self, spectrum):
        # sum_kl h_kl P_k A P_l + Tr[P_perp A] 1/m over clustered spectral projectors
        p = np.array(spectrum)
        m = p.size
        rng = np.random.default_rng(m)
        u = tc.random_unitary(m, seed=rng)
        rho = u @ np.diag(p) @ u.conj().T
        spaces = tc.observable(rho).eigenspaces
        lam = np.array([v for v, _ in spaces])
        projectors = [p for _, p in spaces]
        support = [k for k in range(lam.size) if lam[k] > tc.DEFAULT_TOLS.rank * lam[-1]]
        complement = np.eye(m) - sum(projectors[k] for k in support)
        d = tc.dephasing_channel(rho)
        for _ in range(3):
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            expected = np.trace(complement @ a) * np.eye(m) / m
            for k in support:
                for l in support:
                    h = 2 * np.sqrt(lam[k] * lam[l]) / (lam[k] + lam[l])
                    expected = expected + h * projectors[k] @ a @ projectors[l]
            assert tc.max_abs(tc.apply(d, a) - expected) < 1e-12

    def test_rank_deficient_still_cptp(self):
        d = tc.dephasing_channel(np.diag([0.7, 0.3, 0.0]))
        assert tc.is_cptp(d).ok
        # kernel population is sent to the maximally mixed state
        out = tc.apply(d, np.diag([0.0, 0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-12)

    def test_iteration_converges_to_diagonal(self):
        rng = np.random.default_rng(7)
        spectrum = np.array([1.0, 0.4, 0.16, 0.064])
        spectrum /= spectrum.sum()
        u = tc.random_unitary(4, seed=rng)
        rho = u @ np.diag(spectrum) @ u.conj().T
        d = tc.dephasing_channel(rho)
        state = tc.random_density(4, seed=rng)
        previous = None
        for _ in range(200):
            state = tc.apply(d, state)
            off = u.conj().T @ state @ u
            off = off - np.diag(np.diag(off))
            norm = tc.max_abs(off)
            if previous is not None:
                assert norm <= previous + 1e-15
            previous = norm
        assert previous < 1e-8


class TestCorrelationMatrixCheck:
    def test_all_ones(self):
        valid, strict = tc.correlation_matrix_check(np.ones((3, 3)))
        assert valid and not strict

    def test_identity(self):
        valid, strict = tc.correlation_matrix_check(np.eye(3))
        assert valid and strict

    def test_harmonic_mean_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = rng.dirichlet(np.ones(5)) + 1e-6
            valid, _ = tc.correlation_matrix_check(tc.harmonic_mean_matrix(p))
            assert valid

    def test_non_unit_diagonal(self):
        valid, _ = tc.correlation_matrix_check(2 * np.eye(2))
        assert not valid


class TestPgmMap:
    def test_product_state_gives_replace(self):
        rng = np.random.default_rng(9)
        rho_a = tc.random_density(2, seed=rng)
        rho_b = tc.random_density(3, seed=rng)
        g = tc.pgm_map(tc.tensor(rho_a, rho_b), (2, 3), "a")
        np.testing.assert_allclose(g.choi, tc.replace_channel(rho_b, dim_in=2).choi, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_measure_and_prepare_form(self, seed):
        rng = np.random.default_rng(seed)
        ens = random_faithful_separable((2, 3), rng)
        tau = tc.assemble_state(ens)
        g = tc.pgm_map(tau, (2, 3), "a")
        s = tc.observable(tc.partial_trace(tau, (2, 3), "b")).inv_sqrt
        povm = [w * s @ a @ s for w, a in zip(ens.weights, ens.states_a)]
        rng2 = np.random.default_rng(seed + 100)
        for _ in range(3):
            x = rng2.standard_normal((2, 2)) + 1j * rng2.standard_normal((2, 2))
            expected = sum(
                np.trace(gk @ x) * sb for gk, sb in zip(povm, ens.states_b)
            )
            assert tc.max_abs(tc.apply(g, x) - expected) < 1e-10

    def test_bell_state_trace_preserving_not_cp(self):
        g = tc.pgm_map(bell_state(), (2, 2), "a")
        report = tc.is_cptp(g)
        assert report.tp
        assert not report.cp

    def test_positive_on_states_even_when_not_cp(self):
        rng = np.random.default_rng(10)
        g = tc.pgm_map(bell_state(), (2, 2), "a")
        for _ in range(10):
            rho = tc.random_density(2, seed=rng)
            ok, _ = tc.is_psd(tc.apply(g, rho))
            assert ok

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_matches_three_operand_reference(self, dims):
        rng = np.random.default_rng(sum(dims))
        for _ in range(3):
            tau = tc.random_density(dims[0] * dims[1], seed=rng)
            for side in "ab":
                ref = pgm_map_reference(tau, dims, side)
                np.testing.assert_allclose(tc.pgm_map(tau, dims, side).choi, ref, rtol=0, atol=1e-12)

    def test_matches_reference_on_rank_deficient_marginal(self):
        rng = np.random.default_rng(33)
        tau = tc.assemble_state(rank_deficient_separable((4, 3), 2, 5, rng))
        assert tc.observable(tc.partial_trace(tau, (4, 3), "b")).rank == 2
        ref = pgm_map_reference(tau, (4, 3), "a")
        np.testing.assert_allclose(tc.pgm_map(tau, (4, 3), "a").choi, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("func", [tc.pgm_map, tc.temporal_channel])
    def test_one_marginal_solve(self, func, monkeypatch):
        # The spectrum that validates the marginal also gives its pseudoinverse root or eigenbasis.
        tau = tc.random_density(6, seed=34)
        sizes = count_factorizations(monkeypatch)
        func(tau, (2, 3), "a")
        func(tau, (2, 3), "b")
        assert sizes == {"eigh": [2, 3], "eigvalsh": [], "cholesky": []}


def pgm_map_reference(tau: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """The Choi matrix of pgm_map as the three-operand contraction ``s[i,a] s[b,j] tau[j,x,i,y]``."""
    if side == "b":
        tau, dims = tc.swap_factors(tau, dims), (dims[1], dims[0])
    m, n = dims
    ps = tc.observable(tc.partial_trace(tau, dims, "b"))
    s = ps.inv_sqrt
    choi = np.einsum("ia,bj,jxiy->axby", s, s, tau.reshape(m, n, m, n)).reshape(m * n, m * n)
    if ps.rank < m:
        choi = choi + tc.tensor(ps.complement.T, np.eye(n) / n)
    return choi


class TestVerifyDecomposition:
    def test_product_state(self):
        rng = np.random.default_rng(11)
        tau = tc.tensor(tc.random_density(2, seed=rng), tc.random_density(2, seed=rng))
        assert tc.verify_decomposition(tau, (2, 2), "a") < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_random_separable(self, dims):
        rng = np.random.default_rng(sum(dims) + 20)
        for _ in range(5):
            tau = tc.assemble_state(random_faithful_separable(dims, rng))
            for side in ("a", "b"):
                assert tc.verify_decomposition(tau, dims, side) < 1e-10

    def test_bell_state(self):
        # the stages are not CPTP here, yet the composite identity still holds
        assert tc.verify_decomposition(bell_state(), (2, 2), "a") < 1e-10

    def test_general_hermitian_faithful(self):
        rng = np.random.default_rng(12)
        tau = random_trace_one_hermitian((2, 2), rng)
        assert tc.verify_decomposition(tau, (2, 2), "a") < 1e-10


class TestCompatibility:
    def test_bell_state_incompatible_both_sides(self):
        for side in ("a", "b"):
            report = tc.compatibility_test(bell_state(), (2, 2), side)
            assert not report.compatible
            assert abs(report.test_min_eigenvalue + 1) < 1e-8
            assert report.cptp.choi_min_eigenvalue < 0
        assert not tc.is_ppt(bell_state(), (2, 2))[0]

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_separable_states_compatible(self, dims):
        rng = np.random.default_rng(sum(dims) + 30)
        for _ in range(5):
            tau = tc.assemble_state(random_faithful_separable(dims, rng))
            for side in ("a", "b"):
                report = tc.compatibility_test(tau, dims, side)
                assert report.compatible
                assert report.cptp.ok
                assert report.reconstruction_residual < 1e-10

    def test_werner_family_threshold(self):
        for p, expected in [(0.2, True), (0.34, False), (0.9, False)]:
            report = tc.compatibility_test(werner(p), (2, 2), "a")
            assert report.compatible == expected
            # maximally mixed marginal: dephasing is trivial, test reduces to PPT
            assert abs(report.test_min_eigenvalue - (1 - 3 * p) / 2) < 1e-10

    def test_werner_boundary_flagged(self):
        report = tc.compatibility_test(werner(1 / 3), (2, 2), "a")
        assert report.boundary

    def test_cholesky_shift_sits_mid_boundary_zone(self):
        # A Werner state has test_min = (1 - 3p) / 2 and scale 1.  The Cholesky check is
        # shifted by 5 tol, so inside the boundary zone it accepts -3 tol and rejects -7 tol.
        for lam, cp in [(-3e-9, True), (-7e-9, False)]:
            report = tc.compatibility_test(werner((1 - 2 * lam) / 3), (2, 2), "a")
            assert abs(report.test_min_eigenvalue - lam) < 1e-15
            assert report.boundary and not report.compatible
            assert report.cptp.cp == cp

    def test_spectrum_match_between_paths(self):
        # The report's Choi spectrum is read off path 1; the public is_cptp solves the returned matrix.
        rng = np.random.default_rng(13)
        for _ in range(5):
            tau = random_trace_one_hermitian((3, 2), rng)
            report = tc.compatibility_test(tau, (3, 2), "a")
            oracle = tc.is_cptp(report.channel).choi_min_eigenvalue
            assert abs(report.cptp.choi_min_eigenvalue - oracle) < 1e-9

    def test_rejects_invalid_marginal(self):
        with pytest.raises(ValueError, match="marginal"):
            tc.compatibility_test(tc.tensor(np.diag([1.5, -0.5]), np.eye(2) / 2), (2, 2), "a")


def _apply_identity_to_factor(t: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    return tc.apply_to_factor(tc.identity_channel(2), t, dims, side)


@pytest.mark.parametrize(
    "func",
    [
        tc.temporal_channel,
        tc.sylvester_oracle,
        tc.pgm_map,
        tc.verify_decomposition,
        tc.compatibility_test,
        _apply_identity_to_factor,
        tc.partial_trace,
        tc.partial_transpose,
    ],
)
def test_invalid_side_raises(func):
    with pytest.raises(ValueError, match="side must be 'a' or 'b'"):
        func(np.eye(4, dtype=complex) / 4, (2, 2), "c")


def test_compatibility_test_checks_the_side_after_its_other_inputs():
    # One side check, in _oriented, after the tau, dims and tol gates.
    with pytest.raises(ValueError, match="^trace invariant violated"):
        tc.compatibility_test(np.eye(4, dtype=complex), (2, 2), "c")
    with pytest.raises(ValueError, match="^tol must be finite"):
        tc.compatibility_test(np.eye(4, dtype=complex) / 4, (2, 2), "c", tol=-1.0)


@pytest.mark.parametrize("func", [tc.temporal_channel, tc.sylvester_oracle, tc.pgm_map, tc.verify_decomposition])
@pytest.mark.parametrize("side", ["a", "b"])
def test_invalid_marginal_error_names_the_side(func, side):
    bad = np.diag([1.5, -0.5]).astype(complex)
    tau = tc.tensor(bad, np.eye(2) / 2) if side == "a" else tc.tensor(np.eye(2) / 2, bad)
    with pytest.raises(ValueError, match=f"marginal on side {side}: psd"):
        func(tau, (2, 2), side)


KERNEL_DIMS = [(m, n) for m in (2, 3, 4) for n in (2, 3)]


def _kernel_case(kind: str, dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    m, n = dims
    if kind == "density":
        return tc.random_density(m * n, seed=rng)
    if kind == "separable_rank_deficient":
        return tc.assemble_state(rank_deficient_separable(dims, m - 1, m + n, rng))
    if kind == "non_positive":
        return random_trace_one_hermitian(dims, rng)
    # isotropic: maximally entangled on min(m, n) levels mixed with white noise,
    # so each marginal has a degenerate spectrum
    k = min(m, n)
    psi = np.zeros(m * n, dtype=complex)
    psi[[i * n + i for i in range(k)]] = 1 / np.sqrt(k)
    f = rng.uniform()
    return f * proj(psi) + (1 - f) * np.eye(m * n) / (m * n)


def _composed_test_min(tau: np.ndarray, dims: tuple[int, int], side: str) -> float:
    """Smallest eigenvalue of the partial transpose of the dephased distortion, built stage by stage."""
    rho = tc.partial_trace(tau, dims, "b" if side == "a" else "a")
    inv = tc.observable(rho).inv_sqrt
    conj = tc.tensor(inv, np.eye(dims[1])) if side == "a" else tc.tensor(np.eye(dims[0]), inv)
    distorted = conj @ tau @ conj
    dephased = tc.apply_to_factor(tc.dephasing_channel(rho), distorted, dims, side)
    return float(np.linalg.eigvalsh(tc.partial_transpose(dephased, dims, side))[0])


def _pure_product_mixture() -> np.ndarray:
    """Seven pure product terms on (3, 4): faithful marginals, and a PPT partial transpose of rank 7 < 12."""
    rng = np.random.default_rng(3)
    pure = [tc.random_density(k, rank=1, seed=rng) for k in (3, 4) for _ in range(7)]
    return tc.assemble_state(tc.ProductEnsemble(rng.dirichlet(np.ones(7)), tuple(pure[:7]), tuple(pure[7:])))


class TestEigenbasisKernel:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["density", "separable_rank_deficient", "non_positive", "isotropic"]),
        dims=st.sampled_from(KERNEL_DIMS),
        side=st.sampled_from(["a", "b"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_test_matrix_matches_stagewise_composition(self, kind, dims, side, seed):
        tau = _kernel_case(kind, dims, np.random.default_rng(seed))
        report = tc.compatibility_test(tau, dims, side)
        assert abs(report.test_min_eigenvalue - _composed_test_min(tau, dims, side)) < 1e-10

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["density", "separable_rank_deficient", "non_positive", "isotropic"]),
        dims=st.sampled_from(KERNEL_DIMS),
        side=st.sampled_from(["a", "b"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_matches_public_cptp_oracle(self, kind, dims, side, seed):
        # The report reads the Choi spectrum off path 1 and decides CP by a Cholesky
        # factorization; the public is_cptp runs eigvalsh on the returned matrix.
        tau = _kernel_case(kind, dims, np.random.default_rng(seed))
        report = tc.compatibility_test(tau, dims, side)
        oracle = tc.is_cptp(report.channel, report.tolerance)
        lam = oracle.choi_min_eigenvalue
        assert abs(report.cptp.choi_min_eigenvalue - lam) <= 1e-12 * max(1.0, abs(lam))
        assert report.cptp.tp == oracle.tp
        assert report.cptp.trace_residual == oracle.trace_residual
        if not report.boundary:
            assert report.cptp.cp == oracle.cp

    def test_certify_eigensolve_count(self, monkeypatch):
        sizes = count_factorizations(monkeypatch)
        rank_deficient = rank_deficient_separable((4, 3), 3, 7, np.random.default_rng(2))
        product = tc.tensor(tc.random_density(3, seed=4), tc.random_density(4, seed=5))
        cases = [
            # faithful marginals: one eigh per side validates the marginal and gives its
            # eigenbasis, one test-matrix solve per side; the partial transpose is not PPT
            (tc.random_density(12, seed=17), (3, 4), [3, 4, 12, 12], False),
            # a rank-3 side-a marginal: that side's test matrix is solved on its 9 x 9 support block;
            # PPT, with zero partial-transpose eigenvalues
            (tc.assemble_state(rank_deficient), (4, 3), [3, 4, 9, 12], True),
            # faithful marginals, PPT, with zero partial-transpose eigenvalues, so not clear of 10 tol
            (_pure_product_mixture(), (3, 4), [3, 4, 12, 12], True),
            # a faithful product state: its partial transpose clears 10 tol
            (product, (3, 4), [3, 4, 12, 12], True),
        ]
        for tau, dims, eigensolves, ppt in cases:
            for calls in sizes.values():
                calls.clear()
            result = tc.certify(tau, dims)
            assert sorted(sizes["eigh"] + sizes["eigvalsh"]) == eigensolves
            # one Cholesky factorization of each returned Choi matrix (path 2), then one for the PPT
            # flag; the 10 tol clearance is not factored, as no side reads incompatible
            assert sizes["cholesky"] == [dims[0] * dims[1]] * (2 + 1)
            assert result.ppt == ppt
            assert result.compatible_both == ppt
        assert abs(tc.certify(_pure_product_mixture(), (3, 4)).ppt_min_eigenvalue) < 1e-15

    @pytest.mark.parametrize(
        "state, ppt, clearance",
        [("product", True, True), ("low_rank", True, False), ("entangled", False, False)],
    )
    def test_ppt_implies_compatible_is_asserted(self, monkeypatch, state, ppt, clearance):
        # Side a is made to read incompatible outside its zone.  Only on a PPT state is the
        # partial transpose factored a second time, at -10 tol; only if it clears does certify raise.
        tau = {
            "product": tc.tensor(tc.random_density(3, seed=4), tc.random_density(4, seed=5)),
            "low_rank": _pure_product_mixture(),
            "entangled": tc.random_density(12, seed=17),
        }[state]
        original = tc.temporal._side_report

        def incompatible_a(validated, side, tol):
            report = original(validated, side, tol)
            return replace(report, compatible=False, boundary=False) if side == "a" else report

        monkeypatch.setattr(tc.temporal, "_side_report", incompatible_a)
        sizes = count_factorizations(monkeypatch)
        if clearance:
            with pytest.raises(
                tc.VerdictMismatchError,
                match=r"^PPT state \(partial transpose > 1\.0e-08\) reported temporally incompatible on side a ",
            ):
                tc.certify(tau, (3, 4))
        else:
            assert tc.certify(tau, (3, 4)).ppt == ppt
        assert sizes["cholesky"] == [12] * (3 + ppt)

    @pytest.mark.parametrize("kind", ["density", "separable_rank_deficient", "non_positive", "isotropic"])
    def test_certify_returns_exactly_hermitian_choi_matrices(self, kind):
        rng = np.random.default_rng(12)
        for dims in KERNEL_DIMS + [(8, 6)]:
            result = tc.certify(_kernel_case(kind, dims, rng), dims)
            for report in (result.side_a, result.side_b):
                c = report.channel.choi
                assert np.array_equal(c, c.conj().T)

    def test_ppt_min_eigenvalue_is_solved_once_on_first_read(self, monkeypatch):
        tau = tc.random_density(12, seed=17)
        sizes = count_factorizations(monkeypatch)
        result = tc.certify(tau, (3, 4))
        sizes["eigvalsh"].clear()
        first = result.ppt_min_eigenvalue
        assert sizes["eigvalsh"] == [12]
        assert result.ppt_min_eigenvalue == first
        assert sizes["eigvalsh"] == [12]

    def test_one_sided_eigensolve_count(self, monkeypatch):
        # A one-sided call validates both marginals by eigh and solves only its own test matrix;
        # the partial transpose is factored by certify alone, once.  A map
        # built from one marginal solves it once, and the Petz maps solve each state they are built
        # from once.
        process = tc.Process(tc.random_cptp(3, 4, 2, seed=5), tc.random_density(3, seed=6))
        tau = tc.star_product(process.channel, process.input_state)
        rho = process.input_state
        sizes = count_factorizations(monkeypatch)
        one_sided = {"eigh": [3, 4], "eigvalsh": [12], "cholesky": [12]}

        def eigh_only(*eigh):
            return {"eigh": list(eigh), "eigvalsh": [], "cholesky": []}

        cases = [
            (lambda: tc.compatibility_test(tau, (3, 4), "a"), one_sided),
            (lambda: tc.compatibility_test(tau, (3, 4), "b"), one_sided),
            (lambda: tc.bayesian_inverse(process), one_sided),
            (lambda: tc.certify(tau, (3, 4)), {"eigh": [3, 4], "eigvalsh": [12] * 2, "cholesky": [12] * 3}),
            (lambda: tc.verify_decomposition(tau, (3, 4), "a"), eigh_only(3)),
            (lambda: tc.verify_decomposition(tau, (3, 4), "b"), eigh_only(4)),
            (lambda: tc.petz_selfinverse_dephasing_check(rho), eigh_only(3)),
            (lambda: tc.petz_recovery(process.channel, rho), eigh_only(3, 4)),
            (lambda: tc.pgm_map(tau, (3, 4), "a"), eigh_only(3)),
            (lambda: tc.dephasing_channel(rho), eigh_only(3)),
            (lambda: tc.sylvester_oracle(tau, (3, 4), "a"), eigh_only(3)),
        ]
        for call, expected in cases:
            for solves in sizes.values():
                solves.clear()
            call()
            assert sizes == expected

    def test_certify_makes_no_tensordot_or_kron_call(self, monkeypatch):
        # Small certifications are dominated by per-call overhead; the factor kernels are
        # plain matmuls on reshaped views.
        calls = []
        for name in ("tensordot", "kron"):

            def counted(*args, _original=getattr(np, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        tc.certify(tc.random_density(4, seed=3), (2, 2))
        assert calls == []
        tc.tensor(np.eye(2), np.eye(2))
        assert calls == ["kron"]

    def test_cholesky_path_reads_the_returned_choi(self, monkeypatch):
        # Negating a support-diagonal block of the eigenbasis array leaves path 1's spectrum
        # untouched but makes the returned Choi matrix negative on that block.
        original = tc.temporal._choi_from_eigenbasis

        def negated(s, x4):
            i = int(np.flatnonzero(s.mask)[0])
            x4[i, :, i, :] *= -1
            return original(s, x4)

        tau = tc.tensor(np.diag([0.6, 0.4]).astype(complex), np.eye(3) / 3)
        assert tc.certify(tau, (2, 3)).compatible_both
        monkeypatch.setattr(tc.temporal, "_choi_from_eigenbasis", negated)
        with pytest.raises(tc.VerdictMismatchError, match="side a: test-matrix verdict True"):
            tc.certify(tau, (2, 3))
        with pytest.raises(tc.VerdictMismatchError, match="side b: test-matrix verdict True"):
            tc.compatibility_test(tau, (2, 3), "b")

    def test_cp_path_gates_hermiticity_of_the_returned_choi(self, monkeypatch):
        # The Cholesky factorization reads only the lower triangle, so a defect placed in the
        # upper triangle is seen only by the Hermiticity gate.
        original = tc.temporal._choi_from_eigenbasis

        def skewed(s, x4):
            e = original(s, x4)
            c = e.choi.copy()
            c[0, -1] += 1e-6
            return tc.SuperOp(e.dim_in, e.dim_out, c)

        tau = tc.tensor(np.diag([0.6, 0.4]).astype(complex), np.eye(3) / 3)
        monkeypatch.setattr(tc.temporal, "_choi_from_eigenbasis", skewed)
        with pytest.raises(tc.VerdictMismatchError, match="side a: test-matrix verdict True"):
            tc.compatibility_test(tau, (2, 3), "a")
        report = tc.compatibility_test(tau, (2, 3), "a", tol=1e-5)
        assert report.cptp.hermiticity_defect == pytest.approx(1e-6)
        assert report.cptp.cp and report.compatible


INVARIANCE_DIMS = [(m, n) for m in range(2, 6) for n in range(2, 6)]
DEFAULT_TOL = tc.DEFAULT_TOLS.psd
# Rounding allowance of a threshold comparison, in units of dim * eps * scale, as in the boundary zone.
ROUNDING = tc.temporal._ZONE_ROUNDING * float(np.finfo(float).eps)


def _invariance_case(kind: str, dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    m, n = dims
    if kind == "noisy":
        f = rng.uniform()
        return f * tc.random_density(m * n, rank=1, seed=rng) + (1 - f) * np.eye(m * n) / (m * n)
    if kind == "separable_rank_deficient":
        return tc.assemble_state(rank_deficient_separable(dims, m - 1, m + n, rng))
    return random_trace_one_hermitian(dims, rng)


class TestInvariances:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["noisy", "separable_rank_deficient", "non_positive"]),
        dims=st.sampled_from(INVARIANCE_DIMS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_factor_swap_exchanges_the_sides(self, kind, dims, seed):
        # Side a of the swapped operator is side b of the original, to the last bit.
        tau = _invariance_case(kind, dims, np.random.default_rng(seed))
        original = tc.certify(tau, dims)
        swapped = tc.certify(tc.swap_factors(tau, dims), dims[::-1])
        for mine, theirs in ((swapped.side_a, original.side_b), (swapped.side_b, original.side_a)):
            assert (mine.compatible, mine.boundary) == (theirs.compatible, theirs.boundary)
            assert mine.test_min_eigenvalue == theirs.test_min_eigenvalue

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["noisy", "separable_rank_deficient", "non_positive"]),
        dims=st.sampled_from(INVARIANCE_DIMS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_local_unitaries_keep_the_verdicts(self, kind, dims, seed):
        rng = np.random.default_rng(seed)
        tau = _invariance_case(kind, dims, rng)
        local = tc.tensor(tc.random_unitary(dims[0], seed=rng), tc.random_unitary(dims[1], seed=rng))
        original = tc.certify(tau, dims)
        rotated = tc.certify(local @ tau @ local.conj().T, dims)
        for mine, theirs in ((rotated.side_a, original.side_a), (rotated.side_b, original.side_b)):
            # The test matrix's spectrum is the Choi matrix's, up to 1/n <= 1 on a kernel.
            scale = max(1.0, float(np.linalg.eigvalsh(theirs.channel.choi)[-1]))
            assert abs(mine.test_min_eigenvalue - theirs.test_min_eigenvalue) <= 1e-12 * scale
            if not (mine.boundary or theirs.boundary):
                assert mine.compatible == theirs.compatible

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["noisy", "separable_rank_deficient", "non_positive"]),
        dims=st.sampled_from(INVARIANCE_DIMS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_complex_conjugation_keeps_the_verdicts(self, kind, dims, seed):
        # conj(tau) = tau^T has the conjugated marginals and channels, so every spectrum is kept.
        tau = _invariance_case(kind, dims, np.random.default_rng(seed))
        original = tc.certify(tau, dims)
        conjugated = tc.certify(tau.conj(), dims)
        for mine, theirs in ((conjugated.side_a, original.side_a), (conjugated.side_b, original.side_b)):
            scale = max(1.0, float(np.linalg.eigvalsh(theirs.channel.choi)[-1]))
            assert abs(mine.test_min_eigenvalue - theirs.test_min_eigenvalue) <= 1e-12 * scale
            if not (mine.boundary or theirs.boundary):
                assert mine.compatible == theirs.compatible
        lam, scale = original.ppt_min_eigenvalue, max(1.0, float(np.linalg.norm(tau)))
        assert abs(conjugated.ppt_min_eigenvalue - lam) <= 1e-12 * scale
        # Both flags compare the same spectrum with the same threshold, -tol * scale.
        if abs(lam + DEFAULT_TOL * scale) > ROUNDING * tau.shape[0] * scale:
            assert conjugated.ppt == original.ppt

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dims=st.sampled_from(INVARIANCE_DIMS), weight=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_convexity_at_a_fixed_marginal(self, dims, weight, seed):
        # At a fixed marginal the test matrix is linear in tau, and weight E1 * rho + (1 - weight) E2 * rho
        # is the state over time of the CPTP mixture: compatible on side a, whose unique temporal
        # channel on a faithful rho is that mixture.
        rng = np.random.default_rng(seed)
        m, n = dims
        rho = tc.random_density(m, seed=rng)
        e1, e2 = (tc.random_cptp(m, n, -(-m // n) + int(rng.integers(0, 2)), seed=rng) for _ in range(2))
        tau = weight * tc.star_product(e1, rho) + (1 - weight) * tc.star_product(e2, rho)
        report = tc.compatibility_test(tau, dims, "a")
        assert report.compatible or report.boundary
        assert report.reconstruction_residual <= 1e-12
        # The map is compared through its action, not by Choi convention.
        inputs = np.stack([tc.random_density(m, seed=rng) for _ in range(3)] + [tc.random_unitary(m, seed=rng)])
        mixed = weight * tc.apply(e1, inputs) + (1 - weight) * tc.apply(e2, inputs)
        p = np.linalg.eigvalsh(rho)
        assert tc.max_abs(tc.apply(report.channel, inputs) - mixed) <= 1e-13 * p[-1] / p[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["faithful", "rank_deficient"]),
        dims=st.sampled_from(INVARIANCE_DIMS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_separable_states_are_compatible_both_ways(self, kind, dims, seed):
        # A separable tau is E * rho_a for a measure-and-prepare E on either side, so both verdicts hold
        # and both returned channels reproduce tau; separable states are PPT.
        rng = np.random.default_rng(seed)
        m, n = dims
        if kind == "faithful":
            tau = tc.assemble_state(random_faithful_separable(dims, rng))
        else:
            tau = tc.assemble_state(rank_deficient_separable(dims, m - 1, m + n, rng))
        result = tc.certify(tau, dims)
        for report in (result.side_a, result.side_b):
            assert report.compatible or report.boundary
            assert report.reconstruction_residual <= 1e-12
        assert result.ppt

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from(INVARIANCE_DIMS),
        rank=st.integers(1, 25),
        toward_boundary=st.floats(0.0, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ppt_states_outside_the_zone_are_compatible(self, dims, rank, toward_boundary, seed):
        # A state mixed with white noise to a fraction f of the way to its PPT boundary has a partial
        # transpose of least eigenvalue at least (1 - f) / d, far outside the zone, so it is compatible
        # in both directions, as a PPT state must be.
        rng = np.random.default_rng(seed)
        d = dims[0] * dims[1]
        state = tc.random_density(d, rank=min(rank, d), seed=rng)
        lam = float(np.linalg.eigvalsh(tc.partial_transpose(state, dims, "a"))[0])
        f = toward_boundary * (1.0 if lam >= 0 else (1 / d) / (1 / d - lam))
        tau = f * state + (1 - f) * np.eye(d) / d
        least = float(np.linalg.eigvalsh(tc.partial_transpose(tau, dims, "a"))[0])
        assert least >= (1 - toward_boundary) / d - 1e-12
        result = tc.certify(tau, dims)
        assert result.ppt
        for report in (result.side_a, result.side_b):
            assert report.compatible and not report.boundary
            assert report.reconstruction_residual <= 1e-12

def _ppt_case(kind: str, dims: tuple[int, int], rng: np.random.Generator) -> tuple[np.ndarray, tuple[int, int]]:
    m, n = dims
    if kind == "density":
        return tc.random_density(m * n, seed=rng), dims
    if kind == "separable":
        return tc.assemble_state(tc.random_separable(m, n, m + n, seed=rng)), dims
    if kind == "isotropic":
        return _kernel_case(kind, dims, rng), dims
    if kind == "non_positive":
        # ||tau||_F up to about 4, mixed toward white noise so that the partial transpose's
        # least eigenvalue sweeps through 0.
        f = rng.uniform()
        wide = random_trace_one_hermitian(dims, rng, strength=rng.uniform(0.5, 8.0))
        return f * wide + (1 - f) * np.eye(m * n) / (m * n), dims
    # The partial transpose of c |Phi><Phi| + (1 - c) 1/d with c > 1, on m x m levels: its
    # marginals are 1/m, and its partial transpose has least eigenvalue -(c - 1) / d and
    # greatest c (d - 1) / d + 1 / d > 1, so the two PSD floors are far apart.
    d = m * m
    phi = np.eye(m).ravel() / np.sqrt(m)
    c = rng.uniform(1.0, 4.0)
    return tc.partial_transpose(c * proj(phi) + (1 - c) * np.eye(d) / d, (m, m), "a"), (m, m)


class TestPptFlag:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["density", "non_positive", "separable", "isotropic", "wide_pt"]),
        dims=st.sampled_from(INVARIANCE_DIMS),
        seed=st.integers(0, 2**32 - 1),
        tol=st.sampled_from([DEFAULT_TOL, 1e-3, 5e-2]),
    )
    def test_certify_flag_matches_is_ppt(self, kind, dims, seed, tol):
        # certify factors the partial transpose at -10 tol, then at tol * max(1, ||tau||_F);
        # is_ppt solves it and applies -tol * max(1, lambda_max).  The Frobenius norm bounds
        # lambda_max, so the flags may differ only between the two floors, where a density
        # tau (||tau||_F <= 1) never is.
        tau, dims = _ppt_case(kind, dims, np.random.default_rng(seed))
        ok, lam = tc.is_ppt(tau, dims, tol)
        result = tc.certify(tau, dims, tol)
        assert result.ppt_min_eigenvalue == lam
        lam_max = float(np.linalg.eigvalsh(tc.partial_transpose(tau, dims, "a"))[-1])
        scale = max(1.0, float(np.linalg.norm(tau)))
        rounding = ROUNDING * tau.shape[0] * scale
        if not -tol * scale - rounding <= lam <= -tol * max(1.0, lam_max) + rounding:
            assert result.ppt == ok


class TestIsPpt:
    def test_separable_is_ppt(self):
        rng = np.random.default_rng(14)
        tau = tc.assemble_state(tc.random_separable(2, 2, 4, seed=rng))
        ok, _ = tc.is_ppt(tau, (2, 2))
        assert ok

    def test_bell_state(self):
        ok, lam = tc.is_ppt(bell_state(), (2, 2))
        assert not ok
        assert abs(lam + 0.5) < 1e-12

    def test_werner_boundary(self):
        _, lam = tc.is_ppt(werner(1 / 3), (2, 2))
        assert abs(lam) < 1e-9


class TestCertify:
    def test_octahedral_state(self):
        tau = tc.assemble_state(octahedral_ensemble())
        result = tc.certify(tau, (2, 2))
        assert result.side_a.compatible and result.side_b.compatible and result.ppt
        assert result.compatible_both

    def test_bell_state(self):
        result = tc.certify(bell_state(), (2, 2))
        assert not result.side_a.compatible
        assert not result.side_b.compatible
        assert not result.ppt

    def test_non_faithful_product(self):
        tau = tc.tensor(proj(KET0), np.eye(2) / 2)
        result = tc.certify(tau, (2, 2))
        assert result.compatible_both and result.ppt
        assert not result.side_a.faithful_marginal
        assert result.side_b.faithful_marginal


class TestDistort:
    def test_decohered_transpose_identity(self):
        # ((T o D) x id) applied to the distortion equals (D o Ad) applied to
        # the eigenbasis partial transpose
        rng = np.random.default_rng(16)
        tau = tc.assemble_state(random_faithful_separable((3, 2), rng))
        rho_a = tc.partial_trace(tau, (3, 2), "b")
        inv = tc.observable(rho_a).inv_sqrt
        _, u = np.linalg.eigh(rho_a)
        deph = tc.dephasing_channel(rho_a)
        conj = tc.tensor(inv, np.eye(2))
        # The transpose in basis u is W X^T W^dag on that factor, with W = u u^T.
        w = tc.tensor(u @ u.T, np.eye(2))

        def transpose_in_eigenbasis(x):
            return w @ tc.partial_transpose(x, (3, 2), "a") @ w.conj().T

        lhs = transpose_in_eigenbasis(tc.apply_to_factor(deph, conj @ tau @ conj, (3, 2), "a"))
        tau_pt = transpose_in_eigenbasis(tau)
        rhs = tc.apply_to_factor(deph, conj @ tau_pt @ conj, (3, 2), "a")
        assert tc.max_abs(lhs - rhs) < 1e-10
