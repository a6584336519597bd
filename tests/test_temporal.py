"""Tests for temporal channels, the channel decomposition, and certification."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    DEFAULT_TOL,
    DERANDOMIZED,
    KET0,
    KET1,
    bell_state,
    cases,
    count_factorizations,
    family,
    octahedral_ensemble,
    proj,
    random_faithful_separable,
    random_trace_one_hermitian,
    rank_deficient_separable,
    retained_input_sizes,
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
KERNEL_KINDS = ["density", "separable_rank_deficient", "non_positive", "noisy_max_entangled"]
DIMS = [(m, n) for m in range(2, 6) for n in range(2, 6)]
SIDE_KINDS = ["density", "faithful_separable", "separable_rank_deficient", "non_positive"]


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
    @settings(**DERANDOMIZED, max_examples=80)
    @given(case=cases(KERNEL_KINDS, KERNEL_DIMS), side=st.sampled_from(["a", "b"]))
    def test_test_matrix_matches_stagewise_composition(self, case, side):
        report = tc.compatibility_test(case.tau, case.dims, side)
        assert abs(report.test_min_eigenvalue - _composed_test_min(case.tau, case.dims, side)) < 1e-10

    @settings(**DERANDOMIZED, max_examples=80)
    @given(case=cases(KERNEL_KINDS, KERNEL_DIMS), side=st.sampled_from(["a", "b"]))
    def test_report_matches_public_cptp_oracle(self, case, side):
        # The report reads the Choi spectrum off path 1 and decides CP by a Cholesky factorization; the public
        # is_cptp runs eigvalsh on the returned matrix.
        report = tc.compatibility_test(case.tau, case.dims, side)
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
        # One eigh per side validates the marginal and gives its eigenbasis; no test matrix is solved.
        # The factorizations are the PPT flag's, then per side its probes of the support block and the
        # one of its returned Choi matrix (path 2).  A side above the zone takes 1 probe, one below it
        # 2, and one in it 3, or 2 on a rank-deficient marginal, which skips the probe above the zone.
        # A faithful side of a non-PPT state is probed below the zone first, so below it takes 1 probe.
        cases = [
            # faithful marginals, both sides below the zone; the partial transpose is not PPT: 5 factorizations
            (tc.random_density(12, seed=17), (3, 4), [12] + [12] * (1 + 1) * 2, False),
            # a rank-3 side-a marginal: its probes factor the 9 x 9 support block, and it is in the zone,
            # as is side b; PPT, with zero partial-transpose eigenvalues
            (tc.assemble_state(rank_deficient), (4, 3), [12] + [9] * 2 + [12] + [12] * (3 + 1), True),
            # faithful marginals, both sides above the zone; PPT, with zero partial-transpose eigenvalues,
            # so not clear of 10 tol
            (_pure_product_mixture(), (3, 4), [12] + [12] * (1 + 1) * 2, True),
            # a faithful product state: its partial transpose clears 10 tol
            (product, (3, 4), [12] + [12] * (1 + 1) * 2, True),
        ]
        for tau, dims, factorizations, ppt in cases:
            for calls in sizes.values():
                calls.clear()
            result = tc.certify(tau, dims)
            assert sorted(sizes["eigh"]) == [3, 4]
            assert sizes["eigvalsh"] == []
            # the 10 tol clearance is not factored, as no side reads incompatible
            assert sizes["cholesky"] == factorizations
            assert result.ppt == ppt
            assert result.compatible_both == ppt
        assert abs(tc.certify(_pure_product_mixture(), (3, 4)).ppt_min_eigenvalue) < 1e-15

    def test_reports_pickle_with_their_lazy_fields_unread(self):
        # The lazy fields hold a partial of a module-level function, not a closure, so the reports pickle.
        result = tc.certify(tc.random_density(6, seed=1), (2, 3))
        cptp = tc.is_cptp(tc.random_cptp(3, 2, 2, seed=4))
        side, checked = pickle.loads(pickle.dumps((result.side_b, cptp)))
        assert side.test_min_eigenvalue == result.side_b.test_min_eigenvalue
        assert side.cptp.choi_min_eigenvalue == result.side_b.cptp.choi_min_eigenvalue
        assert checked.choi_min_eigenvalue == cptp.choi_min_eigenvalue

    def test_retained_reports_hold_no_copy_of_tau(self):
        # A side report holds its Choi matrix, the size of tau, and nothing else of that size: its lazy minima
        # read that matrix.  A certify result holds two Choi matrices and tau's Hermitian part, which its lazy
        # ppt_min_eigenvalue reads.
        tau = tc.random_density(256, seed=3)
        assert retained_input_sizes(tc.compatibility_test, tau, (16, 16), "a") <= 1.05
        assert retained_input_sizes(tc.certify, tau, (16, 16)) == pytest.approx(3.0, abs=0.05)

    @pytest.mark.parametrize("field", ["test_min_eigenvalue", "choi_min_eigenvalue"])
    def test_side_minima_share_one_solve_on_first_read(self, monkeypatch, field):
        # Either field, read first, solves the side's returned Choi matrix once, at m n = 12 also on the
        # rank-3 side a; the other then reads it.  No read rebuilds the test matrix from tau.
        rank_deficient = tc.assemble_state(rank_deficient_separable((4, 3), 3, 7, np.random.default_rng(2)))
        result = tc.certify(rank_deficient, (4, 3))
        sizes = count_factorizations(monkeypatch)
        for name in ("_eigenbasis_array", "_conjugate_first"):
            monkeypatch.setattr(tc.temporal, name, lambda *args, _name=name: pytest.fail(f"{_name} was called"))
        for report in (result.side_a, result.side_b):
            first = report.test_min_eigenvalue if field == "test_min_eigenvalue" else report.cptp.choi_min_eigenvalue
            assert isinstance(first, float)
            assert sizes == {"eigh": [], "eigvalsh": [12], "cholesky": []}
            assert first in (report.test_min_eigenvalue, report.cptp.choi_min_eigenvalue)
            assert sizes == {"eigh": [], "eigvalsh": [12], "cholesky": []}
            sizes["eigvalsh"].clear()

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

        def incompatible_a(validated, side, tol, ppt):
            report = original(validated, side, tol, ppt)
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
        # The PPT flag, then per side its probes and path 2: both PPT states' sides are above the zone,
        # the entangled state's below it, probed there first (1 probe each); the error message solves
        # side a's support block.
        assert sizes["cholesky"] == [12] * (1 + 2 * (1 + 1) + ppt)
        assert sizes["eigvalsh"] == [12] * clearance

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_certify_returns_exactly_hermitian_choi_matrices(self, kind):
        rng = np.random.default_rng(12)
        for dims in KERNEL_DIMS + [(8, 6)]:
            result = tc.certify(family(kind, dims, rng)[0], dims)
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
        # A one-sided call validates both marginals by eigh and factors only its own test matrix,
        # by probes, and its Choi matrix: side a of this state is in the zone (3 probes), side b
        # below it (2, or 1 in certify, which probes a side of this non-PPT state below the zone
        # first).  The partial transpose is factored by certify alone, once.  A map
        # built from one marginal solves it once, and the Petz maps solve each state they are built
        # from once.
        process = tc.Process(tc.random_cptp(3, 4, 2, seed=5), tc.random_density(3, seed=6))
        tau = tc.star_product(process.channel, process.input_state)
        rho = process.input_state
        sizes = count_factorizations(monkeypatch)

        def eigh_only(*eigh):
            return {"eigh": list(eigh), "eigvalsh": [], "cholesky": []}

        def probed(*factorizations):
            return {"eigh": [3, 4], "eigvalsh": [], "cholesky": [12] * sum(factorizations)}

        cases = [
            (lambda: tc.compatibility_test(tau, (3, 4), "a"), probed(3 + 1)),
            (lambda: tc.compatibility_test(tau, (3, 4), "b"), probed(2 + 1)),
            (lambda: tc.bayesian_inverse(process), probed(2 + 1)),
            (lambda: tc.certify(tau, (3, 4)), probed(1, 3 + 1, 1 + 1)),
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
        # untouched but makes the returned Choi matrix negative on that block.  On side a the
        # support block is 1/3 and the Choi matrix's least eigenvalue -1/3: the message quotes both.
        original = tc.temporal._choi_from_eigenbasis

        def negated(s, x4):
            i = int(np.flatnonzero(s.mask)[0])
            x4[i, :, i, :] *= -1
            return original(s, x4)

        tau = tc.tensor(np.diag([0.6, 0.4]).astype(complex), np.eye(3) / 3)
        assert tc.certify(tau, (2, 3)).compatible_both
        monkeypatch.setattr(tc.temporal, "_choi_from_eigenbasis", negated)
        with pytest.raises(
            tc.VerdictMismatchError,
            match=r"^side a: test-matrix verdict True \(min eig 3\.333e-01\) disagrees with channel CP verdict "
            r"False \(choi min eig -3\.333e-01\)$",
        ):
            tc.certify(tau, (2, 3))
        with pytest.raises(tc.VerdictMismatchError, match="side b: test-matrix verdict True"):
            tc.compatibility_test(tau, (2, 3), "b")

    @settings(**DERANDOMIZED, max_examples=120)
    @given(case=cases(SIDE_KINDS, DIMS))
    def test_side_reports_need_no_hermiticity_gate(self, case):
        # Each side's Choi matrix is returned exactly Hermitian, so its defect is 0.0 and path 2 gates nothing
        # on it; its reconstruction residual, formed from one matmul, agrees with star_product's (reverse_star's
        # on side b).  On 8,000 sides of these families the two differed by at most 0.5 eps max(1, max|C|).
        tau, dims = case.tau, case.dims
        result = tc.certify(tau, dims)
        for report in (result.side_a, result.side_b):
            c = report.channel.choi
            assert np.array_equal(c, c.conj().T)
            assert report.cptp.hermiticity_defect == 0.0
            rho = tc.partial_trace(tau, dims, "b" if report.side == "a" else "a")
            star = tc.star_product if report.side == "a" else tc.reverse_star
            reference = tc.max_abs(star(report.channel, rho) - tau)
            unit = float(np.finfo(float).eps) * max(1.0, tc.max_abs(c))
            assert abs(report.reconstruction_residual - reference) <= 4 * unit

    def test_side_report_runs_only_the_gates_its_outputs_need(self, monkeypatch):
        # The one Hermiticity defect is tau's, in its gate; each side runs the TP gate on its Choi matrix and
        # builds its residual with no star product.
        tau = tc.random_density(6, seed=4)
        calls = {"_defect": [], "_tp_gate": [], "star_product": []}
        for module, name in ((tc.operators, "_defect"), (tc.temporal, "_tp_gate"), (tc.sot, "star_product")):

            def counted(a, *args, _original=getattr(module, name), _calls=calls[name]):
                _calls.append(np.shape(a) if isinstance(a, np.ndarray) else (a.dim_in, a.dim_out))
                return _original(a, *args)

            monkeypatch.setattr(module, name, counted)
        tc.certify(tau, (2, 3))
        assert calls == {"_defect": [(6, 6)], "_tp_gate": [(2, 3), (3, 2)], "star_product": []}
        for found in calls.values():
            found.clear()
        tc.compatibility_test(tau, (2, 3), "b")
        assert calls == {"_defect": [(6, 6)], "_tp_gate": [(3, 2)], "star_product": []}

    def test_certify_forms_three_hermitian_parts(self, monkeypatch):
        # tau's and each side's Choi matrix, the last straight from the rotation's strided (m, n, m, n)
        # output, with no copy before it; and each side's state over time E * rho, which the residual
        # symmetrizes from one matmul.  The Choi matrix is returned exactly Hermitian, so no gate forms
        # its Hermitian part again.
        tau = tc.assemble_state(tc.random_separable(2, 3, 5, seed=3))
        shapes = []
        original = tc.operators._hermitian_part

        def counted(a):
            shapes.append(a.shape)
            return original(a)

        for module in (tc.operators, tc.temporal):
            monkeypatch.setattr(module, "_hermitian_part", counted)
        tc.certify(tau, (2, 3))
        assert shapes == [(6, 6)] + [(2, 3, 2, 3)] * 2 + [(3, 2, 3, 2)] * 2


TOLS = [DEFAULT_TOL, 1e-3, 5e-2]
# Rounding allowance of a threshold comparison, in units of dim * eps * scale, as in the boundary zone.
ROUNDING = tc.temporal._ZONE_ROUNDING * float(np.finfo(float).eps)
INVARIANCE_KINDS = ["noisy_pure", "separable_rank_deficient", "non_positive"]


class TestInvariances:
    @settings(**DERANDOMIZED, max_examples=60)
    @given(case=cases(INVARIANCE_KINDS, DIMS))
    def test_factor_swap_exchanges_the_sides(self, case):
        # Side a of the swapped operator is side b of the original, to the last bit.
        tau, dims = case.tau, case.dims
        original = tc.certify(tau, dims)
        swapped = tc.certify(tc.swap_factors(tau, dims), dims[::-1])
        for mine, theirs in ((swapped.side_a, original.side_b), (swapped.side_b, original.side_a)):
            assert (mine.compatible, mine.boundary) == (theirs.compatible, theirs.boundary)
            assert mine.test_min_eigenvalue == theirs.test_min_eigenvalue

    @settings(**DERANDOMIZED, max_examples=60)
    @given(case=cases(INVARIANCE_KINDS, DIMS))
    def test_local_unitaries_keep_the_verdicts(self, case):
        tau, dims, rng = case.tau, case.dims, case.rng
        local = tc.tensor(tc.random_unitary(dims[0], seed=rng), tc.random_unitary(dims[1], seed=rng))
        original = tc.certify(tau, dims)
        rotated = tc.certify(local @ tau @ local.conj().T, dims)
        for mine, theirs in ((rotated.side_a, original.side_a), (rotated.side_b, original.side_b)):
            # The test matrix's spectrum is the Choi matrix's, up to 1/n <= 1 on a kernel.
            scale = max(1.0, float(np.linalg.eigvalsh(theirs.channel.choi)[-1]))
            assert abs(mine.test_min_eigenvalue - theirs.test_min_eigenvalue) <= 1e-12 * scale
            if not (mine.boundary or theirs.boundary):
                assert mine.compatible == theirs.compatible

    @settings(**DERANDOMIZED, max_examples=60)
    @given(case=cases(INVARIANCE_KINDS, DIMS))
    def test_complex_conjugation_keeps_the_verdicts(self, case):
        # conj(tau) = tau^T has the conjugated marginals and channels, so every spectrum is kept.
        tau, dims = case.tau, case.dims
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

    @settings(**DERANDOMIZED, max_examples=60)
    @given(case=cases(["star_mixture"], DIMS))
    def test_convexity_at_a_fixed_marginal(self, case):
        # At a fixed marginal the test matrix is linear in tau, and weight E1 * rho + (1 - weight) E2 * rho
        # is the state over time of the CPTP mixture: compatible on side a, whose unique temporal
        # channel on a faithful rho is that mixture.
        tau, dims, rng = case.tau, case.dims, case.rng
        m = dims[0]
        report = tc.compatibility_test(tau, dims, "a")
        assert report.compatible or report.boundary
        assert report.reconstruction_residual <= 1e-12
        # The map is compared through its action, not by Choi convention.
        inputs = np.stack([tc.random_density(m, seed=rng) for _ in range(3)] + [tc.random_unitary(m, seed=rng)])
        mixed = tc.apply(case.truth, inputs)  # the family's mixture channel
        p = np.linalg.eigvalsh(tc.partial_trace(tau, dims, "b"))
        assert tc.max_abs(tc.apply(report.channel, inputs) - mixed) <= 1e-13 * p[-1] / p[0]

    @settings(**DERANDOMIZED, max_examples=60)
    @given(case=cases(["faithful_separable", "separable_rank_deficient"], DIMS))
    def test_separable_states_are_compatible_both_ways(self, case):
        # A separable tau is E * rho_a for a measure-and-prepare E on either side, so both verdicts hold
        # and both returned channels reproduce tau; separable states are PPT.
        result = tc.certify(case.tau, case.dims)
        for report in (result.side_a, result.side_b):
            assert report.compatible or report.boundary
            assert report.reconstruction_residual <= 1e-12
        assert result.ppt

    @settings(**DERANDOMIZED, max_examples=60)
    @given(case=cases(["ppt_mixed"], DIMS))
    def test_ppt_states_outside_the_zone_are_compatible(self, case):
        # The family's partial transpose has least eigenvalue at least (1 - f) / d, far outside the zone, so
        # tau is compatible in both directions, as a PPT state must be.
        result = tc.certify(case.tau, case.dims)
        assert result.ppt
        for report in (result.side_a, result.side_b):
            assert report.compatible and not report.boundary
            assert report.reconstruction_residual <= 1e-12


class TestPptFlag:
    @settings(**DERANDOMIZED, max_examples=300)
    @given(case=cases(["density", "wide_non_positive", "separable", "noisy_max_entangled", "wide_pt"], DIMS, TOLS))
    def test_certify_flag_matches_is_ppt(self, case):
        # certify factors the partial transpose at -10 tol, then at tol * max(1, ||tau||_F);
        # is_ppt solves it and applies -tol * max(1, lambda_max).  The Frobenius norm bounds
        # lambda_max, so the flags may differ only between the two floors, where a density
        # tau (||tau||_F <= 1) never is.
        tau, dims, tol = case.tau, case.dims, case.tol
        ok, lam = tc.is_ppt(tau, dims, tol)
        result = tc.certify(tau, dims, tol)
        assert result.ppt_min_eigenvalue == lam
        lam_max = float(np.linalg.eigvalsh(tc.partial_transpose(tau, dims, "a"))[-1])
        scale = max(1.0, float(np.linalg.norm(tau)))
        rounding = ROUNDING * tau.shape[0] * scale
        if not -tol * scale - rounding <= lam <= -tol * max(1.0, lam_max) + rounding:
            assert result.ppt == ok


def _block_norms(report: tc.CompatibilityReport, rank: int) -> tuple[float, float]:
    """``||X||_F`` and ``lambda_max`` of a side's support block ``X``, read off the returned Choi matrix: ``X``
    rotated, plus ``1/n`` on the ``(m - r) n`` kernel rows of a rank-deficient marginal.  ``X`` has mean
    eigenvalue ``1/n``, so the kernel's ``1/n`` never exceeds ``lambda_max``."""
    m, n = report.channel.dim_in, report.channel.dim_out
    c = report.channel.choi
    frob = np.sqrt(max(float(np.linalg.norm(c)) ** 2 - (m - rank) / n, 0.0))
    return frob, float(np.linalg.eigvalsh(c)[-1])


class TestSideFlag:
    @settings(**DERANDOMIZED, max_examples=300)
    @given(
        case=cases(
            ["density", "separable_rank_deficient", "wide_non_positive", "noisy_max_entangled", "zone"], DIMS, TOLS
        )
    )
    def test_side_flags_match_the_spectrum(self, case):
        # Each side's flags come from Cholesky probes of its support block X at +-zone and tol * scale, with
        # scale = max(1, ||X||_F).  They must match the least eigenvalue lam, solved when read, against the
        # same thresholds, outside the rounding of the probe shifts.  The Frobenius norm bounds
        # lambda_max, so the flags may differ from the rule max(1, lambda_max) only between the two
        # scales' floors (compatible) or zone edges (boundary).
        tau, dims, tol = case.tau, case.dims, case.tol
        result = tc.certify(tau, dims, tol)
        for report, kept in ((result.side_a, "b"), (result.side_b, "a")):
            rank = tc.observable(tc.partial_trace(tau, dims, kept)).rank
            frob, lam_max = _block_norms(report, rank)
            lam = report.test_min_eigenvalue
            scale, parent_scale = max(1.0, frob), max(1.0, lam_max)
            edge = 10 * tol + ROUNDING * tau.shape[0]  # the zone's half-width per unit of scale
            rounding = ROUNDING * tau.shape[0] * scale
            if abs(lam + tol * scale) > rounding:
                assert report.compatible == (lam >= -tol * scale)
            if abs(abs(lam) - edge * scale) > rounding:
                assert report.boundary == (abs(lam) < edge * scale)
            if not -tol * scale - rounding <= lam <= -tol * parent_scale + rounding:
                assert report.compatible == (lam >= -tol * parent_scale)
            if not edge * parent_scale - rounding <= abs(lam) <= edge * scale + rounding:
                assert report.boundary == (abs(lam) < edge * parent_scale)


def _report_bytes(report: tc.CompatibilityReport) -> tuple:
    """Every field of a side report, floats as ``float.hex`` and the Choi matrix as its bytes."""
    cptp = report.cptp
    return (
        report.compatible,
        report.boundary,
        report.faithful_marginal,
        cptp.cp,
        cptp.tp,
        float.hex(report.reconstruction_residual),
        float.hex(cptp.trace_residual),
        float.hex(cptp.hermiticity_defect),
        report.channel.choi.tobytes(),
        float.hex(report.test_min_eigenvalue),
        float.hex(cptp.choi_min_eigenvalue),
    )


class TestProbeOrder:
    @settings(**DERANDOMIZED, max_examples=200)
    @given(
        case=cases(
            ["density", "faithful_separable", "separable_rank_deficient", "wide_non_positive", "zone"], DIMS, TOLS
        )
    )
    def test_probe_order_changes_no_report(self, case):
        # certify probes a faithful side of a non-PPT state below the zone first, and any other side above it
        # first.  Each probe shifts its array in place and writes the saved diagonal back, so x4, from which
        # the Choi matrix is built after the probes, and the Choi matrix, probed after it is built, are left
        # as they were, and both orders give the same report to the bit.
        tau, dims, tol = case.tau, case.dims, case.tol
        validated = tc.temporal._validated(tau, dims)
        probe = tc.temporal._cholesky_cp

        def restoring(a, shift):
            before = a.tobytes()
            ok = probe(a, shift)
            assert a.tobytes() == before
            return ok

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tc.temporal, "_cholesky_cp", restoring)
            for side in "ab":
                below_first, above_first = (tc.temporal._side_report(validated, side, tol, p) for p in (False, None))
                assert _report_bytes(below_first) == _report_bytes(above_first)
                assert below_first.channel.choi.tobytes() == tc.temporal_channel(tau, dims, side).choi.tobytes()


class TestSideMinima:
    @settings(**DERANDOMIZED, max_examples=150)
    @given(case=cases(SIDE_KINDS, DIMS))
    def test_minima_are_read_off_the_returned_choi(self, case):
        # A side's minima are one eigensolve of the Choi matrix it returns, whose spectrum is its support block
        # X's, plus 1/n on a marginal's kernel, where the test matrix has zeros; they agree with a solve of X
        # rebuilt from tau up to rounding.
        tau, dims = case.tau, case.dims
        validated = tc.temporal._validated(tau, dims)
        result = tc.certify(tau, dims)
        for report in (result.side_a, result.side_b):
            s = validated[1][report.side]
            choi_min = float(np.linalg.eigvalsh(report.channel.choi)[0])
            assert float.hex(report.cptp.choi_min_eigenvalue) == float.hex(choi_min)
            test_min = choi_min if report.faithful_marginal else min(choi_min, 0.0)
            assert float.hex(report.test_min_eigenvalue) == float.hex(test_min)
            x4 = tc.temporal._eigenbasis_array(tc.temporal._oriented(validated[0], report.side), s)
            block = tc.temporal._support_block(x4, s)
            block_min = float(np.linalg.eigvalsh(block)[0])
            allowance = 1e-12 * max(1.0, float(np.linalg.norm(block)))
            assert abs(choi_min - block_min) <= allowance
            assert abs(test_min - (block_min if s.rank == len(s.p) else min(block_min, 0.0))) <= allowance


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
