"""Tests for the dense linear-algebra kernel."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from conftest import SIGMA_X, SIGMA_Z, bell_state, proj, random_hermitian

import tempcert as tc
from tempcert.operators import require_hermitian

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class TestEigHermitian:
    """The clustered eigendecomposition of an observable: ``tc.observable(m).eigenspaces``."""

    def test_sigma_z(self):
        (lo, p_lo), (hi, p_hi) = tc.observable(SIGMA_Z).eigenspaces
        assert (lo, hi) == pytest.approx((-1, 1))
        np.testing.assert_allclose(p_lo, np.diag([0.0, 1.0]))
        np.testing.assert_allclose(p_hi, np.diag([1.0, 0.0]))

    def test_identity_single_cluster(self):
        ((lam, p),) = tc.observable(np.eye(2)).eigenspaces
        assert lam == pytest.approx(1)
        np.testing.assert_allclose(p, np.eye(2))

    def test_sigma_x(self):
        # 2x2 closed form: eigenvectors (1, +-1)/sqrt(2)
        (lo, p_lo), (hi, p_hi) = tc.observable(SIGMA_X).eigenspaces
        assert (lo, hi) == pytest.approx((-1, 1))
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(p_lo, minus, atol=1e-12)
        np.testing.assert_allclose(p_hi, plus, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_orthogonality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            m = random_hermitian(dim, rng)
            spaces = tc.observable(m).eigenspaces
            lams = [lam for lam, _ in spaces]
            assert lams == sorted(lams)
            assert sum(np.trace(p).real for _, p in spaces) == pytest.approx(dim)
            np.testing.assert_allclose(sum(lam * p for lam, p in spaces), m, atol=1e-9)
            for i, (_, p) in enumerate(spaces):
                np.testing.assert_allclose(p @ p, p, atol=1e-9)
                for _, q in spaces[i + 1 :]:
                    assert tc.max_abs(p @ q) < 1e-9

    def test_degenerate_spectrum_clusters(self):
        rho = np.diag([0.4, 0.4 + 1e-12, 0.2]).astype(complex)
        spaces = tc.observable(rho).eigenspaces
        assert [round(np.trace(p).real) for _, p in spaces] == [1, 2]
        assert [lam for lam, _ in spaces] == pytest.approx([0.2, 0.4 + 5e-13])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermiticity"):
            tc.observable(np.array([[0, 1], [0, 0]], dtype=complex))


def test_package_makes_one_eigh_call():
    # Every eigendecomposition, of a state or an observable, is the one Spectrum record built by _spectrum.
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
    calls = {name: text.count("np.linalg.eigh(") for name, text in sources.items()}
    assert {name: k for name, k in calls.items() if k} == {"operators.py": 1}


class TestIsPsd:
    def test_diagonal(self):
        ok, lam = tc.is_psd(np.diag([1.0, 0.0]))
        assert ok and abs(lam) < 1e-12

    def test_sigma_z(self):
        ok, lam = tc.is_psd(SIGMA_Z)
        assert not ok
        assert abs(lam + 1) < 1e-12

    def test_partial_transpose_of_bell(self):
        pt = tc.partial_transpose(bell_state(), (2, 2), "a")
        ok, lam = tc.is_psd(pt)
        assert not ok
        assert abs(lam + 0.5) < 1e-12


class TestTensorAndPartialOps:
    def test_tensor_identities(self):
        np.testing.assert_allclose(tc.tensor(np.eye(2), np.eye(2)), np.eye(4))
        np.testing.assert_allclose(tc.tensor(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_tensor_block_structure(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = SIGMA_X
        np.testing.assert_allclose(tc.tensor(np.diag([1.0, 0.0]), SIGMA_X), expected)

    def test_partial_trace_product(self):
        rng = np.random.default_rng(0)
        a = tc.random_density(2, seed=rng)
        b = tc.random_density(3, seed=rng)
        np.testing.assert_allclose(tc.partial_trace(tc.tensor(a, b), (2, 3), "b"), a, atol=1e-12)
        np.testing.assert_allclose(tc.partial_trace(tc.tensor(a, b), (2, 3), "a"), b, atol=1e-12)

    def test_partial_trace_bell_and_swap(self):
        np.testing.assert_allclose(tc.partial_trace(bell_state(), (2, 2), "b"), np.eye(2) / 2)
        np.testing.assert_allclose(tc.partial_trace(SWAP, (2, 2), "b"), np.eye(2))

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(1)
        t = random_hermitian(6, rng)
        for side in ("a", "b"):
            assert abs(np.trace(tc.partial_trace(t, (2, 3), side)) - np.trace(t)) < 1e-12

    def test_partial_trace_scales_by_trace(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        np.testing.assert_allclose(
            tc.partial_trace(tc.tensor(a, b), (3, 2), "b"), a * np.trace(b), atol=1e-12
        )

    def test_partial_transpose_real_product_unchanged(self):
        rng = np.random.default_rng(3)
        a = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        b = tc.random_density(2, seed=rng)
        t = tc.tensor(a, b)
        np.testing.assert_allclose(tc.partial_transpose(t, (2, 2), "a"), t, atol=1e-12)

    def test_partial_transpose_bell(self):
        np.testing.assert_allclose(tc.partial_transpose(bell_state(), (2, 2), "a"), SWAP / 2)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_partial_transpose_involution(self, side):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        back = tc.partial_transpose(tc.partial_transpose(t, (2, 3), side), (2, 3), side)
        np.testing.assert_allclose(back, t, atol=1e-14)

    def test_partial_transpose_partial_trace_interplay(self):
        rng = np.random.default_rng(5)
        t = random_hermitian(6, rng)
        pt = tc.partial_transpose(t, (2, 3), "a")
        # Tracing the transposed factor is invariant; the untouched marginal transposes.
        np.testing.assert_allclose(tc.partial_trace(pt, (2, 3), "a"), tc.partial_trace(t, (2, 3), "a"), atol=1e-12)
        np.testing.assert_allclose(
            tc.partial_trace(pt, (2, 3), "b"), tc.partial_trace(t, (2, 3), "b").T, atol=1e-12
        )

    def test_swap_factors(self):
        rng = np.random.default_rng(7)
        a = tc.random_density(2, seed=rng)
        b = tc.random_density(3, seed=rng)
        np.testing.assert_allclose(tc.swap_factors(tc.tensor(a, b), (2, 3)), tc.tensor(b, a), atol=1e-14)
        np.testing.assert_allclose(tc.swap_factors(SWAP, (2, 2)), SWAP)
        t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        np.testing.assert_allclose(tc.swap_factors(tc.swap_factors(t, (2, 3)), (3, 2)), t)


class TestHadamard:
    def test_ones_and_identity_masks(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(3, rng)
        np.testing.assert_allclose(tc.hadamard_product(a, np.ones((3, 3))), a)
        np.testing.assert_allclose(tc.hadamard_product(a, np.eye(3)), np.diag(np.diag(a)))

    def test_schur_product_of_cauchy_and_psd(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(4))
        psd = tc.random_density(4, seed=rng)
        ok, _ = tc.is_psd(tc.hadamard_product(tc.cauchy_matrix(p), psd))
        assert ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            tc.hadamard_product(np.eye(2), np.eye(3))


class TestSqrtPinv:
    def test_maximally_mixed(self):
        ps = tc.sqrt_pinv(np.eye(2) / 2)
        np.testing.assert_allclose(ps.inv_sqrt, np.sqrt(2) * np.eye(2), atol=1e-12)

    def test_pure_state(self):
        ps = tc.sqrt_pinv(proj(np.array([1, 0], dtype=complex)))
        np.testing.assert_allclose(ps.inv_sqrt, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(ps.complement, np.diag([0.0, 1.0]), atol=1e-12)
        assert ps.rank == 1

    def test_diagonal_values(self):
        ps = tc.sqrt_pinv(np.diag([0.9, 0.1]))
        np.testing.assert_allclose(ps.inv_sqrt, np.diag([0.9**-0.5, 0.1**-0.5]), atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_support_identity(self, rank):
        rng = np.random.default_rng(rank)
        rho = tc.random_density(4, rank=rank, seed=rng)
        ps = tc.sqrt_pinv(rho)
        assert ps.rank == rank
        np.testing.assert_allclose(ps.inv_sqrt @ ps.inv_sqrt @ rho, ps.support, atol=1e-9)
        np.testing.assert_allclose(ps.sqrt @ ps.sqrt, rho, atol=1e-12)


class TestProbabilityMatrices:
    def test_cauchy_values(self):
        np.testing.assert_allclose(tc.cauchy_matrix([0.5, 0.5]), 2 * np.ones((2, 2)))
        # single-point distribution: 2 / (1 + 1)
        np.testing.assert_allclose(tc.cauchy_matrix([1.0]), [[1.0]])
        expected = np.array([[10 / 9, 2.0], [2.0, 10.0]])
        np.testing.assert_allclose(tc.cauchy_matrix([0.9, 0.1]), expected, atol=1e-12)
        ok, lam = tc.is_psd(tc.cauchy_matrix([0.9, 0.1]))
        assert ok and lam > 0

    def test_harmonic_values(self):
        np.testing.assert_allclose(tc.harmonic_mean_matrix([0.25] * 4), np.ones((4, 4)))
        h = tc.harmonic_mean_matrix([0.9, 0.1])
        np.testing.assert_allclose(np.diag(h), 1.0)
        assert abs(h[0, 1] - 0.6) < 1e-12

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_both_psd_on_random_support(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(15):
            p = rng.dirichlet(np.ones(dim)) + 1e-6
            assert tc.is_psd(tc.cauchy_matrix(p))[0]
            ok, _ = tc.is_psd(tc.harmonic_mean_matrix(p))
            assert ok

    def test_rejects_nonpositive(self):
        for bad in ([0.0, 1.0], [-0.1, 1.1], []):
            with pytest.raises(ValueError, match="positive"):
                tc.cauchy_matrix(bad)
            with pytest.raises(ValueError, match="positive"):
                tc.harmonic_mean_matrix(bad)


class TestValidation:
    def test_validate_density_names_trace(self):
        with pytest.raises(ValueError, match="trace"):
            tc.validate_density(np.diag([0.5, 0.4]))

    def test_validate_density_names_psd(self):
        with pytest.raises(ValueError, match="psd"):
            tc.validate_density(np.diag([1.5, -0.5]))

    def test_validate_density_names_hermiticity(self):
        with pytest.raises(ValueError, match="hermiticity"):
            tc.validate_density(np.array([[0.5, 1], [0, 0.5]], dtype=complex))

    def test_require_hermitian_symmetrizes(self):
        m = np.array([[1.0, 1e-12j], [0, 1.0]], dtype=complex)
        out = require_hermitian(m)
        assert tc.max_abs(out - out.conj().T) == 0.0
