"""Tests for Choi-based channel representations."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import SIGMA_X, SIGMA_Z, random_hermitian

import tempcert as tc

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_channel_pair(rng):
    e = tc.random_cptp(3, 2, 2, seed=rng)
    f = tc.random_cptp(2, 4, 3, seed=rng)
    return e, f


class TestConstruction:
    def test_identity_choi(self):
        omega = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                omega[i, j] = 1.0
        np.testing.assert_allclose(tc.identity_channel(2).choi, omega)
        assert tc.is_cptp(tc.identity_channel(2)).ok

    def test_bit_flip_unitary(self):
        flip = tc.from_kraus([SIGMA_X])
        np.testing.assert_allclose(tc.apply(flip, np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))
        assert tc.is_cptp(flip).ok

    def test_two_kraus_dephasing(self):
        p = 0.75
        chan = tc.from_kraus([np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * SIGMA_Z])
        # independent assembly of the same Choi from the two outer products
        expected = np.zeros((4, 4), dtype=complex)
        for k in (np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * SIGMA_Z):
            v = k.T.ravel()
            expected += np.outer(v, v.conj())
        np.testing.assert_allclose(chan.choi, expected)
        assert tc.is_psd(chan.choi)[0]
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = tc.apply(chan, plus)
        assert abs(out[0, 1] - 0.25) < 1e-12  # coherence damped to 2p - 1 = 0.5

    def test_kraus_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            tc.from_kraus([np.eye(2), np.ones((3, 2))])
        with pytest.raises(ValueError, match="Kraus"):
            tc.from_kraus([])

    def test_superop_dim_validation(self):
        with pytest.raises(ValueError, match="choi"):
            tc.SuperOp(2, 2, np.eye(3))

    @pytest.mark.parametrize("dims", [(2.0, 2), (True, 4), (2, False), (0, 4), (np.bool_(True), 4)])
    def test_superop_dims_are_positive_ints(self, dims):
        with pytest.raises(ValueError, match=r"^dim_in and dim_out must be positive ints, got \("):
            tc.SuperOp(*dims, np.eye(4))

    def test_superop_accepts_numpy_int_dims(self):
        e = tc.SuperOp(np.int64(2), np.int32(2), tc.identity_channel(2).choi)
        np.testing.assert_array_equal(e(np.diag([0.25, 0.75])), np.diag([0.25, 0.75]))


class TestApply:
    def test_identity_and_replace(self):
        rng = np.random.default_rng(0)
        x = random_hermitian(2, rng)
        np.testing.assert_allclose(tc.apply(tc.identity_channel(2), x), x, atol=1e-14)
        sigma = tc.random_density(3, seed=rng)
        rep = tc.replace_channel(sigma, dim_in=2)
        rho = tc.random_density(2, seed=rng)
        np.testing.assert_allclose(tc.apply(rep, rho), sigma, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        e = tc.random_cptp(3, 2, 2, seed=rng)
        x = random_hermitian(3, rng)
        y = random_hermitian(3, rng)
        a, b = 0.3 - 1j, 2.0 + 0.5j
        lhs = tc.apply(e, a * x + b * y)
        rhs = a * tc.apply(e, x) + b * tc.apply(e, y)
        assert tc.max_abs(lhs - rhs) < 1e-10

    def test_cptp_preserves_density(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            e = tc.random_cptp(3, 4, 2, seed=rng)
            rho = tc.random_density(3, seed=rng)
            tc.validate_density(tc.apply(e, rho))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            tc.apply(tc.identity_channel(2), np.eye(3))

    def test_apply_on_stack(self):
        rng = np.random.default_rng(21)
        e = tc.random_cptp(3, 2, 2, seed=rng)
        xs = np.stack([[random_hermitian(3, rng) for _ in range(4)] for _ in range(2)])
        out = tc.apply(e, xs)
        assert out.shape == (2, 4, 2, 2)
        for idx in np.ndindex(2, 4):
            np.testing.assert_allclose(out[idx], tc.apply(e, xs[idx]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3,), (5, 3, 2), (5, 2, 2), (2, 3, 2, 3)])
    def test_stack_trailing_shape_mismatch(self, shape):
        with pytest.raises(ValueError, match="does not match channel input dim 3"):
            tc.apply(tc.random_cptp(3, 2, 2, seed=0), np.zeros(shape))

    def test_superoperator_matrix_agrees(self):
        rng = np.random.default_rng(3)
        e = tc.random_cptp(2, 3, 2, seed=rng)
        s = tc.superoperator_matrix(e)
        x = random_hermitian(2, rng)
        np.testing.assert_allclose(s @ x.ravel(), tc.apply(e, x).ravel(), atol=1e-12)

    def test_apply_to_factor(self):
        rng = np.random.default_rng(4)
        e = tc.random_cptp(2, 3, 2, seed=rng)
        a = tc.random_density(2, seed=rng)
        b = tc.random_density(4, seed=rng)
        out = tc.apply_to_factor(e, tc.tensor(a, b), (2, 4), "a")
        np.testing.assert_allclose(out, tc.tensor(tc.apply(e, a), b), atol=1e-12)
        out_b = tc.apply_to_factor(e, tc.tensor(b, a), (4, 2), "b")
        np.testing.assert_allclose(out_b, tc.tensor(b, tc.apply(e, a)), atol=1e-12)


class TestJamiolkowski:
    def test_identity_gives_swap(self):
        np.testing.assert_allclose(tc.jamiolkowski(tc.identity_channel(2)), SWAP)

    def test_replace_channel(self):
        rng = np.random.default_rng(5)
        sigma = tc.random_density(2, seed=rng)
        np.testing.assert_allclose(
            tc.jamiolkowski(tc.replace_channel(sigma)), tc.tensor(np.eye(2), sigma), atol=1e-14
        )

    def test_partial_transpose_relation(self):
        rng = np.random.default_rng(6)
        e = tc.random_cptp(2, 3, 2, seed=rng)
        np.testing.assert_allclose(
            tc.jamiolkowski(e), tc.partial_transpose(e.choi, (2, 3), "a"), atol=1e-14
        )

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        e = tc.random_cptp(3, 2, 2, seed=rng)
        # The Jamiolkowski operator is a re-indexing of the Choi matrix: the partial transpose undoes it.
        assert np.array_equal(tc.partial_transpose(tc.jamiolkowski(e), (3, 2), "a"), e.choi)


class TestVerdicts:
    def test_identity_cptp(self):
        rep = tc.is_cptp(tc.identity_channel(3))
        assert rep.ok and rep.trace_residual < 1e-14

    def test_transpose_map_not_cp(self):
        t = tc.transpose_map(2)
        np.testing.assert_allclose(t.choi, SWAP)
        rep = tc.is_cptp(t)
        assert not rep.cp and rep.tp
        assert abs(rep.choi_min_eigenvalue + 1) < 1e-12

    def test_transpose_map_hptp(self):
        assert tc.is_hptp(tc.transpose_map(2))
        assert tc.is_hptp(tc.random_cptp(2, 3, 2, seed=1))

    def test_non_hermitian_choi_not_hptp(self):
        bad = tc.SuperOp(2, 2, tc.tensor(1j * tc.PAULIS[2], np.eye(2)))
        assert not tc.is_hptp(bad)

    def test_trace_gate_rejects_a_real_trace_defect(self):
        # The rounding floor of the TP gate is ~1e-14 here; a 1e-6 defect stays far above it.
        e = tc.random_cptp(3, 2, 2, seed=4)
        off = tc.SuperOp(3, 2, e.choi + 1e-6 * tc.tensor(np.diag([1.0, 0.0, 0.0]), np.eye(2) / 2))
        rep = tc.is_cptp(off)
        assert rep.cp and not rep.tp
        assert abs(rep.trace_residual - 1e-6) < 1e-12
        assert not tc.is_hptp(off)
        assert tc.is_cptp(e, 0.0).tp

    def test_hermiticity_gate_has_a_rounding_floor(self):
        # from_kraus leaves a Hermiticity defect of ~3e-17, which the gate's rounding floor
        # absorbs at tol=0; a 1e-6 defect in the upper triangle stays far above the floor.
        e = tc.random_cptp(3, 2, 2, seed=4)
        assert 0.0 < tc.is_cptp(e).hermiticity_defect < 1e-16
        assert tc.is_hptp(e, 0.0)
        full_rank = tc.random_cptp(3, 2, 6, seed=0)  # Choi min eigenvalue 0.068
        assert 0.0 < tc.is_cptp(full_rank).hermiticity_defect
        assert tc.is_cptp(full_rank, 0.0).cp
        c = full_rank.choi.copy()
        c[0, -1] += 1e-6
        skewed = tc.SuperOp(3, 2, c)
        assert not tc.is_hptp(skewed) and not tc.is_hptp(skewed, 0.0)
        assert not tc.is_cptp(skewed).cp and tc.is_cptp(skewed, 1e-5).cp

    def test_psd_floor_accepts_rank_deficient_maps_at_tol_zero(self):
        # 2 Kraus operators give a 6x6 Choi matrix of rank 2; eigvalsh returns about -3.9e-16
        # for its exact zero eigenvalues, which the floor's rounding term absorbs.
        e = tc.random_cptp(3, 2, 2, seed=4)
        rep = tc.is_cptp(e, 0.0)
        assert rep.choi_min_eigenvalue < 0 and rep.cp and rep.ok

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 4), (8, 8), (16, 16)])
    def test_psd_floor_across_dims(self, dims):
        rng = np.random.default_rng(dims[0] * dims[1])
        for kraus in (1, 2, dims[0] * dims[1] - 1):
            if kraus * dims[1] >= dims[0]:
                assert tc.is_cptp(tc.random_cptp(*dims, kraus, seed=rng), 0.0).ok

    def test_psd_floor_rejects_a_real_negative_eigenvalue(self):
        # The identity channel's Choi matrix has a 3-dimensional kernel; push one kernel
        # direction to a true eigenvalue of -1e-8, far below the rounding floor (7e-15 here).
        c = tc.identity_channel(2).choi.copy()
        c[1, 1] -= 1e-8
        rep = tc.is_cptp(tc.SuperOp(2, 2, c), 0.0)
        assert not rep.cp
        assert abs(rep.choi_min_eigenvalue + 1e-8) < 1e-15

    def test_choi_entries_near_the_float_limit(self):
        # Finite entries whose Hermitian part, or Hermiticity defect, overflows; warnings are errors.
        c = np.eye(4, dtype=complex) / 2
        c[0, 3] = c[3, 0] = 1e308
        hermitian = tc.SuperOp(2, 2, c)
        assert tc.is_hptp(hermitian)
        with pytest.raises(ValueError, match=r"^hermitian part out of range: \(M \+ M\^dag\) / 2 overflows a float$"):
            tc.is_cptp(hermitian)
        c[3, 0] = -1e308
        skewed = tc.SuperOp(2, 2, c)
        assert not tc.is_hptp(skewed)
        rep = tc.is_cptp(skewed)
        assert rep.hermiticity_defect == np.inf and not rep.cp and rep.tp


class TestComposeAndAdjoint:
    def test_compose_identity_and_replace(self):
        rng = np.random.default_rng(8)
        e = tc.random_cptp(2, 3, 2, seed=rng)
        np.testing.assert_allclose(tc.compose(tc.identity_channel(3), e).choi, e.choi, atol=1e-14)
        sigma = tc.random_density(2, seed=rng)
        rep = tc.replace_channel(sigma, dim_in=3)
        composed = tc.compose(rep, e)
        np.testing.assert_allclose(composed.choi, tc.replace_channel(sigma, dim_in=2).choi, atol=1e-12)

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(9)
        e, f = random_channel_pair(rng)
        both = tc.compose(f, e)
        for _ in range(5):
            x = random_hermitian(3, rng)
            np.testing.assert_allclose(
                tc.apply(both, x), tc.apply(f, tc.apply(e, x)), atol=1e-12
            )

    def test_compose_dim_mismatch(self):
        with pytest.raises(ValueError, match="compose"):
            tc.compose(tc.identity_channel(3), tc.identity_channel(2))

    def test_adjoint_of_unitary(self):
        u = tc.random_unitary(3, seed=10)
        adj = tc.hs_adjoint(tc.from_kraus([u]))
        np.testing.assert_allclose(adj.choi, tc.from_kraus([u.conj().T]).choi, atol=1e-12)

    def test_adjoint_of_trace_map(self):
        trace_map = tc.from_kraus([np.eye(3)[i : i + 1, :] for i in range(3)])
        assert (trace_map.dim_in, trace_map.dim_out) == (3, 1)
        np.testing.assert_allclose(tc.apply(trace_map, np.eye(3)), [[3.0]])
        adj = tc.hs_adjoint(trace_map)
        np.testing.assert_allclose(tc.apply(adj, np.array([[2.0]])), 2.0 * np.eye(3), atol=1e-14)

    def test_adjoint_defining_property(self):
        rng = np.random.default_rng(11)
        e = tc.random_cptp(3, 2, 2, seed=rng)
        adj = tc.hs_adjoint(e)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.trace(tc.apply(e, a).conj().T @ b)
            rhs = np.trace(a.conj().T @ tc.apply(adj, b))
            assert abs(lhs - rhs) < 1e-10

    def test_adjoint_involution_and_reversal(self):
        rng = np.random.default_rng(12)
        e, f = random_channel_pair(rng)
        np.testing.assert_allclose(tc.hs_adjoint(tc.hs_adjoint(e)).choi, e.choi, atol=1e-14)
        lhs = tc.hs_adjoint(tc.compose(f, e))
        rhs = tc.compose(tc.hs_adjoint(e), tc.hs_adjoint(f))
        assert tc.max_abs(lhs.choi - rhs.choi) < 1e-10
