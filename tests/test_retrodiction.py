"""Tests for Petz recovery maps and Bayesian inverses."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import count_factorizations, octahedral_ensemble, random_faithful_separable

import tempcert as tc


class TestPetzRecovery:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        prior = tc.random_density(3, seed=rng)
        petz = tc.petz_recovery(tc.identity_channel(3), prior)
        np.testing.assert_allclose(petz.choi, tc.identity_channel(3).choi, atol=1e-10)

    def test_unitary_channel(self):
        u = tc.random_unitary(2, seed=1)
        prior = tc.random_density(2, seed=2)
        petz = tc.petz_recovery(tc.from_kraus([u]), prior)
        np.testing.assert_allclose(petz.choi, tc.from_kraus([u.conj().T]).choi, atol=1e-10)

    def test_one_solve_per_root(self, monkeypatch):
        # rho's spectrum both validates the prior and gives rho^{1/2}; sigma = E(rho) is solved once.
        e = tc.random_cptp(3, 2, 2, seed=3)
        prior = tc.random_density(3, seed=4)
        sizes = count_factorizations(monkeypatch)
        tc.petz_recovery(e, prior)
        assert sizes == {"eigh": [3, 2], "eigvalsh": [], "cholesky": []}

    def test_petz_is_cptp(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            e = tc.random_cptp(2, 3, 2, seed=rng)
            prior = tc.random_density(2, seed=rng)
            petz = tc.petz_recovery(e, prior)
            assert tc.is_cptp(petz, tol=1e-8).ok

    def test_petz_pair_recovers_original(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            e = tc.random_cptp(2, 2, 3, seed=rng)
            prior = tc.random_density(2, seed=rng)
            petz = tc.petz_recovery(e, prior)
            back = tc.petz_recovery(petz, tc.apply(e, prior))
            assert tc.max_abs(back.choi - e.choi) < 1e-9

    def test_pgm_maps_are_petz_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            tau = tc.assemble_state(random_faithful_separable((3, 2), rng))
            rho_a = tc.partial_trace(tau, (3, 2), "b")
            rho_b = tc.partial_trace(tau, (3, 2), "a")
            g = tc.pgm_map(tau, (3, 2), "a")
            g_rev = tc.pgm_map(tau, (3, 2), "b")
            assert tc.max_abs(tc.petz_recovery(g, rho_a).choi - g_rev.choi) < 1e-9
            assert tc.max_abs(tc.petz_recovery(g_rev, rho_b).choi - g.choi) < 1e-9

    def test_adjoint_of_pgm_map_formula(self):
        rng = np.random.default_rng(6)
        ens = random_faithful_separable((3, 2), rng)
        tau = tc.assemble_state(ens)
        rho_a = tc.partial_trace(tau, (3, 2), "b")
        inv = tc.observable(rho_a).inv_sqrt
        g_star = tc.hs_adjoint(tc.pgm_map(tau, (3, 2), "a"))
        b = np.random.default_rng(7).standard_normal((2, 2)).astype(complex)
        expected = sum(
            t * np.trace(sb @ b) * (inv @ sa @ inv)
            for t, sa, sb in zip(ens.weights, ens.states_a, ens.states_b)
        )
        assert tc.max_abs(tc.apply(g_star, b) - expected) < 1e-10

    def test_prior_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            tc.petz_recovery(tc.identity_channel(2), np.eye(3) / 3)

    def test_channel_out_of_range_is_named(self):
        # Finite Choi entries near the float limit overflow in the composition, or already in E(prior); warnings
        # are errors, so numpy's overflow warning would fail this test before the ValueError.
        c = tc.identity_channel(2).choi.copy()
        c[1, 2] = c[2, 1] = 1e308
        with pytest.raises(ValueError, match=r"^composite out of range: its Choi matrix overflows a float$"):
            tc.petz_recovery(tc.SuperOp(2, 2, c), np.eye(2) / 2)
        c = tc.identity_channel(2).choi.copy()
        c[0, 1:] = c[1:, 0] = 1.5e308
        with pytest.raises(ValueError, match=r"^hermitian part out of range: \(M \+ M\^dag\) / 2 overflows a float$"):
            tc.petz_recovery(tc.SuperOp(2, 2, c), np.full((2, 2), 0.5))


class TestBayesianInverse:
    def test_replace_channel(self):
        rng = np.random.default_rng(8)
        rho = tc.random_density(2, seed=rng)
        sigma = tc.random_density(3, seed=rng)
        proc = tc.Process(channel=tc.replace_channel(sigma, dim_in=2), input_state=rho)
        inverse, report = tc.bayesian_inverse(proc)
        assert report.compatible and inverse is not None
        np.testing.assert_allclose(inverse.choi, tc.replace_channel(rho, dim_in=3).choi, atol=1e-9)

    def test_identity_on_maximally_mixed(self):
        proc = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        inverse, report = tc.bayesian_inverse(proc)
        assert inverse is not None
        np.testing.assert_allclose(inverse.choi, tc.identity_channel(2).choi, atol=1e-9)

    def test_defining_equation_when_inverse_exists(self):
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(20):
            e = tc.random_cptp(2, 2, 2, seed=rng)
            rho = tc.random_density(2, seed=rng)
            proc = tc.Process(channel=e, input_state=rho)
            inverse, report = tc.bayesian_inverse(proc)
            tau = tc.star_product(e, rho)
            if inverse is None:
                assert not report.compatible
                continue
            found += 1
            rho_b = tc.apply(e, rho)
            assert tc.max_abs(tc.reverse_star(inverse, rho_b) - tau) < 1e-9
        assert found > 0

    def test_perturbed_identity_processes_record_verdicts(self):
        # identity channel on states drifting away from the incoherent family:
        # existence tracks the reverse-direction test verdict exactly
        rng = np.random.default_rng(10)
        verdicts = []
        for _ in range(10):
            rho = 0.8 * np.diag(rng.dirichlet([1, 1])).astype(complex) + 0.2 * tc.random_density(
                2, seed=rng
            )
            proc = tc.Process(channel=tc.identity_channel(2), input_state=rho)
            inverse, report = tc.bayesian_inverse(proc)
            assert (inverse is not None) == report.compatible
            verdicts.append(report.compatible)
        assert any(verdicts)


class TestDephasingRelation:
    def test_product_state(self):
        rng = np.random.default_rng(11)
        tau = tc.tensor(tc.random_density(2, seed=rng), tc.random_density(3, seed=rng))
        assert tc.verify_dfed(tau, (2, 3)) < 1e-10

    def test_octahedral_state(self):
        tau = tc.assemble_state(octahedral_ensemble())
        assert tc.verify_dfed(tau, (2, 2)) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_random_separable(self, seed):
        rng = np.random.default_rng(seed)
        tau = tc.assemble_state(random_faithful_separable((3, 2), rng))
        assert tc.verify_dfed(tau, (3, 2)) < 1e-9

    def test_one_solve_per_marginal(self, monkeypatch):
        # The validating eigh of each marginal gives both temporal channels, both dephasings
        # and the Petz recovery, whose sigma = E(rho_a) is rho_b.
        tau = tc.random_density(12, seed=9)
        sizes = count_factorizations(monkeypatch)
        assert tc.verify_dfed(tau, (3, 4)) < 1e-9
        assert sizes == {"eigh": [3, 4], "eigvalsh": [], "cholesky": []}

    def test_non_faithful_raises(self):
        from conftest import KET0, proj

        tau = tc.tensor(proj(KET0), np.eye(2) / 2)
        with pytest.raises(ValueError, match="faithful"):
            tc.verify_dfed(tau, (2, 2))

    def test_temporal_channels_are_not_petz_pairs(self):
        # the two temporal channels differ from each other's Petz recoveries
        # by dephasing conjugation, and generically strictly so
        rng = np.random.default_rng(12)
        gaps = []
        for _ in range(10):
            tau = tc.assemble_state(random_faithful_separable((2, 2), rng))
            if tc.verify_dfed(tau, (2, 2)) > 1e-9:
                continue
            e = tc.temporal_channel(tau, (2, 2), "a")
            f = tc.temporal_channel(tau, (2, 2), "b")
            rho_a = tc.partial_trace(tau, (2, 2), "b")
            gaps.append(tc.max_abs(f.choi - tc.petz_recovery(e, rho_a).choi))
        assert max(gaps) > 1e-3

    def test_petz_functoriality_through_dephasing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            tau = tc.assemble_state(random_faithful_separable((3, 2), rng))
            rho_a = tc.partial_trace(tau, (3, 2), "b")
            deph = tc.dephasing_channel(rho_a)
            g = tc.pgm_map(tau, (3, 2), "a")
            lhs = tc.petz_recovery(tc.compose(g, deph), rho_a)
            rhs = tc.compose(tc.petz_recovery(deph, rho_a), tc.petz_recovery(g, rho_a))
            assert tc.max_abs(lhs.choi - rhs.choi) < 1e-9


class TestDephasingSelfInverse:
    def test_maximally_mixed(self):
        assert tc.petz_selfinverse_dephasing_check(np.eye(3) / 3) < 1e-12

    def test_two_level(self):
        assert tc.petz_selfinverse_dephasing_check(np.diag([0.9, 0.1])) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_random_faithful(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(3):
            rho = tc.random_density(dim, seed=rng)
            assert tc.petz_selfinverse_dephasing_check(rho) < 1e-9

    def test_non_faithful_raises(self):
        with pytest.raises(ValueError, match="faithful"):
            tc.petz_selfinverse_dephasing_check(np.diag([1.0, 0.0]))
