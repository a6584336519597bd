"""Tests for ensembles, random generators, and perfect state discrimination."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import KET0, KET1, KET_PLUS, proj

import tempcert as tc


class TestProductEnsemble:
    def test_single_term_assembles_to_product(self):
        rng = np.random.default_rng(0)
        a = tc.random_density(2, seed=rng)
        b = tc.random_density(3, seed=rng)
        ens = tc.ProductEnsemble(weights=[1.0], states_a=(a,), states_b=(b,))
        assert not ens.quasi
        np.testing.assert_allclose(tc.assemble_state(ens), tc.tensor(a, b), atol=1e-14)

    def test_marginals_are_weighted_mixtures(self):
        rng = np.random.default_rng(1)
        ens = tc.random_separable(2, 3, 4, seed=rng)
        tau = tc.assemble_state(ens)
        mix_a = sum(w * s for w, s in zip(ens.weights, ens.states_a))
        mix_b = sum(w * s for w, s in zip(ens.weights, ens.states_b))
        assert tc.max_abs(tc.partial_trace(tau, (2, 3), "b") - mix_a) < 1e-10
        assert tc.max_abs(tc.partial_trace(tau, (2, 3), "a") - mix_b) < 1e-10

    def test_quasi_ensemble_not_psd(self):
        ens = tc.ProductEnsemble(
            weights=[2.0, -1.0],
            states_a=(proj(KET0), proj(KET_PLUS)),
            states_b=(proj(KET0), proj(KET_PLUS)),
        )
        assert ens.quasi
        tau = tc.assemble_state(ens)
        assert tc.max_abs(tau - tau.conj().T) < 1e-12
        assert abs(np.trace(tau) - 1) < 1e-12
        ok, _ = tc.is_psd(tau)
        assert not ok

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (16, 16)])
    def test_assembly_matches_the_kron_sum(self, dims):
        # The reference is the per-term np.kron loop; the broadcast outer product must
        # reproduce it bit for bit, index order included.
        rng = np.random.default_rng(dims[0] * dims[1])
        for terms in range(1, 21):
            ens = tc.random_separable(*dims, terms, seed=rng)
            reference = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
            for w, a, b in zip(ens.weights, ens.states_a, ens.states_b):
                reference += w * np.kron(a, b)
            assert np.array_equal(tc.assemble_state(ens), reference)

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            tc.ProductEnsemble(weights=[0.5, 0.4], states_a=(proj(KET0),) * 2, states_b=(proj(KET0),) * 2)


class TestRandomGenerators:
    def test_random_separable_deterministic(self):
        e1 = tc.random_separable(2, 2, 3, seed=42)
        e2 = tc.random_separable(2, 2, 3, seed=42)
        assert np.array_equal(e1.weights, e2.weights)
        for a, b in zip(e1.states_a, e2.states_a):
            assert np.array_equal(a, b)

    def test_random_separable_single_term(self):
        ens = tc.random_separable(2, 2, 1, seed=0)
        tau = tc.assemble_state(ens)
        np.testing.assert_allclose(tau, tc.tensor(ens.states_a[0], ens.states_b[0]), atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_separable_is_ppt(self, seed):
        tau = tc.assemble_state(tc.random_separable(2, 2, 3, seed=seed))
        assert tc.is_ppt(tau, (2, 2))[0]

    def test_separable_ppt_compatible_chain(self):
        for seed in range(5):
            tau = tc.assemble_state(tc.random_separable(2, 2, 4, seed=seed))
            assert tc.is_ppt(tau, (2, 2))[0]
            result = tc.certify(tau, (2, 2))
            assert result.compatible_both

    def test_random_density_rank(self):
        pure = tc.random_density(3, rank=1, seed=1)
        assert abs(np.trace(pure @ pure).real - 1.0) < 1e-12
        full = tc.random_density(3, seed=1)
        assert np.linalg.eigvalsh(full)[0] > 0
        with pytest.raises(ValueError, match="rank"):
            tc.random_density(3, rank=4, seed=1)

    def test_random_cptp_valid(self):
        for seed in range(5):
            e = tc.random_cptp(3, 2, 2, seed=seed)
            assert tc.is_cptp(e).ok
        with pytest.raises(ValueError, match="kraus_count"):
            tc.random_cptp(4, 1, 2, seed=0)

    def test_random_unitary(self):
        u = tc.random_unitary(4, seed=7)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_random_povm_resolves_identity(self):
        povm = tc.random_povm(3, 4, seed=5)
        np.testing.assert_allclose(sum(povm), np.eye(3), atol=1e-10)
        for e in povm:
            assert tc.is_psd(e)[0]


class TestOrthogonality:
    def test_computational_basis(self):
        assert tc.is_orthogonal_ensemble([proj(KET0), proj(KET1)])

    def test_overlapping_pair(self):
        assert not tc.is_orthogonal_ensemble([proj(KET0), proj(KET_PLUS)])

    def test_block_supported_mixed_states(self):
        rng = np.random.default_rng(2)
        u = tc.random_unitary(6, seed=rng)
        blocks = []
        for cols in (u[:, :2], u[:, 2:5]):
            small = tc.random_density(cols.shape[1], seed=rng)
            blocks.append(cols @ small @ cols.conj().T)
        assert tc.is_orthogonal_ensemble(blocks)


class TestDiscrimination:
    def test_embedded_qubit_basis_gets_completion(self):
        s0 = np.zeros((3, 3), dtype=complex)
        s0[0, 0] = 1
        s1 = np.zeros((3, 3), dtype=complex)
        s1[1, 1] = 1
        inst = tc.discrimination_povm([0.5, 0.5], [s0, s1])
        assert len(inst.povm) == 3
        expected = np.zeros((3, 3), dtype=complex)
        expected[2, 2] = 1
        np.testing.assert_allclose(inst.povm[2], expected, atol=1e-12)
        assert inst.assignment == (0, 1, 0)

    def test_full_support_pair_needs_no_completion(self):
        inst = tc.discrimination_povm([0.3, 0.7], [proj(KET0), proj(KET1)])
        assert len(inst.povm) == 2

    def test_random_orthogonal_mixed_ensemble(self):
        rng = np.random.default_rng(3)
        u = tc.random_unitary(5, seed=rng)
        states = []
        for cols in (u[:, :2], u[:, 2:4]):
            small = tc.random_density(2, seed=rng)
            states.append(cols @ small @ cols.conj().T)
        inst = tc.discrimination_povm([0.6, 0.4], states)
        np.testing.assert_allclose(sum(inst.povm), np.eye(5), atol=1e-10)
        ok, worst = tc.perfect_distinguishability_check(inst)
        assert ok, worst

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            tc.discrimination_povm([0.5, 0.5], [proj(KET0), proj(KET_PLUS)])

    def test_single_state_trivial_povm(self):
        inst = tc.DiscriminationInstance(
            weights=np.array([1.0]),
            states=(np.eye(2) / 2,),
            povm=(np.eye(2),),
            assignment=(0,),
        )
        ok, worst = tc.perfect_distinguishability_check(inst)
        assert ok and worst < 1e-12

    def test_nonorthogonal_ensemble_fails_sampled_povms(self):
        rng = np.random.default_rng(4)
        weights = np.array([0.5, 0.5])
        states = (proj(KET0), proj(KET_PLUS))
        for k in range(40):
            povm = tc.random_povm(2, 3, seed=rng)
            assignment = (0, 1, int(rng.integers(0, 2)))
            inst = tc.DiscriminationInstance(
                weights=weights, states=states, povm=tuple(povm), assignment=assignment
            )
            ok, worst = tc.perfect_distinguishability_check(inst)
            assert not ok and worst > 1e-6

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="surjective"):
            tc.DiscriminationInstance(
                weights=np.array([0.5, 0.5]),
                states=(proj(KET0), proj(KET1)),
                povm=(np.eye(2),),
                assignment=(0,),
            )
        with pytest.raises(ValueError, match="identity"):
            tc.DiscriminationInstance(
                weights=np.array([1.0]),
                states=(np.eye(2) / 2,),
                povm=(np.eye(2) / 2,),
                assignment=(0,),
            )


def _qubit_basis_instance(**changes) -> tc.DiscriminationInstance:
    """The computational-basis pair with its projective measurement, with the given fields replaced."""
    fields = dict(weights=[0.5, 0.5], states=(proj(KET0), proj(KET1)), povm=(proj(KET0), proj(KET1)), assignment=(0, 1))
    fields.update(changes)
    return tc.DiscriminationInstance(**fields)


class TestDiscriminationGates:
    # Each case was admitted before the shared gates, and the Bayes check then called it perfectly discriminating.
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"povm": (np.diag([1.0, np.nan]), proj(KET1))}, "^matrix contains non-finite entries$"),
            (
                {"povm": (np.array([[1, 0.3j], [0.3j, 0]]), np.array([[0, -0.3j], [-0.3j, 1]]))},
                r"^hermiticity violated: max\|M - M\^dag\| = 6\.000e-01",
            ),
            ({"states": (2 * proj(KET0), proj(KET1))}, "^trace invariant violated: Tr = 2, expected 1$"),
            ({"weights": [1.0]}, "^need one weight per state of a nonempty ensemble, got 1 for 2$"),
            (
                {"weights": [0.5, 0.5], "states": (np.eye(2) / 2,), "povm": (np.eye(2),), "assignment": (0,)},
                "^need one weight per state of a nonempty ensemble, got 2 for 1$",
            ),
            ({"weights": [], "states": (), "povm": (), "assignment": ()}, "nonempty ensemble, got 0 for 0$"),
            ({"assignment": (0, 1, 1)}, "^assignment must map every POVM outcome to an ensemble index$"),
            (
                {"povm": (np.diag([1.5, 0.0]), np.diag([-0.5, 1.0]))},
                "^POVM element has negative eigenvalue -5.000e-01$",
            ),
        ],
        ids=["nan-povm", "non-hermitian-povm", "trace-2-state", "one-weight", "two-weights", "empty",
             "assignment-length", "negative-povm"],
    )
    def test_instance_gates_are_named(self, changes, message):
        with pytest.raises(ValueError, match=message):
            _qubit_basis_instance(**changes)

    def test_fields_are_stacks_of_hermitian_parts(self):
        inst = _qubit_basis_instance(povm=[proj(KET0) + 1e-12j * tc.PAULIS[2], proj(KET1)])
        assert inst.states.shape == inst.povm.shape == (2, 2, 2)
        np.testing.assert_array_equal(inst.povm[0], proj(KET0))
        assert tc.perfect_distinguishability_check(inst) == (True, 0.0)

    def test_bayes_violation_matches_the_loop(self):
        # The (states, povm) table against the pair loop it replaced; the sums run in another order.
        rng = np.random.default_rng(12)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            states = [tc.random_density(dim, rank=int(rng.integers(1, dim + 1)), seed=rng) for _ in range(3)]
            weights = rng.dirichlet(np.ones(3))
            povm = tc.random_povm(dim, 4, seed=rng)
            assignment = (0, 1, 2, int(rng.integers(0, 3)))
            inst = tc.DiscriminationInstance(weights, tuple(states), tuple(povm), assignment)
            avg = sum(w * s for w, s in zip(weights, states))
            loop = max(
                abs(w * np.trace(s @ e).real - (np.trace(avg @ e).real if t == assignment[k] else 0.0))
                for k, e in enumerate(povm)
                for t, (w, s) in enumerate(zip(weights, states))
            )
            assert abs(tc.perfect_distinguishability_check(inst)[1] - loop) < 1e-14

    def test_discrimination_povm_needs_one_weight_per_state(self):
        with pytest.raises(ValueError, match="^need one weight per state of a nonempty ensemble, got 1 for 2$"):
            tc.discrimination_povm([1.0], [proj(KET0), proj(KET1)])

    def test_empty_ensemble_is_named(self):
        with pytest.raises(ValueError, match="^ensemble must hold at least one state$"):
            tc.discrimination_povm([], [])
        with pytest.raises(ValueError, match="^ensemble must hold at least one state$"):
            tc.is_orthogonal_ensemble([])

    def test_orthogonality_rejects_a_nan_state(self):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            tc.is_orthogonal_ensemble([proj(KET0), np.diag([np.nan, 1.0])])

    def test_orthogonality_of_one_state(self):
        assert tc.is_orthogonal_ensemble([proj(KET0)])
