"""Tests for ensembles, random generators, and perfect state discrimination."""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from conftest import KET0, KET1, KET_PLUS, count_factorizations, proj

import tempcert as tc
from tempcert import documents


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

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, -np.inf], [0.5, np.nan, 0.5]])
    def test_non_finite_weights_rejected(self, weights):
        # A NaN sum passes no comparison, so before this gate such an ensemble assembled an all-NaN tau.
        mixed = (np.eye(2) / 2,) * len(weights)
        with pytest.raises(ValueError, match=r"^weights must be finite, got \["):
            tc.ProductEnsemble(weights=weights, states_a=mixed, states_b=mixed)


# SHA-256 of the stored states (states_a then states_b) of random_separable(m, n, m + n, seed=s),
# computed before the factors were gated as one stack.
SEPARABLE_STATES_SHA256 = {
    (2, 2, 0): "49512f7b8d65980f25ba53569e046607b8ef66e45cdc3283d1293323bde37e05",
    (3, 3, 1): "5109dcc8a876604e4e05fa09b496c63f85fc3117a4693a7637c48e808f39260d",
    (2, 4, 817): "7a017b67ecfa3314776f815eead8133824dc496b306316cc2e95e855599daa00",
    (4, 3, 5): "73ddf6223ee19467265dae1a309a441e01aa54051b1c83b9b88fbf32dd82b7c3",
    (1, 5, 2): "f1f9e2e84cf2f93dbad9e2c7e06256446788a43a1f87bfc9697fd01483c0b105",
}


class TestStackedGate:
    @pytest.mark.parametrize("case", list(SEPARABLE_STATES_SHA256))
    def test_stored_states_are_pinned(self, case):
        m, n, seed = case
        ens = tc.random_separable(m, n, m + n, seed=seed)
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(s).tobytes() for s in ens.states_a + ens.states_b))
        assert digest.hexdigest() == SEPARABLE_STATES_SHA256[case]

    def test_no_member_gate_runs_in_a_loop(self):
        # Ensemble members are gated as one stack: no scalar gate is called inside a comprehension or generator.
        tree = ast.parse(Path(tc.ensembles.__file__).read_text(encoding="utf-8"))
        loops = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        gates = {"validate_density", "require_hermitian", "_gated_psd"}
        for loop in (n for n in ast.walk(tree) if isinstance(n, loops)):
            for call in (n for n in ast.walk(loop) if isinstance(n, ast.Call)):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                assert name not in gates, f"{name} called in a loop on line {call.lineno}"

    @pytest.mark.parametrize("side", ["states_a", "states_b"])
    def test_mixed_member_shapes_are_named(self, side):
        # Before, these were accepted with dims (2, 2), and assemble_state raised numpy's broadcast error.
        fields = {"states_a": (np.eye(2) / 2, np.eye(2) / 2), "states_b": (np.eye(2) / 2, np.eye(2) / 2)}
        fields[side] = (np.eye(2) / 2, np.eye(3) / 3)
        message = rf"^the members of {side} must share one shape, got shapes \[\(2, 2\), \(3, 3\)\]$"
        with pytest.raises(ValueError, match=message):
            tc.ProductEnsemble([0.5, 0.5], **fields)

    @pytest.mark.parametrize("field", ["states", "povm"])
    def test_mixed_instance_shapes_are_named(self, field):
        # Before, np.stack raised "all input arrays must have the same shape".
        with pytest.raises(ValueError, match=rf"^the members of {field} must share one shape, got shapes \["):
            _qubit_basis_instance(**{field: (proj(KET0), np.diag([0.0, 1.0, 0.0]))})

    def test_first_failing_member_names_the_error(self):
        # Member 0's trace gate comes before member 1's finiteness gate, in factor a before factor b.
        nan = np.full((2, 2), np.nan)
        mixed = (np.eye(2) / 2,) * 2
        with pytest.raises(ValueError, match="^trace invariant violated: Tr = 2, expected 1$"):
            tc.ProductEnsemble([0.5, 0.5], (np.eye(2), nan), mixed)
        with pytest.raises(ValueError, match="^psd invariant violated: min eigenvalue = -5.000e-01$"):
            tc.ProductEnsemble([0.5, 0.5], (np.diag([1.5, -0.5]), nan), (np.eye(2), nan))
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            tc.ProductEnsemble([0.5, 0.5], mixed, (np.eye(2) / 2, nan))

    def test_every_povm_element_is_checked_hermitian_before_any_is_solved(self):
        negative, skewed = np.diag([1.5, -0.5]), np.array([[0, 0.3j], [0.3j, 1.5]])
        with pytest.raises(ValueError, match=r"^hermiticity violated: max\|M - M\^dag\| = 6\.000e-01"):
            _qubit_basis_instance(povm=(negative, skewed))

    def test_each_factor_is_solved_once(self, monkeypatch):
        # A parsed ensemble of 4 members makes one stacked eigvalsh per factor, and stores the same states.
        ens = tc.random_separable(2, 3, 4, seed=7)
        doc = documents.ensemble_document(ens)
        sizes = count_factorizations(monkeypatch, shapes=True)
        parsed = documents.parse_ensemble_document(doc)
        assert sizes == {"eigh": [], "eigvalsh": [(4, 2, 2), (4, 3, 3)], "cholesky": []}
        for mine, theirs in zip(ens.states_a + ens.states_b, parsed.states_a + parsed.states_b):
            assert mine.tobytes() == theirs.tobytes()


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
            ({"weights": [-0.5, 1.5]}, r"^weights must be nonnegative and sum to 1, got \[-0\.5, 1\.5\]$"),
            ({"weights": [3.0, 4.0]}, r"^weights must be nonnegative and sum to 1, got \[3\.0, 4\.0\]$"),
            ({"weights": [np.nan, 1.0]}, r"^weights must be nonnegative and sum to 1, got \[nan, 1\.0\]$"),
            ({"weights": [0.5, 0.5 + 1e-9]}, "^weights must be nonnegative and sum to 1"),
        ],
        ids=["nan-povm", "non-hermitian-povm", "trace-2-state", "one-weight", "two-weights", "empty",
             "assignment-length", "negative-povm", "negative-weight", "unnormalized-weights", "nan-weight",
             "weights-off-by-1e-9"],
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

    def test_discrimination_povm_solves_each_state_once(self, monkeypatch):
        # One eigh per state gives its gate, its matrix and its support projector; the instance then
        # gates its states in one stacked eigvalsh and its POVM elements in another.
        sizes = count_factorizations(monkeypatch, shapes=True)
        tc.discrimination_povm([0.3, 0.7], [proj(KET0), proj(KET1)])
        assert sizes == {"eigh": [(2, 2), (2, 2)], "eigvalsh": [(2, 2, 2), (2, 2, 2)], "cholesky": []}

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

    def test_an_overflowing_overlap_is_named(self):
        # Only Tr[m m] overflows, an overlap the verdict never reads; before, the table's matmul warned.
        m = np.eye(2) / 2
        m[0, 1] = m[1, 0] = 1e155
        with pytest.raises(ValueError, match=r"^overlap out of range: Tr\[rho_s rho_t\] overflows a float$"):
            tc.is_orthogonal_ensemble([m, np.eye(2) / 2])

    def test_povm_of_another_dimension_is_named(self):
        # Before, the identity-sum check raised numpy's broadcast error.
        message = r"^POVM elements of shape \(3, 3\) do not match states of shape \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            tc.DiscriminationInstance([1.0], [np.eye(2) / 2], [np.eye(3)], (0,))

    @pytest.mark.parametrize(
        "call",
        [
            lambda states: tc.is_orthogonal_ensemble(states),
            lambda states: tc.discrimination_povm([0.5, 0.5], states),
        ],
        ids=["is_orthogonal_ensemble", "discrimination_povm"],
    )
    def test_mixed_state_shapes_are_named(self, call, monkeypatch):
        # Before, np.stack raised "all input arrays must have the same shape".  No state is solved.
        sizes = count_factorizations(monkeypatch)
        message = r"^the members of states must share one shape, got shapes \[\(2, 2\), \(3, 3\)\]$"
        with pytest.raises(ValueError, match=message):
            call([proj(KET0), np.diag([0.0, 1.0, 0.0])])
        assert sizes == {"eigh": [], "eigvalsh": [], "cholesky": []}

    def test_orthogonality_of_one_state(self):
        assert tc.is_orthogonal_ensemble([proj(KET0)])
