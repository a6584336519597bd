"""Tests for states over time, light-touch observables, and correlation tables."""

from __future__ import annotations

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from conftest import (
    KET_MINUS,
    KET_PLUS,
    SIGMA_X,
    SIGMA_Z,
    proj,
    random_hermitian,
)

import tempcert as tc
from tempcert.sot import _FROM_PAULI, _TO_PAULI

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class TestPauliStrings:
    def test_single_factors(self):
        np.testing.assert_allclose(tc.pauli_string((0,)).matrix, np.eye(2))
        np.testing.assert_allclose(tc.pauli_string((3, 3)).matrix, np.diag([1, -1, -1, 1]))

    @pytest.mark.parametrize("m", [1, 2])
    def test_orthogonality(self, m):
        strings = [tc.pauli_string(a) for a in itertools.product(range(4), repeat=m)]
        for i, s in enumerate(strings):
            for j, t in enumerate(strings):
                expected = 2**m if i == j else 0.0
                assert abs(np.trace(s.matrix @ t.matrix) - expected) < 1e-12

    def test_all_light_touch(self):
        for a in itertools.product(range(4), repeat=2):
            assert tc.is_light_touch(tc.pauli_string(a))

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="0..3"):
            tc.pauli_string((4,))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: tc.pauli_index((7,)),
            lambda: tc.pauli_index(()),
            lambda: tc.pauli_index(3),
            lambda: tc.pauli_string((True,)),
            lambda: tc.pauli_string((1.0,)),
            lambda: tc.pauli_string((0, -1)),
        ],
        ids=["index-7", "index-empty", "index-not-a-tuple", "string-bool", "string-float", "string-negative"],
    )
    def test_indices_are_gated(self, call):
        with pytest.raises(ValueError, match=r"^Pauli indices must be in 0\.\.3, got "):
            call()

    def test_numpy_int_indices_are_accepted(self):
        assert tc.pauli_index((np.int64(1), np.int8(3))) == tc.pauli_index((1, 3)) == 7
        assert type(tc.pauli_index((np.int64(1),))) is int
        np.testing.assert_array_equal(tc.pauli_string((np.int64(2),)).matrix, tc.PAULIS[2])

    def test_pair_factors_match_pauli_string(self):
        # Row (a, b) of _FROM_PAULI is the two-qubit string s_ab / 4 flattened, and column (a, b) of _TO_PAULI reads
        # Tr[x s_ab] off a flattened x: it is s_ab^T flattened, which is conj(s_ab) for a Hermitian string.
        for a in itertools.product(range(4), repeat=2):
            s = tc.pauli_string(a).matrix
            np.testing.assert_array_equal(_FROM_PAULI[tc.pauli_index(a)], s.ravel() / 4)
            np.testing.assert_array_equal(_TO_PAULI[:, tc.pauli_index(a)], s.T.ravel())

    def test_pair_factors_invert_each_other(self):
        np.testing.assert_array_equal(_FROM_PAULI @ _TO_PAULI, np.eye(16))
        np.testing.assert_array_equal(_TO_PAULI @ _FROM_PAULI, np.eye(16))


class TestStarProduct:
    def test_replace_channel_gives_product(self):
        rng = np.random.default_rng(0)
        rho = tc.random_density(2, seed=rng)
        sigma = tc.random_density(3, seed=rng)
        out = tc.star_product(tc.replace_channel(sigma, dim_in=2), rho)
        np.testing.assert_allclose(out, tc.tensor(rho, sigma), atol=1e-12)

    def test_identity_on_maximally_mixed(self):
        out = tc.star_product(tc.identity_channel(2), np.eye(2) / 2)
        np.testing.assert_allclose(out, SWAP / 2)
        # a state over time need not be positive
        assert not tc.is_psd(out)[0]

    @pytest.mark.parametrize("seed", range(5))
    def test_marginals_law(self, seed):
        rng = np.random.default_rng(seed)
        e = tc.random_cptp(3, 2, 2, seed=rng)
        rho = tc.random_density(3, seed=rng)
        r = tc.star_product(e, rho)
        assert tc.max_abs(r - r.conj().T) < 1e-12
        assert abs(np.trace(r) - 1) < 1e-10
        np.testing.assert_allclose(tc.partial_trace(r, (3, 2), "b"), rho, atol=1e-10)
        np.testing.assert_allclose(tc.partial_trace(r, (3, 2), "a"), tc.apply(e, rho), atol=1e-10)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4)])
    def test_matches_the_definitional_anticommutator(self, dims):
        # 1/2 {rho (x) 1, J[E]} with J[E] = sum_ij |i><j| (x) E(|j><i|), built with np.kron,
        # for a CPTP map and for a map that is not Hermitian-preserving.
        m, n = dims
        rng = np.random.default_rng(m * n)
        g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
        rho = tc.random_density(m, seed=rng)
        units = np.eye(m)
        for e in (tc.random_cptp(m, n, 2, seed=rng), tc.SuperOp(m, n, g / tc.max_abs(g))):
            j = sum(
                np.kron(np.outer(units[i], units[k]), tc.apply(e, np.outer(units[k], units[i])))
                for i in range(m)
                for k in range(m)
            )
            lifted = np.kron(rho, np.eye(n))
            assert tc.max_abs(tc.star_product(e, rho) - (lifted @ j + j @ lifted) / 2) < 1e-15

    def test_hptp_input_stays_hermitian(self):
        r = tc.star_product(tc.transpose_map(2), tc.random_density(2, seed=5))
        assert tc.max_abs(r - r.conj().T) < 1e-12
        assert abs(np.trace(r) - 1) < 1e-12


class TestReverseStar:
    def test_replace_from_second_factor(self):
        rng = np.random.default_rng(1)
        sigma_a = tc.random_density(2, seed=rng)
        rho_b = tc.random_density(3, seed=rng)
        out = tc.reverse_star(tc.replace_channel(sigma_a, dim_in=3), rho_b)
        np.testing.assert_allclose(out, tc.tensor(sigma_a, rho_b), atol=1e-12)

    def test_identity_on_maximally_mixed(self):
        np.testing.assert_allclose(
            tc.reverse_star(tc.identity_channel(2), np.eye(2) / 2), SWAP / 2
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_anticommutator_form(self, seed):
        rng = np.random.default_rng(seed)
        f = tc.random_cptp(3, 2, 2, seed=rng)
        rho_b = tc.random_density(3, seed=rng)
        lhs = tc.reverse_star(f, rho_b)
        j_star = tc.jamiolkowski(tc.hs_adjoint(f))
        r1 = tc.tensor(np.eye(2), rho_b)
        np.testing.assert_allclose(lhs, (r1 @ j_star + j_star @ r1) / 2, atol=1e-12)


class TestLightTouch:
    def test_identity_and_projector_spectra(self):
        assert tc.is_light_touch(tc.observable(np.eye(3)))
        assert not tc.is_light_touch(tc.observable(np.diag([1.0, 0.0])))
        assert not tc.is_light_touch(tc.observable(-np.eye(2)))
        assert tc.is_light_touch(tc.observable(np.zeros((2, 2))))

    def test_random_generator_emits_light_touch(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            assert tc.is_light_touch(tc.random_light_touch(4, seed=rng))

    def test_three_valued_spectrum_rejected(self):
        assert not tc.is_light_touch(tc.observable(np.diag([1.0, 0.0, -1.0])))


class TestTwoTimeExpectation:
    def test_plus_state_x_then_x(self):
        p = tc.Process(channel=tc.identity_channel(2), input_state=proj(KET_PLUS))
        mx = tc.observable(SIGMA_X)
        assert abs(tc.two_time_expectation(mx, mx, p) - 1.0) < 1e-12

    def test_plus_state_z_then_x(self):
        p = tc.Process(channel=tc.identity_channel(2), input_state=proj(KET_PLUS))
        mz = tc.observable(SIGMA_Z)
        mx = tc.observable(SIGMA_X)
        assert abs(tc.two_time_expectation(mz, mx, p)) < 1e-12

    def test_identity_first_observable(self):
        rng = np.random.default_rng(3)
        e = tc.random_cptp(2, 3, 2, seed=rng)
        rho = tc.random_density(2, seed=rng)
        p = tc.Process(channel=e, input_state=rho)
        n = tc.observable(random_hermitian(3, rng))
        expected = np.trace(tc.apply(e, rho) @ n.matrix).real
        one = tc.observable(np.eye(2))
        assert abs(tc.two_time_expectation(one, n, p) - expected) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_eigenspace_loop(self, seed):
        # One channel application to the stack of all P rho P, read by one pairing, against the loop
        # sum_i lambda_i Tr[E(P_i rho P_i) N]; the summation order changed, so agreement is to rounding.
        rng = np.random.default_rng(seed)
        d_in, d_out = 2 + seed % 3, 2 + seed // 3
        e = tc.random_cptp(d_in, d_out, 2, seed=rng)
        p = tc.Process(channel=e, input_state=tc.random_density(d_in, seed=rng))
        m = tc.observable(np.diag([1.0, 1.0] + [-0.5] * (d_in - 2)) + 0.3 * random_hermitian(d_in, rng))
        n = tc.observable(random_hermitian(d_out, rng))
        rho = p.input_state
        loop = sum(lam * np.trace(tc.apply(e, q @ rho @ q) @ n.matrix) for lam, q in m.eigenspaces)
        assert abs(tc.two_time_expectation(m, n, p) - loop.real) < 1e-14

    def test_dimension_mismatch(self):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        with pytest.raises(ValueError, match="dimension"):
            tc.two_time_expectation(tc.observable(np.eye(3)), tc.observable(np.eye(2)), p)


class TestRepresentability:
    @pytest.mark.parametrize("seed", range(8))
    def test_light_touch_pairs_are_represented(self, seed):
        rng = np.random.default_rng(seed)
        e = tc.random_cptp(3, 2, 2, seed=rng)
        rho = tc.random_density(3, seed=rng)
        p = tc.Process(channel=e, input_state=rho)
        r = tc.star_product(e, rho)
        a = tc.random_light_touch(3, seed=rng)
        b = tc.observable(random_hermitian(2, rng))
        ok, residual = tc.representability_check(r, a, b, p, tol=1e-9)
        assert ok, residual

    def test_non_light_touch_counterexample(self):
        # measure-update nonlinearity: projector observable on the |-> state
        p = tc.Process(channel=tc.identity_channel(2), input_state=proj(KET_MINUS))
        r = tc.star_product(p.channel, p.input_state)
        m = tc.observable(np.diag([1.0, 0.0]))
        n = tc.observable(SIGMA_X)
        ok, residual = tc.representability_check(r, m, n, p, tol=1e-6)
        assert not ok
        assert abs(residual - 0.5) < 1e-12

    @pytest.mark.parametrize(
        "defect, message",
        [(np.nan, "^matrix contains non-finite entries$"), (1e-3j, "^hermiticity violated"), (None, "nonempty square")],
        ids=["nan", "non-hermitian", "shape"],
    )
    def test_candidate_is_gated(self, defect, message):
        # R is read through one Tr[A B] kernel, which would pair any array of d^4 entries; the gate keeps it a
        # finite Hermitian d^2 x d^2 matrix.
        p = tc.Process(channel=tc.identity_channel(2), input_state=proj(KET_MINUS))
        r = tc.star_product(p.channel, p.input_state)
        if defect is None:
            r = r.reshape(2, 8)
        else:
            r[0, 1] += defect
        with pytest.raises(ValueError, match=message):
            tc.representability_check(r, tc.observable(SIGMA_X), tc.observable(SIGMA_X), p)

    def test_maximally_mixed_input_reduces_to_jamiolkowski(self):
        u = tc.random_unitary(2, seed=4)
        e = tc.from_kraus([u])
        r = tc.star_product(e, np.eye(2) / 2)
        np.testing.assert_allclose(r, tc.jamiolkowski(e) / 2, atol=1e-12)


class TestCorrelationTables:
    def test_validation(self):
        with pytest.raises(ValueError, match="incomplete"):
            tc.CorrelationTable(qubits=1, table=np.zeros((3, 4)))
        bad = np.zeros((4, 4))
        with pytest.raises(ValueError, match="identity-pair"):
            tc.CorrelationTable(qubits=1, table=bad)
        out_of_range = np.zeros((4, 4))
        out_of_range[0, 0] = 1.0
        out_of_range[1, 2] = 1.5
        with pytest.raises(ValueError, match="\\[-1, 1\\]"):
            tc.CorrelationTable(qubits=1, table=out_of_range)

    def test_numpy_int_qubits_are_stored_as_int(self):
        # 4**np.int64(32) wraps to 0 in int64, so the shape gate would name (0, 0); an int names the true size.
        with pytest.raises(ValueError, match=re.escape(f"expected shape {(4**32, 4**32)}, got (4, 4)")):
            tc.CorrelationTable(qubits=np.int64(32), table=np.eye(4))
        table = tc.correlations_from_process(tc.Process(tc.identity_channel(2), tc.random_density(2, seed=3)), 1).table
        corr = tc.CorrelationTable(qubits=np.int64(1), table=table)
        assert type(corr.qubits) is int
        want = tc.pdm_from_correlations(tc.CorrelationTable(qubits=1, table=table))
        assert tc.pdm_from_correlations(corr).tobytes() == want.tobytes()

    @pytest.mark.parametrize("at", [(1, 2), (0, 0)], ids=["entry", "identity-pair"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_are_named(self, at, value):
        # A NaN passes the identity-pair and range comparisons; the table would give a NaN pdm.
        table = np.eye(4)
        table[at] = value
        with pytest.raises(ValueError, match="^correlation table contains non-finite entries$"):
            tc.CorrelationTable(qubits=1, table=table)

    def test_replace_channel_factorizes(self):
        rng = np.random.default_rng(5)
        rho = tc.random_density(2, seed=rng)
        sigma = tc.random_density(2, seed=rng)
        p = tc.Process(channel=tc.replace_channel(sigma), input_state=rho)
        corr = tc.correlations_from_process(p, 1)
        for a in range(4):
            for b in range(4):
                expected = (
                    np.trace(rho @ tc.PAULIS[a]).real * np.trace(sigma @ tc.PAULIS[b]).real
                )
                assert abs(corr.table[a, b] - expected) < 1e-10

    def test_identity_on_maximally_mixed_is_diagonal(self):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        corr = tc.correlations_from_process(p, 1)
        np.testing.assert_allclose(corr.table, np.eye(4), atol=1e-12)

    def test_identity_pair_always_one(self):
        rng = np.random.default_rng(6)
        e = tc.random_cptp(2, 2, 3, seed=rng)
        p = tc.Process(channel=e, input_state=tc.random_density(2, seed=rng))
        corr = tc.correlations_from_process(p, 1)
        assert abs(corr.entry((0,), (0,)) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["cptp", "transpose"])
    def test_matches_per_pair_expectations(self, m, kind):
        rng = np.random.default_rng(10 + m)
        d = 2**m
        e = tc.random_cptp(d, d, 2, seed=rng) if kind == "cptp" else tc.transpose_map(d)
        p = tc.Process(channel=e, input_state=tc.random_density(d, seed=rng))
        strings = [tc.pauli_string(a) for a in itertools.product(range(4), repeat=m)]
        expected = [[tc.two_time_expectation(s, t, p) for t in strings] for s in strings]
        corr = tc.correlations_from_process(p, m)
        np.testing.assert_allclose(corr.table, expected, rtol=0, atol=1e-13)

    def test_matches_per_pair_expectations_at_four_qubits(self):
        # The full m=4 oracle is 65,536 pairs; a fixed sample of 64 of them, drawn once from a seeded generator.
        _check_sampled_pairs(4, np.random.default_rng(14), 64)

    def test_matches_per_pair_expectations_at_five_qubits(self):
        # 16 of 1,048,576 pairs: each oracle call pushes a stack through the 1024 x 1024 Choi matrix.
        _check_sampled_pairs(5, np.random.default_rng(15), 16)

    @pytest.mark.parametrize(
        "alpha, beta",
        [((1,), (1,)), ((1, 0), (1,)), ((1, 0, 0), (1, 0)), ((1, 0), (1, 4)), ((), ())],
        ids=["both-short", "beta-short", "alpha-long", "bad-index", "empty"],
    )
    def test_entry_takes_one_string_of_qubits_indices_per_side(self, alpha, beta):
        # Unchecked, a 1-qubit pair on a 2-qubit table would read index 1, the (I (x) X, I (x) X) entry.
        corr = tc.correlations_from_process(tc.Process(tc.identity_channel(4), np.eye(4) / 4), 2)
        assert corr.entry((0, 1), (0, 1)) == 1.0
        with pytest.raises(ValueError, match="Pauli indices"):
            corr.entry(alpha, beta)

    def test_mutating_results_leaves_the_next_call_unchanged(self):
        rng = np.random.default_rng(8)
        p = tc.Process(tc.random_cptp(4, 4, 2, seed=rng), tc.random_density(4, seed=rng))
        corr = tc.correlations_from_process(p, 2)
        table, pdm = corr.table.copy(), tc.pdm_from_correlations(corr)
        want = pdm.copy()
        corr.table[:] = 0.5
        pdm[:] = 7.0
        again = tc.correlations_from_process(p, 2)
        np.testing.assert_array_equal(again.table, table)
        np.testing.assert_array_equal(tc.pdm_from_correlations(again), want)

    def test_non_hermitian_preserving_channel_rejected(self):
        e = tc.SuperOp(2, 2, 1j * tc.identity_channel(2).choi)
        p = tc.Process(channel=e, input_state=np.eye(2) / 2)
        with pytest.raises(ValueError, match="imaginary residue"):
            tc.correlations_from_process(p, 1)

    @pytest.mark.parametrize("qubits", [0, -1, True, 1.0])
    def test_qubit_count_is_gated(self, qubits):
        # At qubits=0 a 1-dim process passes the dims check, and the transform would fail in numpy's reshape.
        p = tc.Process(channel=tc.identity_channel(1), input_state=np.eye(1))
        with pytest.raises(ValueError, match="^qubits must be a positive int, got "):
            tc.correlations_from_process(p, qubits)

    def test_non_qubit_dims_rejected(self):
        # A count read off the dims (qubits=None) is named by no message: none was given.
        for dim, qubits, count in [(3, 1, "1-"), (4, 1, "1-"), (1, None, ""), (3, None, ""), (6, None, "")]:
            p = tc.Process(channel=tc.identity_channel(dim), input_state=np.eye(dim) / dim)
            with pytest.raises(ValueError, match=rf"^process dims \({dim}, {dim}\) are not {count}qubit algebras$"):
                tc.correlations_from_process(p, qubits)


def _check_sampled_pairs(m: int, rng: np.random.Generator, samples: int) -> None:
    """Sampled table entries of a random m-qubit process against the two-time expectation of their Pauli pair."""
    d = 2**m
    p = tc.Process(tc.random_cptp(d, d, 2, seed=rng), tc.random_density(d, seed=rng))
    corr = tc.correlations_from_process(p, m)
    strings = list(itertools.product(range(4), repeat=m))
    for a, b in rng.integers(0, len(strings), size=(samples, 2)):
        expected = tc.two_time_expectation(tc.pauli_string(strings[a]), tc.pauli_string(strings[b]), p)
        assert abs(corr.table[a, b] - expected) <= 1e-13


class TestPdm:
    def test_product_zero_state(self):
        table = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                table[i, j] = 1.0
        corr = tc.CorrelationTable(qubits=1, table=table)
        np.testing.assert_allclose(tc.pdm_from_correlations(corr), np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_trivial_table(self):
        table = np.zeros((4, 4))
        table[0, 0] = 1.0
        corr = tc.CorrelationTable(qubits=1, table=table)
        np.testing.assert_allclose(tc.pdm_from_correlations(corr), np.eye(4) / 4)

    def test_identity_process_table_gives_swap_half(self):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        r = tc.pdm_from_correlations(tc.correlations_from_process(p, 1))
        np.testing.assert_allclose(r, SWAP / 2, atol=1e-12)

    def test_table_reproduced_from_pdm(self):
        rng = np.random.default_rng(7)
        e = tc.random_cptp(2, 2, 2, seed=rng)
        p = tc.Process(channel=e, input_state=tc.random_density(2, seed=rng))
        corr = tc.correlations_from_process(p, 1)
        r = tc.pdm_from_correlations(corr)
        for a in range(4):
            for b in range(4):
                value = np.trace(r @ tc.tensor(tc.PAULIS[a], tc.PAULIS[b])).real
                assert abs(value - corr.table[a, b]) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_round_trip_equals_star_product(self, m):
        rng = np.random.default_rng(m)
        d = 2**m
        for _ in range(3 if m < 5 else 1):
            e = tc.random_cptp(d, d, 2, seed=rng)
            rho = tc.random_density(d, seed=rng)
            p = tc.Process(channel=e, input_state=rho)
            r = tc.pdm_from_correlations(tc.correlations_from_process(p, m))
            assert tc.max_abs(r - tc.star_product(e, rho)) < 1e-12

    def test_five_qubit_round_trip_peaks_below_four_state_sizes(self):
        # The state over time, its paired copy and one matmul output are live at once: 3 sizes of the 1024 x 1024
        # complex tau.
        rng = np.random.default_rng(55)
        p = tc.Process(tc.random_cptp(32, 32, 2, seed=rng), tc.random_density(32, seed=rng))
        tracemalloc.start()
        try:
            tc.pdm_from_correlations(tc.correlations_from_process(p, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1024**2 * 16
