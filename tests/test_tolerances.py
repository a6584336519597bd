"""Tests for the one tolerance record and the threshold rules read from it."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from conftest import bell_state, count_factorizations, random_faithful_separable

import tempcert as tc
from tempcert import channels, operators, sot, temporal

# the last five are not a real number; a bool is refused as it is in dims
BAD_TOLS = [math.nan, -1.0, math.inf, -math.inf, "1e-9", None, 1 + 0j, np.array([1e-9, 1e-9]), True]


def test_only_tolerance_knob_is_tol_at_the_record_default():
    knobs = []
    for name in dir(tc):
        obj = getattr(tc, name)
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        for param in inspect.signature(obj).parameters.values():
            if "tol" in param.name:
                knobs.append((name, param.name, param.default))
    assert knobs
    assert all(param == "tol" and default == tc.DEFAULT_TOLS.psd for _, param, default in knobs), knobs


class TestInvalidTol:
    @pytest.fixture
    def separable(self):
        return tc.assemble_state(random_faithful_separable((2, 2), np.random.default_rng(3)))

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_every_tol_function_raises(self, separable, tol):
        process = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        z = tc.observable(tc.PAULIS[3])
        calls = [
            lambda: tc.certify(separable, (2, 2), tol),
            lambda: tc.compatibility_test(separable, (2, 2), "a", tol),
            lambda: tc.bayesian_inverse(process, tol),
            lambda: tc.is_ppt(separable, (2, 2), tol),
            lambda: tc.is_psd(separable, tol),
            lambda: tc.is_cptp(tc.identity_channel(2), tol),
            lambda: tc.is_hptp(tc.identity_channel(2), tol),
            lambda: tc.correlation_matrix_check(np.eye(2), tol),
            lambda: tc.representability_check(tc.star_product(process.channel, np.eye(2) / 2), z, z, process, tol),
            lambda: tc.is_orthogonal_ensemble(states, tol),
            lambda: tc.discrimination_povm([0.5, 0.5], states, tol),
            lambda: tc.perfect_distinguishability_check(tc.discrimination_povm([0.5, 0.5], states), tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                call()

    def test_inf_no_longer_certifies_the_bell_state(self):
        with pytest.raises(ValueError, match="tol"):
            tc.certify(bell_state(), (2, 2), math.inf)

    def test_zero_is_accepted(self, separable):
        assert tc.is_psd(np.eye(2), 0.0) == (True, 1.0)
        assert tc.is_ppt(separable, (2, 2), 0.0)[0]

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
    def test_zero_certifies_separable_states(self, dims):
        # The returned Choi matrices are exactly Hermitian, so tol=0 leaves no
        # rounding for the channel's CP gate to trip on.
        for seed in range(10):
            tau = tc.assemble_state(random_faithful_separable(dims, np.random.default_rng(seed)))
            result = tc.certify(tau, dims, 0.0)
            assert result.compatible_both
            for report in (result.side_a, result.side_b):
                assert report.cptp.hermiticity_defect == 0.0
                assert report.cptp.tp  # residuals of ~1e-16 pass the TP gate's rounding floor


@pytest.mark.parametrize("ratio", [1e-13, 1e-11])
def test_support_cut_agrees_across_modules(ratio):
    # rho_a has p_min / p_max = ratio, on either side of DEFAULT_TOLS.rank.
    rng = np.random.default_rng(8)
    faithful = ratio > tc.DEFAULT_TOLS.rank
    u = tc.random_unitary(3, seed=rng)
    p = np.array([1.0, 0.5, ratio]) / (1.5 + ratio)
    rho_a = u @ np.diag(p) @ u.conj().T
    tau = tc.tensor(rho_a, tc.random_density(2, seed=rng))

    assert tc.observable(rho_a).rank == (3 if faithful else 2)
    checks = [
        lambda: tc.sylvester_oracle(tau, (3, 2)),
        lambda: tc.verify_dfed(tau, (3, 2)),
        lambda: tc.petz_selfinverse_dephasing_check(rho_a),
    ]
    for check in checks:
        if faithful:
            check()
        else:
            with pytest.raises(ValueError, match="faithful"):
                check()
    if not faithful:
        assert not tc.compatibility_test(tau, (3, 2), "a").faithful_marginal


def count_hermiticity_gates(monkeypatch) -> list[int]:
    """Record the size of every matrix passed to ``require_hermitian``, in every module that calls it."""
    sizes = []
    original = operators.require_hermitian

    def counted(m):
        sizes.append(np.shape(m)[0])
        return original(m)

    for module in (operators, channels, sot, temporal):
        if hasattr(module, "require_hermitian"):
            monkeypatch.setattr(module, "require_hermitian", counted)
    return sizes


def test_certify_checks_hermiticity_of_tau_once(monkeypatch):
    # The marginals are partial traces of tau's exactly Hermitian part: they are not gated again.
    tau = tc.random_density(12, seed=5)
    sizes = count_hermiticity_gates(monkeypatch)
    result = tc.certify(tau, (3, 4))
    assert sizes == [12]
    # the PPT eigenvalues are those of the partial transpose of the Hermitian part
    w = np.linalg.eigvalsh(tc.partial_transpose(operators.require_hermitian(tau), (3, 4), "a"))
    assert result.ppt_min_eigenvalue == float(w[0])


CORRELATION = np.eye(5) + 0.1 * (np.eye(5, k=1) + np.eye(5, k=-1))


@pytest.mark.parametrize(
    "call, gated, eigvalsh",
    [
        # rho, then tau = E * rho; the test matrices are factored, not solved
        (lambda process, tau: tc.bayesian_inverse(process), [3, 6], []),
        (lambda process, tau: tc.compatibility_test(tau, (3, 4), "b"), [12], []),
        (lambda process, tau: tc.is_ppt(tau, (3, 4)), [12], [12]),
        (lambda process, tau: tc.correlation_matrix_check(CORRELATION), [5], [5]),
    ],
    ids=["bayesian_inverse", "compatibility_test", "is_ppt", "correlation_matrix_check"],
)
def test_each_outside_input_is_gated_once(monkeypatch, call, gated, eigvalsh):
    # A matrix derived from a gated input (a partial transpose, a marginal) is not gated again,
    # and the gated matrix is solved once.
    process = tc.Process(channel=tc.random_cptp(3, 2, 2, seed=6), input_state=tc.random_density(3, seed=7))
    tau = tc.random_density(12, seed=5)
    sizes = count_hermiticity_gates(monkeypatch)
    solves = count_factorizations(monkeypatch)
    call(process, tau)
    assert sizes == gated
    assert solves["eigvalsh"] == eigvalsh


def test_zero_tol_boundary_zone_holds_exact_zero_eigenvalues(monkeypatch):
    # tau = rho (x) |psi><psi| has a singular Choi matrix, so its test matrix has exact zero
    # eigenvalues that rounding puts on either side of 0.  At tol=0 the zone 10 tol is empty;
    # its rounding floor keeps those eigenvalues in the zone, so the paths may differ there.
    rng = np.random.default_rng(11)
    states = []
    for _ in range(200):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rho = tc.random_density(m, seed=rng)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        states.append((tc.tensor(rho, np.outer(psi, psi.conj()) / np.vdot(psi, psi).real), (m, n)))

    def flags(result):
        return [(r.compatible, r.boundary, r.cptp.cp, r.cptp.tp) for r in (result.side_a, result.side_b)]

    for tau, dims in states:
        tc.certify(tau, dims, 0.0)
    with_floor = [flags(tc.certify(tau, dims)) for tau, dims in states]

    monkeypatch.setattr(tc.temporal, "_ZONE_ROUNDING", 0)
    assert [flags(tc.certify(tau, dims)) for tau, dims in states] == with_floor
    mismatches = 0
    for tau, dims in states:
        try:
            tc.certify(tau, dims, 0.0)
        except tc.VerdictMismatchError:
            mismatches += 1
    assert mismatches > 0  # without the floor some of these states raise
