"""Tests for the dense linear-algebra kernel."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from conftest import SIGMA_X, SIGMA_Z, bell_state, proj, random_hermitian, random_trace_one_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

import tempcert as tc
from tempcert import documents
from tempcert.operators import _hermitian_part, _require_trace_one, hermiticity_defect, require_hermitian

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


def test_package_forms_the_hermitian_part_in_one_helper():
    # (a + a^dag) / 2 is operators._hermitian_part, whose sum runs on a C-ordered copy of a^dag,
    # not on a transposed operand.
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
    pattern = re.compile(r"\b([\w.]+) \+ \1\.conj\(\)\.T|\b([\w.]+)\.conj\(\)\.T \+ \2\b|np\.conj\(")
    found = {name: len(pattern.findall(text)) for name, text in sources.items()}
    assert {name: k for name, k in found.items() if k} == {"operators.py": 1}
    body = sources["operators.py"].split("def _hermitian_part(")[1].split("\ndef ")[0]
    assert 'np.conj(a.T, order="C")' in body


def test_package_pairs_operators_in_one_kernel():
    # Every Tr[A B] is operators._pairings, one matmul over stacks; no np.trace runs on a product.
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
    products = {}
    for name, text in sources.items():
        for start in (m.end() for m in re.finditer(r"np\.trace\(", text)):
            depth, end = 1, start
            while depth:
                depth += {"(": 1, ")": -1}.get(text[end], 0)
                end += 1
            if "@" in text[start : end - 1]:
                products.setdefault(name, []).append(text[start : end - 1])
    assert products == {}
    assert "def _pairings(" in sources["operators.py"]


def test_package_builds_observables_in_one_place():
    # sot.observable is the one Spectrum of a gated Hermitian matrix; there is no second spelling of it.
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
    found = {name: text.count("_spectrum(require_hermitian(") for name, text in sources.items()}
    assert {name: k for name, k in found.items() if k} == {"sot.py": 1}
    assert "sqrt_pinv" not in "".join(sources.values())


def test_package_checks_the_side_in_one_place():
    # operators._oriented puts the named factor first; every factor operation is written for that order.
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
    checks = {name: text.count("side must be 'a' or 'b'") for name, text in sources.items()}
    assert {name: k for name, k in checks.items() if k} == {"operators.py": 1}
    definitions = {name: text.count("def _oriented(") for name, text in sources.items()}
    assert {name: k for name, k in definitions.items() if k} == {"operators.py": 1}
    assert "side must be 'a' or 'b'" in sources["operators.py"].split("def _oriented(")[1].split("\ndef ")[0]


def test_package_makes_one_cholesky_call():
    # The PPT flag and the Choi cross-check share _cholesky_cp, so a failed factorization means one thing.
    sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
    calls = {name: text.count("np.linalg.cholesky(") for name, text in sources.items()}
    assert {name: k for name, k in calls.items() if k} == {"temporal.py": 1}
    body = sources["temporal.py"].split("def _cholesky_cp(")[1].split("\ndef ")[0]
    assert "np.linalg.cholesky(" in body


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
        ps = tc.observable(np.eye(2) / 2)
        np.testing.assert_allclose(ps.inv_sqrt, np.sqrt(2) * np.eye(2), atol=1e-12)

    def test_pure_state(self):
        ps = tc.observable(proj(np.array([1, 0], dtype=complex)))
        np.testing.assert_allclose(ps.inv_sqrt, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(ps.complement, np.diag([0.0, 1.0]), atol=1e-12)
        assert ps.rank == 1

    def test_diagonal_values(self):
        ps = tc.observable(np.diag([0.9, 0.1]))
        np.testing.assert_allclose(ps.inv_sqrt, np.diag([0.9**-0.5, 0.1**-0.5]), atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_support_identity(self, rank):
        rng = np.random.default_rng(rank)
        rho = tc.random_density(4, rank=rank, seed=rng)
        ps = tc.observable(rho)
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

    @pytest.mark.parametrize("view", ["contiguous", "transposed", "strided", "fortran"])
    def test_require_hermitian_is_bitwise_the_hermitian_part(self, view):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        big = random_hermitian(12, rng) + 1e-12 * noise
        # Negative zeros whose sum keeps its sign: halving by 0.5, not by 0.5 - 0j, would flip them.
        big[0, 2] = big[2, 0] = -0.0
        big[4, 6], big[6, 4] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        views = {"contiguous": big, "transposed": big.T, "strided": big[::2, ::2], "fortran": np.asfortranarray(big)}
        a = views[view]
        assert require_hermitian(a).tobytes() == ((a + a.conj().T) / 2).tobytes()


def _tau6_with(value: complex, at: tuple[int, int]) -> np.ndarray:
    tau = tc.random_density(6, seed=7)
    tau[at] = value
    return tau


NON_FINITE_CHECKS = {
    "certify": lambda m: tc.certify(m, (2, 3)),
    "compatibility_test": lambda m: tc.compatibility_test(m, (2, 3), "a"),
    "temporal_channel": lambda m: tc.temporal_channel(m, (2, 3)),
    "is_ppt": lambda m: tc.is_ppt(m, (2, 3)),
    "is_psd": tc.is_psd,
    "validate_density": tc.validate_density,
}


@pytest.mark.parametrize("check", list(NON_FINITE_CHECKS), ids=str)
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.1, -np.inf)], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("at", [(2, 2), (1, 4)], ids=["diagonal", "off-diagonal"])
def test_non_finite_entries_are_rejected_before_arithmetic(check, value, at):
    # A NaN passes every comparison-based gate; warnings are errors, so no arithmetic runs on it.
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        NON_FINITE_CHECKS[check](_tau6_with(value, at))


OVERFLOW_GATES = {
    "certify": lambda m: tc.certify(m, (2, 3)),
    "is_ppt": lambda m: tc.is_ppt(m, (2, 3)),
    "is_psd": tc.is_psd,
    "validate_density": tc.validate_density,
    "dephasing_channel": tc.dephasing_channel,
}


@pytest.mark.parametrize("gate", list(OVERFLOW_GATES), ids=str)
@pytest.mark.parametrize(
    "pair, message",
    [
        (1e308, r"^hermitian part out of range: \(M \+ M\^dag\) / 2 overflows a float$"),
        (-1e308, r"^hermiticity violated: max\|M - M\^dag\| = inf > 1\.0e-10$"),
    ],
    ids=["hermitian", "anti-hermitian"],
)
def test_entries_near_the_float_limit_are_named(gate, pair, message):
    # Finite entries off both marginals whose Hermitian part, or defect, overflows; warnings are errors.
    tau = tc.random_density(6, seed=7)
    tau[0, 4] = tau[1, 5] = 1e308
    tau[4, 0] = tau[5, 1] = pair
    with pytest.raises(ValueError, match=message):
        OVERFLOW_GATES[gate](tau)


@pytest.mark.parametrize(
    "call",
    [tc.is_psd, tc.correlation_matrix_check, lambda m: tc.observable(m).eigenspaces],
    ids=["is_psd", "correlation_matrix_check", "observable"],
)
def test_empty_matrices_are_named(call):
    with pytest.raises(ValueError, match=r"^expected a nonempty square matrix, got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))


UNWRITTEN_INPUT_CALLS = {
    "certify": lambda m: tc.certify(m, (2, 3)),
    "compatibility_test": lambda m: tc.compatibility_test(m, (2, 3), "b"),
    "temporal_channel": lambda m: tc.temporal_channel(m, (2, 3)),
    "is_cptp": lambda m: tc.is_cptp(tc.SuperOp(2, 3, m)),
    "require_hermitian": require_hermitian,
}


@pytest.mark.parametrize("call", list(UNWRITTEN_INPUT_CALLS), ids=str)
def test_complex_input_is_not_written(call):
    # A complex128 array reaches the checks as the caller's own object (as_complex_matrix does not
    # copy it), so Hermitizing it in place would write into the caller's tau.
    rng = np.random.default_rng(9)
    tau = tc.random_density(6, seed=7) + 1e-13 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    before = tau.tobytes()
    UNWRITTEN_INPUT_CALLS[call](tau)
    assert tau.tobytes() == before


@pytest.mark.parametrize("dims", [(-2, -3), (2.0, 3.0), (6,), (0, 6), (2, 3, 1), (True, 6), (2, False)], ids=str)
def test_bad_dims_are_named(dims):
    tau6 = tc.random_density(6, seed=7)
    with pytest.raises(ValueError, match=r"^dims must be two positive ints, got \("):
        tc.certify(tau6, dims)
    for call in (tc.partial_trace, tc.partial_transpose, tc.swap_factors):
        with pytest.raises(ValueError, match="dims must be two positive ints"):
            call(tau6, dims)
    for side in "ab":  # dims are checked before they are unpacked or compared with the channel's
        with pytest.raises(ValueError, match=r"^dims must be two positive ints, got \("):
            tc.apply_to_factor(tc.identity_channel(2), tau6, dims, side)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    kind=st.sampled_from(["density", "non_positive", "skewed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginals_of_the_gated_tau_are_exactly_hermitian(dims, kind, seed):
    # certify gates tau once and not its marginals: a partial trace of the Hermitian part must be
    # its own Hermitian part to the last bit, so the marginal gate's defect and matrix are unchanged.
    rng = np.random.default_rng(seed)
    m, n = dims
    tau = tc.random_density(m * n, seed=rng) if kind == "density" else random_trace_one_hermitian(dims, rng)
    if kind == "skewed":  # an anti-Hermitian residue below the gate, so the Hermitian part is a new matrix
        tau = tau + 1e-12j * random_hermitian(m * n, rng)
    t = _require_trace_one(tau)
    for side in "ab":
        rho = tc.partial_trace(t, dims, side)
        assert hermiticity_defect(rho) == 0.0
        assert _hermitian_part(rho).tobytes() == rho.tobytes()


def _imaginary_two_time_expectation():
    # E(X) = i X is not Hermitian-preserving, so <Z then 1> on |0> comes out as i.
    process = tc.Process(tc.SuperOp(2, 2, 1j * tc.identity_channel(2).choi), proj(np.array([1, 0])))
    return tc.two_time_expectation(tc.observable(SIGMA_Z), tc.observable(np.eye(2)), process)


RARE_INPUT_CHECKS = {
    "process-input-dim": (
        lambda: tc.Process(tc.identity_channel(3), np.eye(2) / 2),
        r"^input state dim 2 does not match channel input dim 3$",
    ),
    "apply-to-factor-dim": (
        lambda: tc.apply_to_factor(tc.identity_channel(3), np.eye(4), (2, 2), "a"),
        r"^channel input dim 3 does not match factor dim 2$",
    ),
    "header-not-object": (lambda: documents.parse_state_document([1]), r"^document must be a JSON object$"),
    "header-unknown-kind": (
        lambda: documents.parse_state_document({"schema_version": "1", "kind": "tableau"}),
        r"^unknown document kind 'tableau'$",
    ),
    "positive-dim": (
        lambda: documents.parse_state_document(
            {"schema_version": "1", "kind": "state", "dim_a": 0, "dim_b": 2, "matrix": []}
        ),
        r"^dim_a must be a positive integer$",
    ),
    "separable-terms": (lambda: tc.random_separable(2, 2, 0), r"^need at least one product term$"),
    "discrimination-assignment": (
        lambda: tc.DiscriminationInstance([1.0], (np.eye(2) / 2,), (np.eye(2),), (0, 0)),
        r"^assignment must map every POVM outcome to an ensemble index$",
    ),
    "discrimination-negative-povm": (
        lambda: tc.DiscriminationInstance([1.0], (np.eye(2) / 2,), (np.diag([2.0, 1.0]), -np.diag([1.0, 0.0])), (0, 0)),
        r"^POVM element has negative eigenvalue -1\.000e\+00$",
    ),
    "split-does-not-factor": (
        lambda: tc.partial_trace(np.eye(4), (2, 3)),
        r"^matrix of shape \(4, 4\) does not factor as 2x3$",
    ),
    "star-product-dim": (
        lambda: tc.star_product(tc.identity_channel(3), np.eye(2) / 2),
        r"^state dim 2 does not match channel input dim 3$",
    ),
    "two-time-output-dim": (
        lambda: tc.two_time_expectation(
            tc.observable(SIGMA_Z), tc.observable(np.eye(3)), tc.Process(tc.identity_channel(2), np.eye(2) / 2)
        ),
        r"^second observable does not match the channel output dimension$",
    ),
    "two-time-imaginary": (
        _imaginary_two_time_expectation,
        r"^two-time expectation has imaginary residue 1\.000e\+00$",
    ),
}


@pytest.mark.parametrize("case", list(RARE_INPUT_CHECKS), ids=str)
def test_rarely_reached_input_checks_are_named(case):
    call, message = RARE_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
