"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import gc
import tracemalloc
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

import tempcert as tc

# Every property runs the same examples on every run, with no per-example deadline: ``@settings(**DERANDOMIZED,
# max_examples=N)``.  Keywords, not a settings object, so each property still inherits the active profile.
DERANDOMIZED = dict(deadline=None, derandomize=True)
DEFAULT_TOL = tc.DEFAULT_TOLS.psd

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = (KET0 + KET1) / np.sqrt(2)
KET_MINUS = (KET0 - KET1) / np.sqrt(2)
KET_IPLUS = (KET0 + 1j * KET1) / np.sqrt(2)
KET_IMINUS = (KET0 - 1j * KET1) / np.sqrt(2)

SIGMA_X = tc.PAULIS[1]
SIGMA_Y = tc.PAULIS[2]
SIGMA_Z = tc.PAULIS[3]


def count_factorizations(monkeypatch, shapes: bool = False) -> dict[str, list]:
    """Record the size of every ``eigh``, ``eigvalsh`` and ``cholesky`` call, by function.

    ``eigh`` and ``eigvalsh`` are counted at ``np.linalg``; ``cholesky`` at numpy's LAPACK gufunc
    ``_umath_linalg.cholesky_lo``, which ``temporal._cholesky_cp`` calls directly.  With ``shapes``, record the
    full shape of each argument, so a stack of ``k`` matrices reads ``(k, d, d)``."""
    sizes = {"eigh": [], "eigvalsh": [], "cholesky": []}
    for module, name, key in ((np.linalg, "eigh", "eigh"), (np.linalg, "eigvalsh", "eigvalsh"),
                              (_umath_linalg, "cholesky_lo", "cholesky")):
        original = getattr(module, name)

        def counted(a, *args, _original=original, _calls=sizes[key], **kwargs):
            _calls.append(np.shape(a) if shapes else np.shape(a)[-1])
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return sizes


def retained_input_sizes(call, tau: np.ndarray, *args) -> float:
    """The memory that the result of ``call(tau, *args)`` keeps alive, in units of ``tau.nbytes``: the traced
    allocations that survive the call and a ``gc.collect()``, while the result is still held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(tau, *args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del result
    return retained / tau.nbytes


def proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def bell_state() -> np.ndarray:
    """The maximally entangled two-qubit state |00> + |11> (normalized)."""
    v = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    return proj(v)


def werner(p: float) -> np.ndarray:
    """Bell state mixed with white noise."""
    return p * bell_state() + (1 - p) * np.eye(4) / 4


def octahedral_ensemble() -> tc.ProductEnsemble:
    """Six-state ensemble over the Pauli eigenstates, weighted toward the z axis."""
    states = tuple(proj(v) for v in (KET0, KET1, KET_PLUS, KET_MINUS, KET_IPLUS, KET_IMINUS))
    weights = np.array([5 / 8, 3 / 40, 3 / 40, 3 / 40, 3 / 40, 3 / 40])
    return tc.ProductEnsemble(weights=weights, states_a=states, states_b=states)


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def margin_preserving_perturbation(dims: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Traceless Hermitian perturbation whose both partial traces vanish."""
    m, n = dims
    h = random_hermitian(m * n, rng)
    tr_a = tc.partial_trace(h, dims, "a")
    tr_b = tc.partial_trace(h, dims, "b")
    total = float(np.trace(h).real)
    return (
        h
        - tc.tensor(np.eye(m) / m, tr_a)
        - tc.tensor(tr_b, np.eye(n) / n)
        + total * np.eye(m * n) / (m * n)
    )


def random_trace_one_hermitian(
    dims: tuple[int, int],
    rng: np.random.Generator,
    strength: float = 0.5,
) -> np.ndarray:
    """Random Hermitian trace-one operator with faithful density-matrix marginals.

    Built as a faithful density matrix plus a margin-preserving Hermitian
    perturbation, so the marginals stay valid while the operator itself is
    generically not positive.
    """
    m, n = dims
    base = tc.random_density(m * n, seed=rng)
    delta = margin_preserving_perturbation(dims, rng)
    return base + strength * delta / max(tc.max_abs(delta), 1.0)


def random_faithful_separable(
    dims: tuple[int, int],
    rng: np.random.Generator,
    n_terms: int | None = None,
    min_eig: float = 1e-3,
) -> tc.ProductEnsemble:
    """Random separable ensemble resampled until both marginals are well conditioned."""
    m, n = dims
    if n_terms is None:
        n_terms = m + n
    while True:
        ens = tc.random_separable(m, n, n_terms, seed=rng)
        tau = tc.assemble_state(ens)
        lam_a = np.linalg.eigvalsh(tc.partial_trace(tau, dims, "b"))[0]
        lam_b = np.linalg.eigvalsh(tc.partial_trace(tau, dims, "a"))[0]
        if lam_a > min_eig and lam_b > min_eig:
            return ens


def rank_deficient_separable(
    dims: tuple[int, int],
    rank_a: int,
    n_terms: int,
    rng: np.random.Generator,
) -> tc.ProductEnsemble:
    """Separable ensemble whose first-factor marginal has rank exactly ``rank_a``."""
    m, n = dims
    u = tc.random_unitary(m, seed=rng)
    basis = u[:, :rank_a]
    states_a = []
    for _ in range(n_terms):
        small = tc.random_density(rank_a, seed=rng)
        states_a.append(basis @ small @ basis.conj().T)
    states_b = tuple(tc.random_density(n, seed=rng) for _ in range(n_terms))
    weights = rng.dirichlet(np.ones(n_terms))
    return tc.ProductEnsemble(weights=weights, states_a=tuple(states_a), states_b=states_b)


# The family registry: every certify property in test_temporal.py draws tau from ``family``, through ``cases``.
class Case(NamedTuple):
    """One drawn instance: ``truth`` is the known verdict, or None; ``rng`` continues after the family's draws."""

    kind: str
    tau: np.ndarray
    dims: tuple[int, int]
    tol: float
    rng: np.random.Generator
    truth: bool | tc.SuperOp | None


def _noisy(state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``state`` mixed with white noise at a uniform weight."""
    f = rng.uniform()
    return f * state + (1 - f) * np.eye(len(state)) / len(state)


def _isotropic(m: int, c: float) -> np.ndarray:
    """``c |Phi><Phi| + (1 - c) 1/d`` on ``m x m`` levels: its marginals are ``1/m``, and its partial transpose has
    least eigenvalue ``-c / m + (1 - c) / d``."""
    phi = np.eye(m).ravel() / np.sqrt(m)
    return c * proj(phi) + (1 - c) * np.eye(m * m) / (m * m)


# The shape parameters of the families that take any, drawn by hypothesis (not from the seed) so that they keep
# its edge values and shrink.
FAMILY_PARAMS = {
    "zone": {"offset": st.floats(-15.0, 15.0)},
    "ppt_mixed": {"rank": st.integers(1, 25), "toward_boundary": st.floats(0.0, 0.95)},
    "star_mixture": {"weight": st.floats(0.0, 1.0)},
}


def family(kind: str, dims: tuple[int, int], rng: np.random.Generator, tol: float = DEFAULT_TOL, **params):
    """``(tau, dims, truth)`` of the family ``kind``, drawn from ``rng`` at the ``params`` of
    :data:`FAMILY_PARAMS`; ``wide_pt`` and ``zone`` live on ``(m, m)``.  ``truth`` is True for a tau known
    compatible both ways and PPT, the channel ``E`` of ``tau = E * rho_a``, or None where no verdict is known.

    The README admits {faithful, rank-deficient} x {PSD, non-positive} x {well-, ill-conditioned} inputs.  The
    families cover faithful PSD, rank-deficient PSD (separable_rank_deficient) and faithful non-positive
    (non_positive, wide_non_positive, wide_pt, star_mixture) inputs, all well conditioned.  Two cells have no
    family yet, each to land with its fix: rank-deficient non-positive, where the returned channel misses tau
    (ROADMAP item 10), and ill-conditioned, where sides report tp = False (item 2).  A new family is one more
    branch here; every property that lists its name then draws it.
    """
    m, n = dims
    if kind == "density":
        return tc.random_density(m * n, seed=rng), dims, None
    if kind == "faithful_separable":  # both marginals' least eigenvalues above 1e-3
        return tc.assemble_state(random_faithful_separable(dims, rng)), dims, True
    if kind == "separable":
        return tc.assemble_state(tc.random_separable(m, n, m + n, seed=rng)), dims, True
    if kind == "separable_rank_deficient":  # the side-a marginal has rank m - 1
        return tc.assemble_state(rank_deficient_separable(dims, m - 1, m + n, rng)), dims, True
    if kind == "non_positive":
        return random_trace_one_hermitian(dims, rng), dims, None
    if kind == "wide_non_positive":
        # ||tau||_F up to about 4, mixed toward white noise so that the partial transpose's least eigenvalue sweeps
        # through 0.
        return _noisy(random_trace_one_hermitian(dims, rng, strength=rng.uniform(0.5, 8.0)), rng), dims, None
    if kind == "noisy_pure":
        return _noisy(tc.random_density(m * n, rank=1, seed=rng), rng), dims, None
    if kind == "noisy_max_entangled":
        # Maximally entangled on min(m, n) levels, so each marginal has a degenerate spectrum; isotropic if m = n.
        psi = np.zeros(m * n, dtype=complex)
        psi[[i * n + i for i in range(min(m, n))]] = 1 / np.sqrt(min(m, n))
        return _noisy(proj(psi), rng), dims, None
    if kind == "wide_pt":
        # tau's partial transpose is the isotropic operator at c > 1, of least eigenvalue -(c - 1) / d and greatest
        # c (d - 1) / d + 1 / d > 1, so the two PSD floors are far apart.
        return tc.partial_transpose(_isotropic(m, rng.uniform(1.0, 4.0)), (m, m), "a"), (m, m), None
    if kind == "zone":
        # The test matrix is m times the partial transpose, of least eigenvalue -c + (1 - c) / m, here offset * tol:
        # in or near the zone.
        return _isotropic(m, (1 - m * params["offset"] * tol) / (m + 1)), (m, m), None
    if kind == "ppt_mixed":
        # A state of rank 1-25 mixed with white noise a fraction f <= 0.95 of the way to its PPT boundary: its
        # partial transpose has least eigenvalue at least (1 - f) / d, far outside the zone.
        d = m * n
        state = tc.random_density(d, rank=min(params["rank"], d), seed=rng)
        lam = float(np.linalg.eigvalsh(tc.partial_transpose(state, dims, "a"))[0])
        toward_boundary = params["toward_boundary"]
        f = toward_boundary * (1.0 if lam >= 0 else (1 / d) / (1 / d - lam))
        tau = f * state + (1 - f) * np.eye(d) / d
        assert float(np.linalg.eigvalsh(tc.partial_transpose(tau, dims, "a"))[0]) >= (1 - toward_boundary) / d - 1e-12
        return tau, dims, True
    if kind == "star_mixture":
        # weight E1 * rho + (1 - weight) E2 * rho is the state over time of the CPTP mixture of E1 and E2.
        rho = tc.random_density(m, seed=rng)
        e1, e2 = (tc.random_cptp(m, n, -(-m // n) + int(rng.integers(0, 2)), seed=rng) for _ in range(2))
        w = params["weight"]
        tau = w * tc.star_product(e1, rho) + (1 - w) * tc.star_product(e2, rho)
        return tau, dims, tc.SuperOp(m, n, w * e1.choi + (1 - w) * e2.choi)
    raise ValueError(f"unknown family {kind!r}")


def cases(kinds: Sequence[str], dims: Sequence[tuple[int, int]], tols: Sequence[float] = (DEFAULT_TOL,)):
    """A strategy of :class:`Case` of one of ``kinds`` at one of ``dims`` and ``tols``, with its family's parameters
    drawn from :data:`FAMILY_PARAMS`.  One ``builds`` per kind, not an ``st.composite``: that drew each example
    0.3 ms slower."""
    dims, tols, seeds = st.sampled_from(dims), st.sampled_from(tols), st.integers(0, 2**32 - 1)
    return st.one_of([
        st.builds(_case, st.just(kind), dims, tols, seeds, **FAMILY_PARAMS.get(kind, {})) for kind in kinds
    ])


def _case(kind: str, dims: tuple[int, int], tol: float, seed: int, **params) -> Case:
    rng = np.random.default_rng(seed)
    tau, dims, truth = family(kind, dims, rng, tol, **params)
    return Case(kind, tau, dims, tol, rng, truth)
