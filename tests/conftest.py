"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
from numpy.linalg import _umath_linalg

import tempcert as tc

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
