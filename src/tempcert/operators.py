"""Dense complex linear algebra for small quantum systems.

Everything in this module works on plain ``numpy.ndarray`` values of dtype
``complex128``.  Bipartite operators on ``A (x) B`` are square matrices of
dimension ``dim_a * dim_b`` with the row index ``i_a * dim_b + i_b``, i.e.
the convention of ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLS",
    "SpectralDecomposition",
    "PseudoSqrt",
    "as_complex_matrix",
    "max_abs",
    "hermiticity_defect",
    "require_hermitian",
    "eig_hermitian",
    "is_psd",
    "validate_density",
    "tensor",
    "partial_trace",
    "partial_transpose",
    "hadamard_product",
    "sqrt_pinv",
    "swap_factors",
    "cauchy_matrix",
    "harmonic_mean_matrix",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by the whole toolkit.

    The certification verdicts are only reproducible if every routine agrees
    on these, so they travel as one record instead of ad-hoc keyword defaults.

    hermiticity : max-norm bound on ``M - M^dag`` (absolute).
    psd         : eigenvalue floor, relative to ``max(1, lambda_max)``.
    trace       : bound on ``|Tr - 1|`` for density matrices.
    cluster     : eigenvalue clustering gap, relative to ``max(1, spectral radius)``.
    rank        : eigenvalues below ``rank * lambda_max`` count as zero.
    imag        : largest imaginary residue silently discarded by real-valued results.
    """

    hermiticity: float = 1e-10
    psd: float = 1e-9
    trace: float = 1e-9
    cluster: float = 1e-8
    rank: float = 1e-12
    imag: float = 1e-9


DEFAULT_TOLS = Tolerances()


def as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a square complex matrix, raising on any other shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(m: np.ndarray) -> float:
    """Entrywise max norm."""
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(m: np.ndarray) -> float:
    a = as_complex_matrix(m)
    return max_abs(a - a.conj().T)


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_TOLS.hermiticity) -> np.ndarray:
    """Validate Hermiticity within ``tol`` (max norm) and return the Hermitian part."""
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"hermiticity violated: max|M - M^dag| = {defect:.3e} > {tol:.1e}")
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered spectral decomposition ``M = sum_i lambda_i P_i``.

    Eigenvalues whose gap falls below the clustering tolerance share one
    projector, so the projectors stay well defined under degeneracy.
    Eigenvalues are sorted in descending order, one entry per cluster.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out += lam * proj
        return out


def eig_hermitian(
    m: np.ndarray,
    cluster_tol: float | None = None,
    hermiticity_tol: float = DEFAULT_TOLS.hermiticity,
) -> SpectralDecomposition:
    """Clustered eigendecomposition of a Hermitian matrix.

    ``cluster_tol`` is relative to ``max(1, spectral radius)``; consecutive
    eigenvalues closer than that share one eigenspace projector.
    """
    a = require_hermitian(m, hermiticity_tol)
    w, v = np.linalg.eigh(a)
    w, v = w[::-1], v[:, ::-1]
    if cluster_tol is None:
        cluster_tol = DEFAULT_TOLS.cluster
    gap = cluster_tol * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)

    eigenvalues: list[float] = []
    projectors: list[np.ndarray] = []
    multiplicities: list[int] = []
    start = 0
    for stop in range(1, len(w) + 1):
        if stop < len(w) and (w[stop - 1] - w[stop]) <= gap:
            continue
        cols = v[:, start:stop]
        eigenvalues.append(float(np.mean(w[start:stop])))
        projectors.append(cols @ cols.conj().T)
        multiplicities.append(stop - start)
        start = stop
    return SpectralDecomposition(
        eigenvalues=np.array(eigenvalues),
        projectors=tuple(projectors),
        multiplicities=tuple(multiplicities),
    )


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOLS.psd) -> tuple[bool, float]:
    """Positive-semidefiniteness check.

    Returns ``(verdict, min_eigenvalue)``; the verdict is true iff
    ``lambda_min >= -tol * max(1, lambda_max)``.
    """
    w = np.linalg.eigvalsh(require_hermitian(m))
    lam_min = float(w[0])
    lam_max = float(w[-1])
    return lam_min >= -tol * max(1.0, lam_max), lam_min


def validate_density(m: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Check the density-matrix invariants, returning the Hermitian part.

    Raises ``ValueError`` whose message names the violated invariant
    (hermiticity, trace, or psd).
    """
    a = require_hermitian(m, tols.hermiticity)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > tols.trace:
        raise ValueError(f"trace invariant violated: Tr = {tr:.10g}, expected 1")
    ok, lam_min = is_psd(a, tols.psd)
    if not ok:
        raise ValueError(f"psd invariant violated: min eigenvalue = {lam_min:.3e}")
    return a


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the ``i_a * dim_b + i_b`` index convention."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def _split(t: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    da, db = dims
    a = as_complex_matrix(t)
    if a.shape[0] != da * db:
        raise ValueError(f"matrix of dim {a.shape[0]} does not factor as {da}x{db}")
    return a.reshape(da, db, da, db)


def partial_trace(t: np.ndarray, dims: tuple[int, int], side: str = "b") -> np.ndarray:
    """Trace out the indicated factor of a bipartite operator.

    ``side="b"`` keeps the first factor (returns a ``dim_a`` square matrix),
    ``side="a"`` keeps the second.
    """
    r = _split(t, dims)
    if side == "b":
        return np.einsum("axbx->ab", r)
    if side == "a":
        return np.einsum("axay->xy", r)
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def partial_transpose(t: np.ndarray, dims: tuple[int, int], side: str = "a") -> np.ndarray:
    """Transpose one factor of a bipartite operator in the computational basis."""
    da, db = dims
    r = _split(t, dims)
    if side == "a":
        return r.transpose(2, 1, 0, 3).reshape(da * db, da * db)
    if side == "b":
        return r.transpose(0, 3, 2, 1).reshape(da * db, da * db)
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def hadamard_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard-Schur) product of two equal-dimension matrices."""
    x = as_complex_matrix(a)
    y = as_complex_matrix(b)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x * y


@dataclass(frozen=True)
class PseudoSqrt:
    """Support-restricted square root data of a PSD operator.

    ``inv_sqrt`` is the Moore-Penrose pseudoinverse square root (zero on the
    kernel), ``sqrt`` the ordinary square root, ``support`` the projection
    onto the range and ``complement`` its orthogonal complement.
    """

    inv_sqrt: np.ndarray
    sqrt: np.ndarray
    support: np.ndarray
    complement: np.ndarray
    rank: int


def sqrt_pinv(rho: np.ndarray, rank_tol: float = DEFAULT_TOLS.rank) -> PseudoSqrt:
    """Pseudoinverse square root of a PSD matrix.

    Eigenvalues ``p <= rank_tol * p_max`` count as zero; rank deficiency is
    handled, not an error.
    """
    a = require_hermitian(rho)
    w, v = np.linalg.eigh(a)
    p_max = float(w[-1]) if w.size else 0.0
    mask = w > rank_tol * max(p_max, 0.0)
    inv = np.divide(1.0, np.sqrt(np.abs(w)), out=np.zeros_like(w), where=mask)
    root = np.where(mask, np.sqrt(np.abs(w)), 0.0)
    vs = v[:, mask]
    support = vs @ vs.conj().T
    return PseudoSqrt(
        inv_sqrt=(v * inv) @ v.conj().T,
        sqrt=(v * root) @ v.conj().T,
        support=support,
        complement=np.eye(a.shape[0]) - support,
        rank=int(np.count_nonzero(mask)),
    )


def swap_factors(t: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Exchange the two tensor factors: the linear extension of B (x) A -> A (x) B."""
    da, db = dims
    return _split(t, dims).transpose(1, 0, 3, 2).reshape(da * db, da * db)


def _positive_probabilities(p: np.ndarray) -> np.ndarray:
    q = np.asarray(p, dtype=float).ravel()
    if q.size == 0 or np.any(q <= 0):
        raise ValueError("probabilities restricted to the support must be strictly positive")
    return q


def cauchy_matrix(p: np.ndarray) -> np.ndarray:
    """The PSD matrix with entries ``2 / (p_i + p_j)`` for strictly positive p."""
    q = _positive_probabilities(p)
    return (2.0 / np.add.outer(q, q)).astype(np.complex128)


def harmonic_mean_matrix(p: np.ndarray) -> np.ndarray:
    """Unit-diagonal PSD matrix of pairwise harmonic means ``2 sqrt(p_i p_j) / (p_i + p_j)``."""
    q = _positive_probabilities(p)
    return (2.0 * np.sqrt(np.outer(q, q)) / np.add.outer(q, q)).astype(np.complex128)
