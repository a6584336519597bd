"""Temporal channels and the certification of temporal compatibility.

Given a bipartite Hermitian trace-one operator ``tau`` whose marginals are
density matrices, there is a unique Hermitian-preserving trace-preserving map
``E`` with ``E * rho_a = tau`` whenever the marginal ``rho_a`` is faithful
(an explicit construction exists for rank-deficient marginals as well).
``tau`` admits a direct-cause explanation in that direction exactly when this
map is completely positive, which happens iff the partial transpose of the
dephased distorted operator

    ((T o D) (x) id)(rho_a^{-1/2} (x) 1  tau  rho_a^{-1/2} (x) 1)

is positive semidefinite, where ``D`` is the generalized dephasing channel of
``rho_a`` and ``T`` the transpose in an eigenbasis of ``rho_a``.  In that
eigenbasis the test matrix is ``tau`` with the first factor transposed and
weighted entrywise by the Cauchy matrix ``2 / (p_i + p_j)``, zero on blocks
touching the kernel.  The same array, rotated back to the computational basis,
is the Choi matrix of ``E``; its complete positivity and the reconstruction
residual ``max|E * rho_a - tau|`` cross-check the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CptpReport,
    SuperOp,
    compose,
    is_cptp,
)
from .operators import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    Tolerances,
    eig_hermitian,
    is_psd,
    max_abs,
    partial_trace,
    partial_transpose,
    require_hermitian,
    sqrt_pinv,
    swap_factors,
    tensor,
    validate_density,
)
from .sot import star_product

__all__ = [
    "VerdictMismatchError",
    "DistortedState",
    "CompatibilityReport",
    "CertificationResult",
    "temporal_channel",
    "sylvester_oracle",
    "dephasing_channel",
    "correlation_matrix_check",
    "pgm",
    "pgm_map",
    "verify_decomposition",
    "distort",
    "compatibility_test",
    "is_ppt",
    "certify",
]


_SYLVESTER_MAX_DIM = 64  # sylvester_oracle's dense (m n)^2 x (m n)^2 system takes 268 MB at 64


class VerdictMismatchError(RuntimeError):
    """The two verdict paths disagreed beyond the boundary zone."""


def _require_trace_one(tau: np.ndarray, tols: Tolerances) -> np.ndarray:
    t = require_hermitian(tau, tols.hermiticity)
    tr = float(np.trace(t).real)
    if abs(tr - 1.0) > tols.trace:
        raise ValueError(f"trace invariant violated: Tr = {tr:.10g}, expected 1")
    return t


def _validated_marginal(tau: np.ndarray, dims: tuple[int, int], side: str, tols: Tolerances) -> np.ndarray:
    traced = "b" if side == "a" else "a"
    marginal = partial_trace(tau, dims, traced)
    try:
        return validate_density(marginal, tols)
    except ValueError as exc:
        raise ValueError(f"marginal on side {side}: {exc}") from exc


def _conjugate_first(x4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(v^dag (x) 1) X (v (x) 1)`` on a bipartite operator in ``(m, n, m, n)`` form."""
    r = np.tensordot(np.tensordot(v.conj(), x4, axes=(0, 0)), v, axes=(2, 0))
    return r.transpose(0, 1, 3, 2)


def _marginal_spectrum(rho: np.ndarray, rank_tol: float) -> tuple[np.ndarray, ...]:
    """Eigenvalues, eigenvectors, support mask, and Cauchy weights ``2 / (p_i + p_j)`` on support pairs."""
    p, u = np.linalg.eigh(rho)
    support = p > rank_tol * max(float(p[-1]), 0.0)
    pair = np.outer(support, support)
    cauchy = np.divide(2.0, np.add.outer(p, p), out=np.zeros(pair.shape), where=pair)
    return p, u, support, cauchy


def _eigenbasis_array(t: np.ndarray, dims: tuple[int, int], tols: Tolerances) -> tuple[np.ndarray, ...]:
    """Eigenvectors and support of ``rho_a``, and the ``(m, n, m, n)`` test matrix in that eigenbasis.

    ``X[i, x, j, y] = 2 / (p_i + p_j) <u_j, x| tau |u_i, y>``, zero on blocks touching the kernel.
    """
    _, u, support, cauchy = _marginal_spectrum(partial_trace(t, dims, "b"), tols.rank)
    rotated = _conjugate_first(t.reshape(*dims, *dims), u)
    return u, support, cauchy[:, None, :, None] * rotated.transpose(2, 1, 0, 3)


def _choi_from_eigenbasis(u: np.ndarray, support: np.ndarray, x4: np.ndarray) -> SuperOp:
    """The temporal channel from :func:`_eigenbasis_array`; overwrites kernel blocks of ``x4``."""
    m, n = x4.shape[:2]
    x4[~support, :, ~support, :] = np.eye(n) / n
    return SuperOp(m, n, _conjugate_first(x4, u.T).reshape(m * n, m * n))


def temporal_channel(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tols: Tolerances = DEFAULT_TOLS,
) -> SuperOp:
    """The HPTP map whose state over time reproduces ``tau`` in the given direction.

    For ``side="a"`` the result maps the first factor to the second and
    satisfies ``E * rho_a = tau``.  For ``side="b"`` it maps the second factor
    to the first and satisfies ``swap(F * rho_b) = tau``.

    On a faithful marginal the map is the unique solution, built blockwise in
    an eigenbasis of the marginal with weights ``2 / (p_i + p_j)``.  On a
    rank-deficient marginal, kernel-diagonal units map to the maximally mixed
    output and kernel-touching off-diagonal units map to zero; the map is then
    one solution among many.
    """
    if side == "b":
        return temporal_channel(swap_factors(tau, dims), (dims[1], dims[0]), "a", tols)
    if side != "a":
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    t = _require_trace_one(tau, tols)
    _validated_marginal(t, dims, "a", tols)
    return _choi_from_eigenbasis(*_eigenbasis_array(t, dims, tols))


def sylvester_oracle(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tols: Tolerances = DEFAULT_TOLS,
) -> np.ndarray:
    """Solve ``1/2 {rho (x) 1, X} = tau`` for ``X = J[E]`` by a dense vectorized solve.

    Independent of the eigenbasis construction in :func:`temporal_channel`;
    used as a uniqueness oracle.  Declines rank-deficient marginals, where the
    solution is not unique, and dimensions ``m * n`` above 64, where the
    dense system would not fit in memory.
    """
    if side == "b":
        return sylvester_oracle(swap_factors(tau, dims), (dims[1], dims[0]), "a", tols)
    if side != "a":
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    m, n = dims
    if m * n > _SYLVESTER_MAX_DIM:
        raise ValueError(f"sylvester_oracle is limited to m*n <= {_SYLVESTER_MAX_DIM}, got {m}*{n}")
    t = _require_trace_one(tau, tols)
    rho = _validated_marginal(t, dims, "a", tols)
    p = np.linalg.eigvalsh(rho)
    if p[0] <= tols.rank * max(float(p[-1]), 0.0):
        raise ValueError("non-faithful marginal: the anticommutator equation has no unique solution")
    d = m * n
    r = tensor(rho, np.eye(n))
    big = 0.5 * (np.kron(r, np.eye(d)) + np.kron(np.eye(d), r.T))
    return np.linalg.solve(big, t.ravel()).reshape(d, d)


def dephasing_channel(rho: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> SuperOp:
    """Generalized dephasing channel of a density matrix.

    Acts as ``A -> sum_ij [2 sqrt(p_i p_j) / (p_i + p_j)] P_i A P_j`` over the
    spectral projectors of ``rho`` (a Hadamard-Schur channel with the
    harmonic-mean correlation matrix once a basis is fixed), plus
    ``Tr[P_perp A] 1/m`` on the kernel of a rank-deficient ``rho``.  Fixes
    every state commuting with the spectral projectors of ``rho``.
    """
    r = validate_density(rho, tols)
    m = r.shape[0]
    p, u, support, cauchy = _marginal_spectrum(r, tols.rank)
    harmonic = cauchy * np.sqrt(np.abs(np.outer(p, p)))
    # Column i of v is the vectorized |conj(u_i)> (x) |u_i>, so v h v^dag is
    # the Choi matrix of the Schur multiplier h in the eigenbasis.
    v = (u.conj()[:, None, :] * u[None, :, :]).reshape(m * m, m)
    complement = u[:, ~support] @ u[:, ~support].conj().T
    return SuperOp(m, m, v @ harmonic @ v.conj().T + tensor(complement.T, np.eye(m) / m))


def correlation_matrix_check(c: np.ndarray, tol: float = DEFAULT_TOLS.psd) -> tuple[bool, bool]:
    """Check for a correlation matrix (PSD, unit diagonal); also report strictness."""
    a = require_hermitian(c)
    diag_ok = max_abs(np.diag(a) - 1.0) <= tol
    psd_ok, lam_min = is_psd(a, tol)
    valid = diag_ok and psd_ok
    return valid, valid and lam_min > tol


def pgm(
    weights: np.ndarray,
    states: list[np.ndarray],
    rank_tol: float = DEFAULT_TOLS.rank,
) -> list[np.ndarray]:
    """Pretty good measurement of a probabilistic ensemble of states.

    Returns the POVM ``G_t = t rho^{-1/2} rho_t rho^{-1/2}`` built from the
    average state ``rho``; when ``rho`` is rank-deficient the kernel projector
    is adjoined so the elements still sum to the identity.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != len(states) or w.size == 0:
        raise ValueError("weights and states must be nonempty and of equal length")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("weights do not form a probability distribution")
    mats = [validate_density(s) for s in states]
    avg = sum(t * s for t, s in zip(w, mats))
    ps = sqrt_pinv(avg, rank_tol)
    povm = [t * (ps.inv_sqrt @ s @ ps.inv_sqrt) for t, s in zip(w, mats)]
    if ps.rank < avg.shape[0]:
        povm.append(ps.complement)
    return povm


def pgm_map(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tols: Tolerances = DEFAULT_TOLS,
) -> SuperOp:
    """Pretty good measure-and-prepare stage of the temporal channel.

    For ``side="a"`` this is ``A -> Tr_A[tau ((rho^{-1/2} A rho^{-1/2}) (x) 1)]``
    plus the maximally mixed output on the marginal's kernel.  It is trace
    preserving for any ``tau`` with density marginals, completely positive
    when ``tau`` is separable, and positive (though not necessarily completely
    positive) for every density ``tau``.
    """
    if side == "b":
        return pgm_map(swap_factors(tau, dims), (dims[1], dims[0]), "a", tols)
    if side != "a":
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    m, n = dims
    t = require_hermitian(tau, tols.hermiticity)
    rho = _validated_marginal(t, dims, "a", tols)
    ps = sqrt_pinv(rho, tols.rank)
    s = ps.inv_sqrt
    tau4 = t.reshape(m, n, m, n)
    choi4 = np.einsum("ia,bj,jxiy->axby", s, s, tau4)
    choi = choi4.reshape(m * n, m * n)
    if ps.rank < m:
        choi = choi + tensor(ps.complement.T, np.eye(n) / n)
    return SuperOp(m, n, choi)


def verify_decomposition(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """Max-norm gap between the temporal channel and dephasing followed by PGM.

    The identity ``E = G o D`` holds exactly for any Hermitian trace-one
    ``tau`` with a faithful marginal on the measured side (the stages need not
    be completely positive individually); with a rank-deficient marginal the
    kernel conventions of the two stages differ from the channel's and the
    returned residual is meaningful only as a diagnostic.
    """
    e = temporal_channel(tau, dims, side, tols)
    traced = "b" if side == "a" else "a"
    rho = partial_trace(require_hermitian(tau, tols.hermiticity), dims, traced)
    d = dephasing_channel(rho, tols)
    g = pgm_map(tau, dims, side, tols)
    return max_abs(e.choi - compose(g, d).choi)


@dataclass(frozen=True)
class DistortedState:
    """A bipartite operator conjugated by the pseudoinverse root of one marginal."""

    base: np.ndarray
    side: str
    marginal_spectrum: SpectralDecomposition
    distorted: np.ndarray


def distort(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tols: Tolerances = DEFAULT_TOLS,
) -> DistortedState:
    """Distort ``tau`` by ``rho^{-1/2}`` on the chosen side's factor."""
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    m, n = dims
    t = require_hermitian(tau, tols.hermiticity)
    rho = _validated_marginal(t, dims, side, tols)
    ps = sqrt_pinv(rho, tols.rank)
    conj = tensor(ps.inv_sqrt, np.eye(n)) if side == "a" else tensor(np.eye(m), ps.inv_sqrt)
    return DistortedState(
        base=t,
        side=side,
        marginal_spectrum=eig_hermitian(rho, tols.cluster, tols.hermiticity),
        distorted=conj @ t @ conj,
    )


@dataclass(frozen=True)
class CompatibilityReport:
    """Verdict of the temporal-compatibility test in one direction.

    ``compatible`` is decided by the sign of ``test_min_eigenvalue``; the
    reconstructed temporal channel, its CPTP diagnostics and the
    reconstruction residual ``max|tau - E * rho|`` provide the
    cross-check.  ``boundary`` flags verdicts within ten tolerances of zero.
    """

    side: str
    compatible: bool
    test_min_eigenvalue: float
    channel: SuperOp
    reconstruction_residual: float
    cptp: CptpReport
    faithful_marginal: bool
    ppt: bool
    boundary: bool
    tolerance: float


def is_ppt(tau: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOLS.psd) -> tuple[bool, float]:
    """Positive-partial-transpose check in the computational basis."""
    pt = partial_transpose(require_hermitian(tau), dims, "a")
    return is_psd(pt, tol)


def _validated_ppt(
    tau: np.ndarray, dims: tuple[int, int], tol: float, tols: Tolerances
) -> tuple[np.ndarray, bool, float]:
    """Validate ``tau`` and both marginals; return its Hermitian part and the PPT check."""
    t = _require_trace_one(tau, tols)
    _validated_marginal(t, dims, "a", tols)
    _validated_marginal(t, dims, "b", tols)
    return (t, *is_ppt(t, dims, tol))


def _side_report(
    t: np.ndarray, dims: tuple[int, int], side: str, ppt: bool, tol: float, tols: Tolerances
) -> CompatibilityReport:
    """Both verdict paths in one direction for a validated ``tau``."""
    if side == "a":
        wt, wdims = t, dims
    else:
        wt, wdims = swap_factors(t, dims), (dims[1], dims[0])
    u, support, x4 = _eigenbasis_array(wt, wdims, tols)

    # Path 1: the dephased distorted partial transpose, read in the eigenbasis.
    w_test = np.linalg.eigvalsh(x4.reshape(wt.shape))
    test_min, test_max = float(w_test[0]), float(w_test[-1])
    scale = max(1.0, test_max)
    test_ok = test_min >= -tol * scale

    # Path 2: complete positivity of the reconstructed channel.
    channel = _choi_from_eigenbasis(u, support, x4)
    cptp = is_cptp(channel, tol)
    reconstruction = max_abs(star_product(channel, partial_trace(wt, wdims, "b")) - wt)

    boundary = abs(test_min) < 10 * tol * scale or abs(cptp.choi_min_eigenvalue) < 10 * tol * scale
    if test_ok != cptp.cp and not boundary:
        raise VerdictMismatchError(
            f"side {side}: test-matrix verdict {test_ok} (min eig {test_min:.3e}) disagrees "
            f"with channel CP verdict {cptp.cp} (choi min eig {cptp.choi_min_eigenvalue:.3e})"
        )

    return CompatibilityReport(
        side=side,
        compatible=test_ok,
        test_min_eigenvalue=test_min,
        channel=channel,
        reconstruction_residual=reconstruction,
        cptp=cptp,
        faithful_marginal=bool(support.all()),
        ppt=ppt,
        boundary=boundary,
        tolerance=tol,
    )


def compatibility_test(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tol: float = 1e-9,
    tols: Tolerances = DEFAULT_TOLS,
) -> CompatibilityReport:
    """Decide temporal compatibility of ``tau`` in one direction.

    ``tau`` must be Hermitian with unit trace and density-matrix marginals
    (it need not itself be positive).  Two verdicts are computed from one
    eigenbasis array: the Cauchy-weighted partial transpose as the test matrix,
    and complete positivity of its rotation to the channel's Choi matrix.  They
    must agree outside the ``10 * tol`` boundary zone, else
    :class:`VerdictMismatchError` is raised.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    t, ppt_ok, _ = _validated_ppt(tau, dims, tol, tols)
    return _side_report(t, dims, side, ppt_ok, tol, tols)


@dataclass(frozen=True)
class CertificationResult:
    """Per-direction compatibility reports together with the PPT flag."""

    side_a: CompatibilityReport
    side_b: CompatibilityReport
    ppt: bool
    ppt_min_eigenvalue: float

    @property
    def compatible_both(self) -> bool:
        return self.side_a.compatible and self.side_b.compatible


def certify(
    tau: np.ndarray,
    dims: tuple[int, int],
    tol: float = 1e-9,
    tols: Tolerances = DEFAULT_TOLS,
) -> CertificationResult:
    """Run the compatibility test in both directions plus the PPT check.

    A PPT state is temporally compatible in both directions; that implication
    is enforced as a consistency assertion outside the boundary zone.
    """
    t, ppt_ok, ppt_min = _validated_ppt(tau, dims, tol, tols)
    side_a = _side_report(t, dims, "a", ppt_ok, tol, tols)
    side_b = _side_report(t, dims, "b", ppt_ok, tol, tols)
    if ppt_ok and ppt_min >= 10 * tol:
        for report in (side_a, side_b):
            if not report.compatible and not report.boundary:
                raise VerdictMismatchError(
                    f"PPT state (min PT eigenvalue {ppt_min:.3e}) reported temporally "
                    f"incompatible on side {report.side} (test min eig "
                    f"{report.test_min_eigenvalue:.3e})"
                )
    return CertificationResult(side_a=side_a, side_b=side_b, ppt=ppt_ok, ppt_min_eigenvalue=ppt_min)
