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
is the Choi matrix of ``E``, so one eigensolve of the test matrix's support
block gives both spectra.  The verdict is cross-checked on the returned Choi
matrix by a different algorithm, a Cholesky factorization shifted by ``5 tol``
times the spectral scale, which succeeds iff ``E`` is completely positive
outside the boundary zone, gated on the matrix's Hermiticity defect, and by the
reconstruction residual ``max|E * rho_a - tau|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    _EPS,
    CptpReport,
    SuperOp,
    _hptp_gates,
    compose,
)
from .operators import (
    DEFAULT_TOLS,
    Spectrum,
    _density_spectrum,
    _psd_floor,
    _require_trace_one,
    is_psd,
    max_abs,
    partial_trace,
    partial_transpose,
    require_hermitian,
    swap_factors,
    tensor,
)
from .sot import _star

__all__ = [
    "VerdictMismatchError",
    "CompatibilityReport",
    "CertificationResult",
    "temporal_channel",
    "sylvester_oracle",
    "dephasing_channel",
    "correlation_matrix_check",
    "pgm_map",
    "verify_decomposition",
    "compatibility_test",
    "is_ppt",
    "certify",
]


_SYLVESTER_MAX_DIM = 64  # sylvester_oracle's dense (m n)^2 x (m n)^2 system takes 268 MB at 64
# Exact zero test eigenvalues (rho (x) |psi><psi|, 800 states at (2,2)..(16,16)) round to below 50 m n eps
# scale; the zone's floor allows 64 units.  The rounding grows with the marginal's condition number.
_ZONE_ROUNDING = 64


class VerdictMismatchError(RuntimeError):
    """The two verdict paths disagreed beyond the boundary zone."""


def _oriented(tau: np.ndarray, dims: tuple[int, int], side: str) -> tuple[np.ndarray, tuple[int, int]]:
    """``tau`` and ``dims`` with the measured factor first: unchanged for side a, swapped for side b."""
    if side == "a":
        return tau, dims
    if side == "b":
        return swap_factors(tau, dims), (dims[1], dims[0])
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def _validated_marginal(tau: np.ndarray, dims: tuple[int, int], side: str) -> Spectrum:
    """:func:`_density_spectrum` of the marginal on ``side``; its errors name the side."""
    try:
        return _density_spectrum(partial_trace(tau, dims, "b" if side == "a" else "a"))
    except ValueError as exc:
        raise ValueError(f"marginal on side {side}: {exc}") from exc


def _measured(tau: np.ndarray, dims: tuple[int, int], side: str) -> tuple[np.ndarray, tuple[int, int], Spectrum]:
    """``tau`` validated and oriented by :func:`_oriented`, and :func:`_validated_marginal` on ``side``."""
    t = _require_trace_one(tau)
    wt, wdims = _oriented(t, dims, side)
    return wt, wdims, _validated_marginal(t, dims, side)


def _conjugate_first(x4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(v^dag (x) 1) X (v (x) 1)`` on a bipartite operator in ``(m, n, m, n)`` form, as two matmuls."""
    m, n, k = x4.shape[0], x4.shape[1], v.shape[1]
    left = (v.conj().T @ x4.reshape(m, n * m * n)).reshape(k, n, m, n)
    right = left.transpose(0, 1, 3, 2).reshape(k * n * n, m) @ v
    return right.reshape(k, n, n, k).transpose(0, 1, 3, 2)


def _eigenbasis_array(t: np.ndarray, dims: tuple[int, int], s: Spectrum) -> np.ndarray:
    """The ``(m, n, m, n)`` test matrix in the eigenbasis ``s.u`` of ``rho_a``.

    ``t`` is oriented by :func:`_oriented`; ``s`` is :func:`_validated_marginal` of its first factor.
    ``X[i, x, j, y] = 2 / (p_i + p_j) <u_j, x| tau |u_i, y>``, zero on blocks touching the kernel.
    """
    rotated = _conjugate_first(t.reshape(*dims, *dims), s.u)
    return s.cauchy[:, None, :, None] * rotated.transpose(2, 1, 0, 3)


def _choi_from_eigenbasis(s: Spectrum, x4: np.ndarray) -> SuperOp:
    """The temporal channel from ``x4 = _eigenbasis_array(t, dims, s)``; overwrites kernel blocks of ``x4``.

    The rotated Choi matrix is Hermitian only up to rounding, which the Cauchy
    weights amplify; it is returned exactly Hermitian, ``(c + c^dag) / 2``.
    """
    m, n = x4.shape[:2]
    x4[~s.mask, :, ~s.mask, :] = np.eye(n) / n
    c = _conjugate_first(x4, s.u.T).reshape(m * n, m * n)
    return SuperOp(m, n, (c + c.conj().T) / 2)


def temporal_channel(tau: np.ndarray, dims: tuple[int, int], side: str = "a") -> SuperOp:
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
    wt, wdims, s = _measured(tau, dims, side)
    x4 = _eigenbasis_array(wt, wdims, s)
    del wt  # one (m n)^2 array fewer held while the Choi matrix is built
    return _choi_from_eigenbasis(s, x4)


def sylvester_oracle(tau: np.ndarray, dims: tuple[int, int], side: str = "a") -> np.ndarray:
    """Solve ``1/2 {rho (x) 1, X} = tau`` for ``X = J[E]`` by a dense vectorized solve.

    Independent of the eigenbasis construction in :func:`temporal_channel`;
    used as a uniqueness oracle.  Declines rank-deficient marginals, where the
    solution is not unique, and dimensions ``m * n`` above 64, where the
    dense system would not fit in memory.
    """
    m, n = dims
    if m * n > _SYLVESTER_MAX_DIM:
        raise ValueError(f"sylvester_oracle is limited to m*n <= {_SYLVESTER_MAX_DIM}, got {m}*{n}")
    wt, (m, n), s = _measured(tau, dims, side)
    if s.rank < m:
        raise ValueError("non-faithful marginal: the anticommutator equation has no unique solution")
    d = m * n
    r = tensor(s.matrix, np.eye(n))
    big = 0.5 * (np.kron(r, np.eye(d)) + np.kron(np.eye(d), r.T))
    return np.linalg.solve(big, wt.ravel()).reshape(d, d)


def dephasing_channel(rho: np.ndarray) -> SuperOp:
    """Generalized dephasing channel of a density matrix.

    Acts as ``A -> sum_ij [2 sqrt(p_i p_j) / (p_i + p_j)] P_i A P_j`` over the
    spectral projectors of ``rho`` (a Hadamard-Schur channel with the
    harmonic-mean correlation matrix once a basis is fixed), plus
    ``Tr[P_perp A] 1/m`` on the kernel of a rank-deficient ``rho``.  Fixes
    every state commuting with the spectral projectors of ``rho``.
    """
    return _dephasing(_density_spectrum(rho))


def _dephasing(s: Spectrum) -> SuperOp:
    """:func:`dephasing_channel` of a density matrix already solved by :func:`_density_spectrum`."""
    m = len(s.p)
    harmonic = s.cauchy * np.sqrt(np.abs(np.outer(s.p, s.p)))
    # Column i of v is the vectorized |conj(u_i)> (x) |u_i>, so v h v^dag is
    # the Choi matrix of the Schur multiplier h in the eigenbasis.
    v = (s.u.conj()[:, None, :] * s.u[None, :, :]).reshape(m * m, m)
    return SuperOp(m, m, v @ harmonic @ v.conj().T + tensor(s.complement.T, np.eye(m) / m))


def correlation_matrix_check(c: np.ndarray, tol: float = DEFAULT_TOLS.psd) -> tuple[bool, bool]:
    """Check for a correlation matrix (PSD, unit diagonal); also report strictness."""
    a = require_hermitian(c)
    diag_ok = max_abs(np.diag(a) - 1.0) <= tol
    psd_ok, lam_min = is_psd(a, tol)
    valid = diag_ok and psd_ok
    return valid, valid and lam_min > tol


def pgm_map(tau: np.ndarray, dims: tuple[int, int], side: str = "a") -> SuperOp:
    """Pretty good measure-and-prepare stage of the temporal channel.

    For ``side="a"`` this is ``A -> Tr_A[tau ((rho^{-1/2} A rho^{-1/2}) (x) 1)]``
    plus the maximally mixed output on the marginal's kernel.  It is trace
    preserving for any ``tau`` with density marginals, completely positive
    when ``tau`` is separable, and positive (though not necessarily completely
    positive) for every density ``tau``.
    """
    return _pgm(*_measured(tau, dims, side))


def _pgm(wt: np.ndarray, dims: tuple[int, int], s: Spectrum) -> SuperOp:
    """:func:`pgm_map` of an oriented ``tau`` whose first marginal is already solved."""
    m, n = dims
    # (r^T (x) 1) tau^{T_a} (r^T (x) 1) with r = rho^{-1/2}; r^T = conj(r) as r is Hermitian.
    pt4 = partial_transpose(wt, dims, "a").reshape(m, n, m, n)
    choi = _conjugate_first(pt4, s.inv_sqrt.conj()).reshape(m * n, m * n)
    return SuperOp(m, n, choi + tensor(s.complement.T, np.eye(n) / n))


def verify_decomposition(tau: np.ndarray, dims: tuple[int, int], side: str = "a") -> float:
    """Max-norm gap between the temporal channel and dephasing followed by PGM.

    The identity ``E = G o D`` holds exactly for any Hermitian trace-one
    ``tau`` with a faithful marginal on the measured side (the stages need not
    be completely positive individually); with a rank-deficient marginal the
    kernel conventions of the two stages differ from the channel's and the
    returned residual is meaningful only as a diagnostic.
    """
    wt, wdims, s = _measured(tau, dims, side)
    e = _choi_from_eigenbasis(s, _eigenbasis_array(wt, wdims, s))
    return max_abs(e.choi - compose(_pgm(wt, wdims, s), _dephasing(s)).choi)


@dataclass(frozen=True)
class CompatibilityReport:
    """Verdict of the temporal-compatibility test in one direction.

    ``compatible`` is decided by the sign of ``test_min_eigenvalue``.  The
    cross-check is ``cptp.cp``, a Cholesky factorization of the returned
    ``channel``'s Choi matrix gated on ``cptp.hermiticity_defect`` as in ``is_cptp``,
    together with the reconstruction residual ``max|tau - E * rho|``.
    ``cptp.choi_min_eigenvalue`` is read off the test matrix's spectrum, which the
    Choi matrix shares up to a unitary rotation (plus ``1/n`` on the kernel of a
    rank-deficient marginal).  ``boundary`` flags verdicts within ``10 tol + 64 m n eps``
    of zero, relative to the spectral scale.
    """

    side: str
    compatible: bool
    test_min_eigenvalue: float
    channel: SuperOp
    reconstruction_residual: float
    cptp: CptpReport
    faithful_marginal: bool
    boundary: bool
    tolerance: float


def is_ppt(tau: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOLS.psd) -> tuple[bool, float]:
    """Positive-partial-transpose check in the computational basis."""
    pt = partial_transpose(require_hermitian(tau), dims, "a")
    return is_psd(pt, tol)


def _validated(tau: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, dict[str, Spectrum]]:
    """Validate ``tau`` and both marginals: its Hermitian part and the marginal spectra by side."""
    t = _require_trace_one(tau)
    return t, {side: _validated_marginal(t, dims, side) for side in "ab"}


def _cholesky_cp(c: np.ndarray, shift: float) -> bool:
    """True iff ``c + shift * 1`` has a Cholesky factorization, i.e. is positive definite."""
    a = c.copy()
    a.flat[:: a.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _side_report(validated: tuple, dims: tuple[int, int], side: str, tol: float) -> CompatibilityReport:
    """Both verdict paths in one direction for a ``tau`` validated by :func:`_validated`."""
    t, spectra = validated
    wt, wdims = _oriented(t, dims, side)
    s = spectra[side]
    x4 = _eigenbasis_array(wt, wdims, s)
    n, r = wdims[1], s.rank
    faithful = r == wdims[0]

    # Path 1: the dephased distorted partial transpose, read in the eigenbasis.  Its kernel
    # rows and columns are zero, so one eigensolve of the support block gives its spectrum
    # plus 0 on the kernel.  The Choi matrix is the same block plus 1/n on the kernel; the
    # block's partial trace is the identity, so 1/n is its mean eigenvalue and w[0] <= 1/n.
    w = np.linalg.eigvalsh((x4 if faithful else x4[s.mask][:, :, s.mask]).reshape(r * n, r * n))
    choi_min = float(w[0])
    test_ok, test_min, scale = _psd_floor(w if faithful else np.insert(w, 0, min(choi_min, 0.0)), tol)

    # Path 2: a Cholesky factorization of the returned Choi matrix, shifted to the middle of
    # the (tol, 10 tol) * scale band, so it succeeds iff the channel is CP outside the boundary zone.
    # The factorization reads only the lower triangle, so Hermiticity is gated separately, as in is_cptp.
    channel = _choi_from_eigenbasis(s, x4)
    herm_ok, herm, tp, trace_residual = _hptp_gates(channel, tol)
    cp = herm_ok and _cholesky_cp(channel.choi, 5 * tol * scale)
    cptp = CptpReport(
        cp=cp, tp=tp, choi_min_eigenvalue=choi_min, trace_residual=trace_residual, hermiticity_defect=herm
    )
    reconstruction = max_abs(_star(channel, s.matrix) - wt)

    # On a rank-deficient marginal test_min is 0 or choi_min, so it alone sets the zone.  Its
    # rounding floor keeps an exact zero eigenvalue inside the zone at tol=0.
    boundary = abs(test_min) < (10 * tol + _ZONE_ROUNDING * t.shape[0] * _EPS) * scale
    if test_ok != cp and not boundary:
        raise VerdictMismatchError(
            f"side {side}: test-matrix verdict {test_ok} (min eig {test_min:.3e}) disagrees "
            f"with channel CP verdict {cp} (choi min eig {choi_min:.3e})"
        )

    return CompatibilityReport(
        side=side,
        compatible=test_ok,
        test_min_eigenvalue=test_min,
        channel=channel,
        reconstruction_residual=reconstruction,
        cptp=cptp,
        faithful_marginal=faithful,
        boundary=boundary,
        tolerance=tol,
    )


def compatibility_test(
    tau: np.ndarray,
    dims: tuple[int, int],
    side: str = "a",
    tol: float = DEFAULT_TOLS.psd,
) -> CompatibilityReport:
    """Decide temporal compatibility of ``tau`` in one direction.

    ``tau`` must be Hermitian with unit trace and density-matrix marginals
    (it need not itself be positive).  Two verdicts are computed from one
    eigenbasis array: the sign of the smallest eigenvalue of the Cauchy-weighted
    partial transpose (the test matrix), and a Cholesky factorization of its
    rotation to the channel's Choi matrix, the matrix that is returned.  They
    must agree outside the ``10 * tol`` boundary zone, else
    :class:`VerdictMismatchError` is raised.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    return _side_report(_validated(tau, dims), dims, side, tol)


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


def certify(tau: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOLS.psd) -> CertificationResult:
    """Run the compatibility test in both directions plus the PPT check.

    A PPT state is temporally compatible in both directions; that implication
    is enforced as a consistency assertion outside the boundary zone.
    """
    validated = _validated(tau, dims)
    ppt_ok, ppt_min, _ = _psd_floor(np.linalg.eigvalsh(partial_transpose(validated[0], dims, "a")), tol)
    side_a = _side_report(validated, dims, "a", tol)
    side_b = _side_report(validated, dims, "b", tol)
    if ppt_ok and ppt_min >= 10 * tol:
        for report in (side_a, side_b):
            if not report.compatible and not report.boundary:
                raise VerdictMismatchError(
                    f"PPT state (min PT eigenvalue {ppt_min:.3e}) reported temporally "
                    f"incompatible on side {report.side} (test min eig "
                    f"{report.test_min_eigenvalue:.3e})"
                )
    return CertificationResult(side_a=side_a, side_b=side_b, ppt=ppt_ok, ppt_min_eigenvalue=ppt_min)
