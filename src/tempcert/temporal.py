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

:func:`certify` runs both directions and adds the plain PPT flag, one shifted Cholesky
factorization of the partial transpose (a second checks its ``10 tol`` clearance only when
a side of a PPT state reads incompatible), so a certification makes two full-size eigensolves,
one per test matrix; the partial transpose's least eigenvalue is solved only when it is read.

Each call gates its outside input once, in :func:`_validated` or :func:`_measured`: ``tau``
(finite, Hermitian, trace one), then ``dims``, then each marginal, then ``tol``.  A marginal is
the partial trace of ``tau``'s exactly Hermitian part, so it is exactly Hermitian; only its
finiteness, trace and PSD floor are checked, the last on the one ``eigh`` that gives its
eigenbasis.  Nothing below that boundary checks them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import _EPS, CptpReport, SuperOp, _hptp_gates, compose
from .operators import (
    DEFAULT_TOLS, Spectrum, _check_tol, _density_spectrum, _gated_psd, _hermitian_part, _in_range, _oriented,
    _psd_floor, _require_psd_spectrum, _require_trace_one, _require_unit_trace, _spectrum, _split, _trace_out,
    as_complex_matrix, max_abs, partial_transpose, require_hermitian, tensor,
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


def _validated_marginal(t4: np.ndarray, side: str) -> Spectrum:
    """The density :class:`Spectrum` of the marginal on ``side`` of ``tau``'s split Hermitian part ``t4``,
    gated for finiteness (a Hermitian part can overflow), trace and PSD floor; its errors name the side."""
    rho = _trace_out(_oriented(t4, side), "b")
    try:
        s = _spectrum(_require_unit_trace(as_complex_matrix(rho)))
        _require_psd_spectrum(s.p)
    except ValueError as exc:
        raise ValueError(f"marginal on side {side}: {exc}") from exc
    return s


def _measured(tau: np.ndarray, dims: tuple[int, int], side: str) -> tuple[np.ndarray, Spectrum]:
    """``tau``, ``dims`` and ``side`` gated: the Hermitian part by :func:`_oriented`, and the side's marginal."""
    t4 = _split(_require_trace_one(tau), dims)
    return _oriented(t4, side), _validated_marginal(t4, side)


def _conjugate_first(x4: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(v^dag (x) 1) X (v (x) 1)`` on a bipartite operator in ``(m, n, m, n)`` form, as two matmuls."""
    m, n, k = x4.shape[0], x4.shape[1], v.shape[1]
    left = (v.conj().T @ x4.reshape(m, n * m * n)).reshape(k, n, m, n)
    right = left.transpose(0, 1, 3, 2).reshape(k * n * n, m) @ v
    return right.reshape(k, n, n, k).transpose(0, 1, 3, 2)


def _eigenbasis_array(t4: np.ndarray, s: Spectrum) -> np.ndarray:
    """The ``(m, n, m, n)`` test matrix in the eigenbasis ``s.u`` of ``rho_a``, in C order, so that
    the eigensolve and the Choi rotation reshape it as views.

    ``t4`` is oriented by :func:`_oriented`; ``s`` is :func:`_validated_marginal` of its first factor.
    ``X[i, x, j, y] = 2 / (p_i + p_j) <u_j, x| tau |u_i, y>``, zero on blocks touching the kernel.
    """
    rotated = _conjugate_first(t4, s.u)
    return np.multiply(s.cauchy[:, None, :, None], rotated.transpose(2, 1, 0, 3), order="C")


def _choi_from_eigenbasis(s: Spectrum, x4: np.ndarray) -> SuperOp:
    """The temporal channel from ``x4 = _eigenbasis_array(t4, s)``; overwrites kernel blocks of ``x4``.

    The rotated Choi matrix is Hermitian only up to rounding, which the Cauchy
    weights amplify; it is returned exactly Hermitian, ``(c + c^dag) / 2``.
    """
    m, n = x4.shape[:2]
    if s.rank < m:
        x4[~s.mask, :, ~s.mask, :] = np.eye(n) / n
    c = _conjugate_first(x4, s.u.T).reshape(m * n, m * n)
    return SuperOp(m, n, _hermitian_part(c))


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
    t4, s = _measured(tau, dims, side)
    x4 = _eigenbasis_array(t4, s)
    del t4  # the Hermitian part of tau: one (m n)^2 array fewer held while the Choi matrix is built
    return _choi_from_eigenbasis(s, x4)


def sylvester_oracle(tau: np.ndarray, dims: tuple[int, int], side: str = "a") -> np.ndarray:
    """Solve ``1/2 {rho (x) 1, X} = tau`` for ``X = J[E]`` by a dense vectorized solve.

    Independent of the eigenbasis construction in :func:`temporal_channel`;
    used as a uniqueness oracle.  Declines rank-deficient marginals, where the
    solution is not unique, and dimensions ``m * n`` above 64, where the
    dense system would not fit in memory.
    """
    t4, s = _measured(tau, dims, side)
    m, n = t4.shape[:2]
    if m * n > _SYLVESTER_MAX_DIM:
        raise ValueError(f"sylvester_oracle is limited to m*n <= {_SYLVESTER_MAX_DIM}, got {dims[0]}*{dims[1]}")
    if s.rank < m:
        raise ValueError("non-faithful marginal: the anticommutator equation has no unique solution")
    d = m * n
    r = tensor(s.matrix, np.eye(n))
    big = 0.5 * (np.kron(r, np.eye(d)) + np.kron(np.eye(d), r.T))
    return np.linalg.solve(big, t4.ravel()).reshape(d, d)


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
    psd_ok, lam_min = _gated_psd(a, tol)
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


def _pgm(t4: np.ndarray, s: Spectrum) -> SuperOp:
    """:func:`pgm_map` of an oriented ``tau`` whose first marginal is already solved."""
    m, n = t4.shape[:2]
    # (r^T (x) 1) tau^{T_a} (r^T (x) 1) with r = rho^{-1/2}; r^T = conj(r) as r is Hermitian.
    choi = _conjugate_first(t4.transpose(2, 1, 0, 3), s.inv_sqrt.conj()).reshape(m * n, m * n)
    return SuperOp(m, n, choi + tensor(s.complement.T, np.eye(n) / n))


def verify_decomposition(tau: np.ndarray, dims: tuple[int, int], side: str = "a") -> float:
    """Max-norm gap between the temporal channel and dephasing followed by PGM.

    The identity ``E = G o D`` holds exactly for any Hermitian trace-one
    ``tau`` with a faithful marginal on the measured side (the stages need not
    be completely positive individually); with a rank-deficient marginal the
    kernel conventions of the two stages differ from the channel's and the
    returned residual is meaningful only as a diagnostic.
    """
    t4, s = _measured(tau, dims, side)
    e = _choi_from_eigenbasis(s, _eigenbasis_array(t4, s))
    return max_abs(e.choi - compose(_pgm(t4, s), _dephasing(s)).choi)


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
    return _gated_psd(partial_transpose(require_hermitian(tau), dims, "a"), tol)


def _validated(tau: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, dict[str, Spectrum]]:
    """``tau``, ``dims`` and both marginals gated: the Hermitian part as ``(m, n, m, n)``, the spectra by side."""
    t4 = _split(_require_trace_one(tau), dims)
    return t4, {side: _validated_marginal(t4, side) for side in "ab"}


def _cholesky_cp(a: np.ndarray, shift: float) -> bool:
    """True iff ``a + shift * 1`` has a Cholesky factorization; ``a`` is the caller's buffer, shifted in place."""
    a.flat[:: a.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _side_report(validated: tuple, side: str, tol: float) -> CompatibilityReport:
    """Both verdict paths in one direction for a ``tau`` validated by :func:`_validated`, at a checked ``tol``."""
    t4, s = _oriented(validated[0], side), validated[1][side]
    x4 = _eigenbasis_array(t4, s)
    m, n, r = *t4.shape[:2], s.rank
    faithful = r == m

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
    del x4  # one full-size array fewer held through the checks below, where a certify peaks
    herm_ok, herm, tp, trace_residual, h = _hptp_gates(channel, tol)
    cp = herm_ok and _cholesky_cp(_in_range(h), 5 * tol * scale)  # the choi is Hermitian: h is its copy
    cptp = CptpReport(
        cp=cp, tp=tp, choi_min_eigenvalue=choi_min, trace_residual=trace_residual, hermiticity_defect=herm
    )
    reconstruction = max_abs(_star(channel, s.matrix).reshape(t4.shape) - t4)

    # On a rank-deficient marginal test_min is 0 or choi_min, so it alone sets the zone.  Its
    # rounding floor keeps an exact zero eigenvalue inside the zone at tol=0.
    boundary = abs(test_min) < (10 * tol + _ZONE_ROUNDING * m * n * _EPS) * scale
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
    validated = _validated(tau, dims)
    _check_tol(tol)
    return _side_report(validated, side, tol)


@dataclass(frozen=True)
class CertificationResult:
    """Per-direction compatibility reports together with the PPT flag.

    ``ppt`` is decided by one shifted Cholesky factorization of the partial transpose:
    ``lambda_min > -tol * max(1, ||tau||_F)``, the PSD floor of :func:`is_ppt` for any
    density ``tau``.  ``ppt_min_eigenvalue`` is computed on first access, by one
    eigensolve of the partial transpose of ``tau``'s Hermitian part, which the result holds.
    """

    side_a: CompatibilityReport
    side_b: CompatibilityReport
    ppt: bool
    _t: np.ndarray = field(repr=False, compare=False)

    @property
    def compatible_both(self) -> bool:
        return self.side_a.compatible and self.side_b.compatible

    @cached_property
    def ppt_min_eigenvalue(self) -> float:
        """The smallest eigenvalue of the partial transpose on side a."""
        dims = (self.side_a.channel.dim_in, self.side_a.channel.dim_out)
        return float(np.linalg.eigvalsh(partial_transpose(self._t, dims, "a"))[0])


def certify(tau: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOLS.psd) -> CertificationResult:
    """Run the compatibility test in both directions plus the PPT check.

    A PPT state is compatible in both directions; this is asserted when the partial transpose clears
    ``10 * tol``, outside each side's zone.  The PPT flag is one Cholesky factorization of the partial
    transpose shifted by ``tol * max(1, ||tau||_F)``, the PSD floor for a density ``tau``; the clearance
    is a second, made only for a PPT state with a side incompatible outside its zone.
    """
    validated = _validated(tau, dims)
    _check_tol(tol)
    t4 = validated[0]
    t = t4.reshape(t4.shape[0] * t4.shape[1], -1)
    pt = t4.transpose(2, 1, 0, 3)  # a view; each factorization shifts a fresh copy of it
    ppt = _cholesky_cp(pt.copy().reshape(t.shape), tol * max(1.0, float(np.linalg.norm(t))))
    side_a, side_b = (_side_report(validated, side, tol) for side in "ab")
    suspects = [report for report in (side_a, side_b) if not report.compatible and not report.boundary]
    if ppt and suspects and _cholesky_cp(pt.copy().reshape(t.shape), -10 * tol):
        raise VerdictMismatchError(
            f"PPT state (partial transpose > {10 * tol:.1e}) reported temporally incompatible on side "
            f"{suspects[0].side} (test min eig {suspects[0].test_min_eigenvalue:.3e})"
        )
    return CertificationResult(side_a=side_a, side_b=side_b, ppt=ppt, _t=t)
