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
touching the kernel.  The verdict needs only where the least eigenvalue of its support block ``X`` lies, so it is
read off inertia probes: Cholesky factorizations of ``X``, shifted in place and restored, by the edges
``+-(10 tol + 64 m n eps) * scale`` of the boundary zone and by the PSD floor ``tol * scale``, where
``scale = max(1, ||X||_F)``.  Each factorization calls numpy's LAPACK gufunc ``_umath_linalg.cholesky_lo`` (in
``numpy.linalg``) on a Fortran-ordered view: ``np.linalg.cholesky`` adds two copies at a stride of ``m n`` entries.
``X`` is Hermitian only up to rounding; the probes read its upper triangle, so each verdict is that of ``X``'s
Hermitian upper completion.  The same array, rotated back to the computational basis, is the Choi matrix of ``E``.
The verdict is cross-checked on the returned Choi matrix by a Cholesky factorization shifted by ``5 tol * scale``,
which succeeds iff ``E`` is completely positive outside the boundary zone, and by the reconstruction residual
``max|E * rho_a - tau|``, from one matmul.  The returned matrix is exactly Hermitian by construction, so no
Hermiticity gate runs on it.  The two paths run one algorithm on different data: the probes read the array before
the rotation, the cross-check the matrix that is returned.

:func:`certify` runs both directions and adds the plain PPT flag, one shifted Cholesky factorization of the
partial transpose (a second checks its ``10 tol`` clearance only when a side of a PPT state reads incompatible),
so a certification makes no full-size eigensolve.  The flag orders the probes: a faithful side of a non-PPT state
is probed below the zone first.  A side's test-matrix and Choi minima are solved when first read, by one
eigensolve of the Choi matrix it returns, whose spectrum is ``X``'s plus ``1/n`` on a marginal's kernel.  Only a
:class:`VerdictMismatchError` re-derives ``X`` from ``tau``, so that its message quotes each path's own minimum.

Each call gates its outside input once, in :func:`_validated` or :func:`_measured`: ``tau``
(finite, Hermitian, trace one), then ``dims``, then each marginal, then ``tol``.  A marginal is
the partial trace of ``tau``'s exactly Hermitian part, so it is exactly Hermitian; only its
finiteness, trace and PSD floor are checked, the last on the one ``eigh`` that gives its
eigenbasis.  Nothing below that boundary checks them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from numpy.linalg import _umath_linalg

from .channels import _EPS, CptpReport, SuperOp, _tp_gate, compose
from .operators import (
    DEFAULT_TOLS, Spectrum, _check_tol, _density_spectrum, _gated_psd, _hermitian_part, _oriented,
    _require_psd_spectrum, _require_trace_one, _require_unit_trace, _spectrum, _split, _trace_out,
    as_complex_matrix, max_abs, partial_transpose, require_hermitian, tensor,
)

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
    the probes and the Choi rotation reshape it as views.

    ``t4`` is oriented by :func:`_oriented`; ``s`` is :func:`_validated_marginal` of its first factor.
    ``X[i, x, j, y] = 2 / (p_i + p_j) <u_j, x| tau |u_i, y>``, zero on blocks touching the kernel.
    """
    rotated = _conjugate_first(t4, s.u)
    return np.multiply(s.cauchy[:, None, :, None], rotated.transpose(2, 1, 0, 3), order="C")


def _support_block(x4: np.ndarray, s: Spectrum) -> np.ndarray:
    """The rows and columns of ``x4 = _eigenbasis_array(t4, s)`` on the support of ``s``, as an ``(r n, r n)``
    matrix: a view on a faithful marginal, else a copy.  The rest of ``x4`` is zero, so the test matrix's
    spectrum is the block's plus ``(m - r) n`` zeros."""
    m, n, r = *x4.shape[:2], s.rank
    return (x4 if r == m else x4[s.mask][:, :, s.mask]).reshape(r * n, r * n)


def _least_eigenvalue(a: np.ndarray) -> float:
    """The least eigenvalue of an exactly Hermitian ``a``, solved in full."""
    return float(np.linalg.eigvalsh(a)[0])


def _choi_from_eigenbasis(s: Spectrum, x4: np.ndarray) -> SuperOp:
    """The temporal channel from ``x4 = _eigenbasis_array(t4, s)``; overwrites kernel blocks of ``x4``.

    The rotated Choi matrix is Hermitian only up to rounding, which the Cauchy weights amplify; it is returned
    exactly Hermitian, ``(c + c^dag) / 2``, formed straight from the rotation's strided ``(m, n, m, n)`` output.
    """
    m, n = x4.shape[:2]
    if s.rank < m:
        x4[~s.mask, :, ~s.mask, :] = np.eye(n) / n
    return SuperOp(m, n, _hermitian_part(_conjugate_first(x4, s.u.T)).reshape(m * n, m * n))


def _reconstruction_residual(choi: np.ndarray, r: np.ndarray, t4: np.ndarray) -> float:
    """``max|E * r - tau|``, ``tau`` as ``t4``, in the computational basis.  As ``r`` and ``E``'s Choi matrix ``C`` are
    exactly Hermitian, ``E * r = (B + B^dag) / 2`` with ``B[a, x, b, y] = G[b, x, a, y]``, ``G = conj(r) C = r^T C``."""
    m, n = t4.shape[:2]
    star = _hermitian_part((r.T @ choi.reshape(m, n * m * n)).reshape(m, n, m, n).transpose(2, 1, 0, 3))
    return max_abs(np.subtract(star, t4, out=star))


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
    psd_ok, lam_min = _gated_psd(a, tol)  # gates tol before its first use
    diag_ok = max_abs(np.diag(a) - 1.0) <= tol
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

    ``compatible`` is decided by Cholesky factorizations of the test matrix's support
    block ``X``: its least eigenvalue clears the PSD floor ``-tol * scale``, with
    ``scale = max(1, ||X||_F)``.  ``boundary`` flags a least eigenvalue within
    ``(10 tol + 64 m n eps) * scale`` of zero.  The cross-check is ``cptp.cp``, a Cholesky
    factorization of the returned ``channel``'s Choi matrix, with the reconstruction residual
    ``max|tau - E * rho|`` and ``is_cptp``'s trace gate ``cptp.tp``.  That matrix is exactly Hermitian
    by construction: no Hermiticity gate runs, and ``cptp.hermiticity_defect``, its defect, is 0.0.

    ``cptp.choi_min_eigenvalue`` is solved on first read, by one eigensolve of the returned
    Choi matrix, and ``test_min_eigenvalue`` reads it: the Choi matrix is ``X`` up to a unitary
    rotation (plus ``1/n`` on the kernel of a rank-deficient marginal, where the test matrix
    has zero eigenvalues instead).
    """

    side: str
    compatible: bool
    channel: SuperOp
    reconstruction_residual: float
    cptp: CptpReport
    faithful_marginal: bool
    boundary: bool
    tolerance: float

    @property
    def test_min_eigenvalue(self) -> float:
        """The smallest eigenvalue of the test matrix."""
        lam = self.cptp.choi_min_eigenvalue  # X's, at most 1/n (its partial trace is the identity): below the kernel's
        return lam if self.faithful_marginal else min(lam, 0.0)


def is_ppt(tau: np.ndarray, dims: tuple[int, int], tol: float = DEFAULT_TOLS.psd) -> tuple[bool, float]:
    """Positive-partial-transpose check in the computational basis."""
    return _gated_psd(partial_transpose(require_hermitian(tau), dims, "a"), tol)


def _validated(tau: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, dict[str, Spectrum]]:
    """``tau``, ``dims`` and both marginals gated: the Hermitian part as ``(m, n, m, n)``, the spectra by side."""
    t4 = _split(_require_trace_one(tau), dims)
    return t4, {side: _validated_marginal(t4, side) for side in "ab"}


def _frobenius_scale(x: np.ndarray, name: str) -> float:
    """``max(1, ||x||_F)``, the scale of the PSD floors, raising ``ValueError`` where the norm overflows a float:
    an infinite scale would pass every floor.  ``np.vdot`` sums the squares with no warning, to inf or NaN."""
    norm = math.sqrt(np.vdot(x, x).real)
    if not math.isfinite(norm):
        raise ValueError(f"{name} out of range: its Frobenius norm overflows a float")
    return max(1.0, norm)


def _cholesky_cp(a: np.ndarray, shift: float) -> bool:
    """True iff ``a + shift * 1`` has a Cholesky factorization.  ``a`` is shifted in place, with no copy, and its
    saved diagonal written back after, so the caller's array is left exactly as it was.  The gufunc factors the
    Fortran-ordered view ``a.T``, ``conj(a)`` for a Hermitian ``a``, of the same inertia, into a Fortran-ordered output:
    it reads ``a``'s upper triangle, and neither of its copies strides a row apart.  It flags a failure as invalid,
    which numpy's wrapper turns into ``LinAlgError``."""
    diagonal = a.flat[:: a.shape[0] + 1]  # a copy of the diagonal
    a.flat[:: a.shape[0] + 1] += shift
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):  # the wrapper's
            _umath_linalg.cholesky_lo(a.T, out=np.empty_like(a).T, signature="D->D")
    except FloatingPointError:
        return False
    finally:
        a.flat[:: a.shape[0] + 1] = diagonal
    return True


def _side_report(validated: tuple, side: str, tol: float, ppt: bool | None = None) -> CompatibilityReport:
    """Both verdict paths in one direction for a ``tau`` validated by :func:`_validated`, at a checked ``tol``;
    ``ppt``, :func:`certify`'s PPT flag or None where it is not computed, orders the probes only."""
    t4, s = _oriented(validated[0], side), validated[1][side]
    x4 = _eigenbasis_array(t4, s)
    m, n = t4.shape[:2]
    faithful = s.rank == m

    # Path 1: the dephased distorted partial transpose, read in the eigenbasis.  Each probe factors its
    # support block X, shifted in place, to place the least eigenvalue: above the zone, below it, or in
    # it and then on a side of the PSD floor.  A kernel puts 0 in the spectrum, so a rank-deficient side
    # is never above the zone.  A faithful side of a non-PPT state mostly reads below the zone, so it is
    # probed there first; the order sets how many probes run, not what any of them returns.
    block = _support_block(x4, s)
    scale = _frobenius_scale(block, f"side {side}: test matrix")  # bounds max(1, lambda_max) from above
    zone = (10 * tol + _ZONE_ROUNDING * m * n * _EPS) * scale  # the floor keeps an exact zero in it at tol=0
    if faithful and ppt is False:
        cleared = _cholesky_cp(block, zone)
        above = cleared and _cholesky_cp(block, -zone)
    else:
        above = faithful and _cholesky_cp(block, -zone)
        cleared = above or _cholesky_cp(block, zone)
    test_ok, boundary = (above, False) if above or not cleared else (_cholesky_cp(block, tol * scale), True)
    del block  # a copy on a rank-deficient side, freed before the Choi matrix is built

    # Path 2: a Cholesky factorization of the returned Choi matrix, shifted to the middle of
    # the (tol, 10 tol) * scale band, so it succeeds iff the channel is CP outside the boundary zone.
    # The factorization reads only the upper triangle; the matrix is exactly Hermitian and finite.
    channel = _choi_from_eigenbasis(s, x4)
    del x4  # one full-size array fewer held through the checks below, where a certify peaks
    tp, trace_residual, _ = _tp_gate(channel, tol)
    report = CompatibilityReport(
        side=side,
        compatible=test_ok,
        channel=channel,
        reconstruction_residual=_reconstruction_residual(channel.choi, s.matrix, t4),
        cptp=CptpReport(
            cp=_cholesky_cp(channel.choi, 5 * tol * scale),
            tp=tp,
            trace_residual=trace_residual,
            hermiticity_defect=0.0,
            _least_eigenvalue=partial(_least_eigenvalue, channel.choi),
        ),
        faithful_marginal=faithful,
        boundary=boundary,
        tolerance=tol,
    )
    if test_ok != report.cptp.cp and not boundary:  # each path's own minimum: X's, re-derived, and the Choi matrix's
        block_min = _least_eigenvalue(_support_block(_eigenbasis_array(t4, s), s))
        raise VerdictMismatchError(
            f"side {side}: test-matrix verdict {test_ok} (min eig {block_min:.3e}) disagrees "
            f"with channel CP verdict {report.cptp.cp} (choi min eig {report.cptp.choi_min_eigenvalue:.3e})"
        )
    return report


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
    partial transpose (the test matrix), from shifted Cholesky factorizations, and a
    Cholesky factorization of its rotation to the channel's Choi matrix, the matrix
    that is returned.  With no PPT flag to order them, the probes start above the
    zone.  They must agree outside the ``10 * tol`` boundary zone, else
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
    is a second, made only for a PPT state with a side incompatible outside its zone.  A faithful side
    of a non-PPT state, mostly incompatible, is probed below its zone first: one probe if it is below.
    """
    validated = _validated(tau, dims)
    _check_tol(tol)
    t4 = validated[0]
    t = t4.reshape(t4.shape[0] * t4.shape[1], -1)
    pt = t4.transpose(2, 1, 0, 3)  # a view; each factorization shifts a fresh copy of it
    ppt = _cholesky_cp(pt.copy().reshape(t.shape), tol * _frobenius_scale(t, "tau"))
    side_a, side_b = (_side_report(validated, side, tol, ppt) for side in "ab")
    suspects = [report for report in (side_a, side_b) if not report.compatible and not report.boundary]
    if ppt and suspects and _cholesky_cp(pt.copy().reshape(t.shape), -10 * tol):
        raise VerdictMismatchError(
            f"PPT state (partial transpose > {10 * tol:.1e}) reported temporally incompatible on side "
            f"{suspects[0].side} (test min eig {suspects[0].test_min_eigenvalue:.3e})"
        )
    return CertificationResult(side_a=side_a, side_b=side_b, ppt=ppt, _t=t)
