"""Dense complex linear algebra for small quantum systems.

Everything in this module works on plain ``numpy.ndarray`` values of dtype
``complex128``.  Bipartite operators on ``A (x) B`` are square matrices of
dimension ``dim_a * dim_b`` with the row index ``i_a * dim_b + i_b``, i.e.
the convention of ``numpy.kron``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOLS",
    "Spectrum",
    "as_complex_matrix",
    "max_abs",
    "hermiticity_defect",
    "require_hermitian",
    "is_psd",
    "validate_density",
    "tensor",
    "partial_trace",
    "partial_transpose",
    "hadamard_product",
    "swap_factors",
    "cauchy_matrix",
    "harmonic_mean_matrix",
]


@dataclass(frozen=True)
class Tolerances:
    """The numerical thresholds of the toolkit, one field per gate.

    Every gate's tolerance reads a field of :data:`DEFAULT_TOLS`, so all verdicts agree on
    what counts as zero.  No function takes this record or a per-threshold argument; the one
    per-call setting is the ``tol`` argument of the check and verdict functions (``certify``,
    ``is_cptp``, ...), finite and ``>= 0``, which defaults to ``psd``.  The rounding floors that
    the checks add to it, in units of ``eps``, are ``channels``' and ``temporal``'s ``_*_ROUNDING``.

    hermiticity  : max-norm bound on ``M - M^dag`` (absolute).
    psd          : eigenvalue floor ``lambda_min >= -psd * max(1, lambda_max)``;
                   the absolute floor of a POVM element.
    trace        : normalization: ``|Tr - 1|`` of a density matrix or ``tau``,
                   of the identity-pair Pauli entry, and ``max|sum_k E_k - 1|``
                   of a POVM.
    cluster      : eigenvalue clustering gap, relative to ``max(1, spectral radius)``.
    rank         : support cut: eigenvalues ``p <= rank * max(p_max, 0)`` count as zero.
    imag         : largest imaginary residue discarded by real-valued results.
    weight_sum   : bound on ``|sum_t w_t - 1|`` of ensemble weights.
    correlation  : slack on the ``[-1, 1]`` range of Pauli expectation values.
    """

    hermiticity: float = 1e-10
    psd: float = 1e-9
    trace: float = 1e-9
    cluster: float = 1e-8
    rank: float = 1e-12
    imag: float = 1e-9
    weight_sum: float = 1e-10
    correlation: float = 1e-9


DEFAULT_TOLS = Tolerances()
_HALF = complex(0.5, -0.0)  # x * _HALF is bitwise x / 2 (signed zeros too) unless a part of x is +-5e-324


def as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a nonempty square complex matrix of finite entries, raising on any other input.

    The entries are checked before any arithmetic: a NaN passes every comparison-based
    gate, and a Cholesky factorization of a NaN matrix does not fail.
    """
    a = _numeric_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return _finite(a, "matrix contains non-finite entries")


def _finite(a: np.ndarray, message: str) -> np.ndarray:
    """``a``, raising ``ValueError(message)`` unless every entry is finite.  A finite ``np.vdot(a, a)``, the sum of
    ``|a_ij|^2`` in one BLAS pass, proves them all finite; only a sum that is not is settled by counting entries."""
    x = a.ravel("K")  # a view of a C- or Fortran-ordered a, so that no copy precedes the pass
    if not math.isfinite(np.vdot(x, x).real) and np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(message)
    return a


def _numeric_array(m: object, what: str = "matrix", real: bool = False) -> np.ndarray:
    """``m`` as a complex array, or a float one if ``real``; on a ragged or non-numeric ``m``, or if ``real`` on a
    nonzero imaginary part, which a cast would drop with only a warning, a ``ValueError`` that names ``what``."""
    try:
        a = np.asarray(m, dtype=np.complex128)
    except (ValueError, TypeError):  # numpy raises TypeError on an entry that is neither a number nor a string
        raise ValueError(f"{what} is ragged or holds a non-number: expected an array of numbers") from None
    if real and np.count_nonzero(a.imag):
        raise ValueError(f"{what} must be real, got a nonzero imaginary part")
    return a.real if real else a


def max_abs(m: np.ndarray) -> float:
    """Entrywise max norm."""
    a = np.asarray(m)
    return float(np.abs(a).max()) if a.size else 0.0


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^dag) / 2`` over the last two axes, summed and halved in place on a C-ordered copy of ``a^dag``;
    ``a`` is not written.  A 4-axis ``a`` is an ``(m, n, m, n)`` operator, strided or not, whose dagger exchanges
    the index pairs, ``transpose(2, 3, 0, 1)``; its part comes back C-ordered, so it reshapes to ``(m n, m n)``."""
    operand, a = a, a.transpose(2, 3, 1, 0) if a.ndim == 4 else a  # so that a.swapaxes(-1, -2) is a^dag's layout
    h = np.conj(a.swapaxes(-1, -2), order="C")
    h += operand
    return np.multiply(h, _HALF, out=h)


def _defect(a: np.ndarray) -> np.ndarray:
    """``max|a - a^dag|`` over the last two axes, inf where the difference overflows: callers ignore that warning."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _defect_and_part(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):  # near the float limit either overflows; callers name it
        return _defect(a), _hermitian_part(a)


def _in_range(h: np.ndarray) -> np.ndarray:
    return _finite(h, "hermitian part out of range: (M + M^dag) / 2 overflows a float")


def hermiticity_defect(m: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # near the float limit M - M^dag overflows to inf
        return float(_defect(as_complex_matrix(m)))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate Hermiticity (max norm) and return the Hermitian part, which must be finite."""
    defect, h = _defect_and_part(as_complex_matrix(m))
    if defect > DEFAULT_TOLS.hermiticity:
        raise ValueError(
            f"hermiticity violated: max|M - M^dag| = {defect:.3e} > {DEFAULT_TOLS.hermiticity:.1e}"
        )
    return _in_range(h)


def _require_trace_one(m: np.ndarray) -> np.ndarray:
    """The trace gate: validate Hermiticity and unit trace, returning the Hermitian part."""
    return _require_unit_trace(require_hermitian(m))


def _require_unit_trace(a: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` unless the Hermitian matrix ``a`` has unit trace; return ``a``."""
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > DEFAULT_TOLS.trace:
        raise ValueError(f"trace invariant violated: Tr = {tr:.10g}, expected 1")
    return a


def _check_tol(tol: float) -> float:
    """The per-call ``tol``, raising ``ValueError`` unless it is a real number, not a ``bool``, finite and ``>= 0``."""
    if not (isinstance(tol, numbers.Real) and type(tol) is not bool and math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0 (a real number, not a bool), got {tol!r}")
    return tol


def _psd_floor(w: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PSD floor ``lambda_min >= -tol * max(1, lambda_max)`` on ascending eigenvalues ``w``, one row per member.

    Returns the verdicts, ``lambda_min`` and the scales ``max(1, lambda_max)``, 0-d for one spectrum; the caller
    checks ``tol``.
    """
    lam_min, scale = w[..., 0], np.maximum(1.0, w[..., -1])
    return lam_min >= -tol * scale, lam_min, scale


def is_psd(m: np.ndarray, tol: float = DEFAULT_TOLS.psd) -> tuple[bool, float]:
    """Positive-semidefiniteness check.

    Returns ``(verdict, min_eigenvalue)``; the verdict is true iff
    ``lambda_min >= -tol * max(1, lambda_max)``.
    """
    return _gated_psd(require_hermitian(m), tol)


def _gated_psd(h: np.ndarray, tol: float) -> tuple[bool, float]:
    """:func:`is_psd` of an exactly Hermitian, finite ``h`` derived from a gated input."""
    _check_tol(tol)
    ok, lam_min, _ = _psd_floor(np.linalg.eigvalsh(h), tol)
    return bool(ok), float(lam_min)


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants, returning the Hermitian part.

    Raises ``ValueError`` whose message names the violated invariant
    (hermiticity, trace, or psd).  These gates are the definition; :func:`_density_stack`
    is their fast path over a stack.
    """
    h = _require_trace_one(m)
    _require_psd_spectrum(np.linalg.eigvalsh(h))
    return h


def _hermitian_stack(m: np.ndarray) -> np.ndarray:
    """:func:`require_hermitian` of each member of a stack, as a stack.  The gates run once over a ``(k, d, d)``
    stack; if a member fails, the members are gated one by one, which raises the first failing member's error."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 3 and a.shape[1] == a.shape[2] and a.size:
        defect, h = _defect_and_part(a)  # h is finite only where a is finite and its sum does not overflow
        if np.isfinite(h).all() and (defect <= DEFAULT_TOLS.hermiticity).all():
            return h
    return np.stack([require_hermitian(s) for s in a])


def _density_stack(m: np.ndarray) -> np.ndarray:
    """:func:`validate_density` of each member of a stack, as a stack of the Hermitian parts.

    The fast path is :func:`_hermitian_stack`'s, then the trace and the PSD floor, each once over the stack, the
    floor on one stacked ``eigvalsh``.  If a member fails, the members are gated one by one, which raises the first
    failing member's first error."""
    try:
        h = _hermitian_stack(m)
        trace_ok = (abs(h.trace(axis1=1, axis2=2).real - 1.0) <= DEFAULT_TOLS.trace).all()
        if trace_ok and _psd_floor(np.linalg.eigvalsh(h), DEFAULT_TOLS.psd)[0].all():
            return h
    except ValueError:  # the member loop below names the first failing member
        pass
    return np.stack([validate_density(s) for s in np.asarray(m, dtype=np.complex128)])


def _require_psd_spectrum(w: np.ndarray) -> None:
    """The density PSD gate on ascending eigenvalues ``w``, naming the min eigenvalue when it fails."""
    ok, lam_min, _ = _psd_floor(w, DEFAULT_TOLS.psd)
    if not ok:
        raise ValueError(f"psd invariant violated: min eigenvalue = {lam_min:.3e}")


@dataclass(frozen=True)
class Spectrum:
    """One ``eigh`` of a Hermitian matrix, a state or an observable, and the functions of it that maps read.

    ``matrix`` is the Hermitian part that was solved, ``p`` its eigenvalues in
    ascending order, ``u`` the eigenvectors as columns, and ``mask`` the support
    cut: eigenvalues ``p <= DEFAULT_TOLS.rank * max(p_max, 0)`` count as zero.
    The other attributes are computed on access.  ``cauchy``, ``sqrt``, ``inv_sqrt`` and
    ``support`` vanish on the kernel, ``complement`` projects onto it, and ``eigenspaces``
    covers the whole space.
    """

    matrix: np.ndarray
    p: np.ndarray
    u: np.ndarray
    mask: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def cauchy(self) -> np.ndarray:
        """The weights ``2 / (p_i + p_j)`` on support pairs, zero on pairs touching the kernel."""
        pair = np.outer(self.mask, self.mask)
        return np.divide(2.0, np.add.outer(self.p, self.p), out=np.zeros(pair.shape), where=pair)

    @property
    def sqrt(self) -> np.ndarray:
        """The square root."""
        return (self.u * np.where(self.mask, np.sqrt(np.abs(self.p)), 0.0)) @ self.u.conj().T

    @property
    def inv_sqrt(self) -> np.ndarray:
        """The Moore-Penrose pseudoinverse square root."""
        inv = np.divide(1.0, np.sqrt(np.abs(self.p)), out=np.zeros_like(self.p), where=self.mask)
        return (self.u * inv) @ self.u.conj().T

    @property
    def support(self) -> np.ndarray:
        """The projector onto the range."""
        vs = self.u[:, self.mask]
        return vs @ vs.conj().T

    @property
    def complement(self) -> np.ndarray:
        """The projector onto the kernel."""
        vk = self.u[:, ~self.mask]
        return vk @ vk.conj().T

    @property
    def eigenspaces(self) -> tuple[tuple[float, np.ndarray], ...]:
        """The pairs ``(lambda, P)`` of ``matrix = sum lambda P``, in ascending order of ``lambda``.

        Consecutive eigenvalues closer than ``DEFAULT_TOLS.cluster * max(1, spectral radius)``
        share one projector ``P`` and take their mean as ``lambda``.
        """
        gap = DEFAULT_TOLS.cluster * max(1.0, float(np.abs(self.p).max()))
        cuts = np.flatnonzero(np.diff(self.p) > gap) + 1
        groups = zip(np.split(self.p, cuts), np.split(self.u, cuts, axis=1))
        return tuple((float(np.mean(w)), v @ v.conj().T) for w, v in groups)


def _spectrum(a: np.ndarray) -> Spectrum:
    """The :class:`Spectrum` of a Hermitian matrix ``a``."""
    p, u = np.linalg.eigh(a)
    return Spectrum(a, p, u, p > DEFAULT_TOLS.rank * max(float(p[-1]), 0.0))


def _density_spectrum(m: np.ndarray) -> Spectrum:
    """Validate a density matrix and return its :class:`Spectrum`, from one ``eigh``."""
    s = _spectrum(_require_trace_one(m))
    _require_psd_spectrum(s.p)
    return s


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the ``i_a * dim_b + i_b`` index convention."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def _is_positive_int(v: object) -> bool:
    """Whether ``v`` is a positive int; an ``np.integer`` counts and a ``bool`` does not."""
    return isinstance(v, (int, np.integer)) and type(v) is not bool and v > 0


def _split(t: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """``t`` as an ``(da, db, da, db)`` array, for dims of two positive ints, in order, whose product is its size.

    The entries are not checked: the index reshuffles built on this are linear, and run
    mostly on matrices that a gate such as :func:`require_hermitian` has already checked.
    """
    ordered = isinstance(dims, Sequence) or isinstance(dims, np.ndarray) and dims.ndim == 1  # not a set or a dict
    da, db = dims if ordered and len(dims) == 2 else (0, 0)
    if not (_is_positive_int(da) and _is_positive_int(db)):
        raise ValueError(f"dims must be two positive ints, got {dims!r}")
    a = np.asarray(t, dtype=np.complex128)
    if a.shape != (da * db, da * db):
        raise ValueError(f"matrix of shape {a.shape} does not factor as {da}x{db}")
    return a.reshape(da, db, da, db)


def partial_trace(t: np.ndarray, dims: tuple[int, int], side: str = "b") -> np.ndarray:
    """Trace out the indicated factor of a bipartite operator.

    ``side="b"`` keeps the first factor (returns a ``dim_a`` square matrix),
    ``side="a"`` keeps the second.
    """
    return _trace_out(_split(t, dims), side)


def _oriented(r: np.ndarray, side: str) -> np.ndarray:
    """An ``(m, n, m, n)`` operator with the factor ``side`` first, as a view; applied twice it is the identity.

    The one check of ``side``: every factor operation is written once, for the factor placed first.
    """
    if side == "a":
        return r
    if side == "b":
        return r.transpose(1, 0, 3, 2)
    raise ValueError(f"side must be 'a' or 'b', got {side!r}")


def _trace_out(r: np.ndarray, side: str) -> np.ndarray:
    """:func:`partial_trace` of an operator already split as ``(da, db, da, db)``, as a fresh array."""
    return np.einsum("xaxb->ab", _oriented(r, side))


def partial_transpose(t: np.ndarray, dims: tuple[int, int], side: str = "a") -> np.ndarray:
    """Transpose one factor of a bipartite operator in the computational basis."""
    r = _split(t, dims)
    return _oriented(_oriented(r, side).transpose(2, 1, 0, 3), side).reshape(r.shape[0] * r.shape[1], -1)


def _pairings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(k, l)`` table ``Tr[a_s b_t]`` of a ``(k, d, d)`` and an ``(l, d, d)`` stack, as one matmul."""
    return a.reshape(len(a), -1) @ b.transpose(0, 2, 1).reshape(len(b), -1).T


def hadamard_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard-Schur) product of two equal-dimension matrices."""
    x = as_complex_matrix(a)
    y = as_complex_matrix(b)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x * y


def swap_factors(t: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Exchange the two tensor factors: the linear extension of B (x) A -> A (x) B."""
    r = _split(t, dims)
    return _oriented(r, "b").reshape(r.shape[0] * r.shape[1], -1)


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
