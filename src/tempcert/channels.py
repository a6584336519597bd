"""Linear maps between matrix algebras, stored canonically as Choi matrices.

A map ``E`` from a ``dim_in``-dimensional system to a ``dim_out``-dimensional
one is represented by its Choi matrix

    C[E] = sum_ij |i><j| (x) E(|i><j|)

in the computational basis, a bipartite operator with factor dims
``(dim_in, dim_out)``.  The Jamiolkowski operator ``J[E] = (id (x) E)(SWAP)``
is a derived view: it differs from the Choi matrix by a partial transpose on
the input factor.

Every map action goes through :func:`apply`, one matmul against the superoperator
matrix: :func:`apply_to_factor` runs it on the blocks of a bipartite operator, and
:func:`compose` is :func:`apply_to_factor` on side b of the inner map's Choi matrix.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .operators import (
    DEFAULT_TOLS, _check_tol, _defect_and_part, _finite, _in_range, _is_positive_int, _oriented, _psd_floor, _split,
    _trace_out, as_complex_matrix, hermiticity_defect, partial_transpose, swap_factors, tensor, validate_density,
)

__all__ = [
    "SuperOp",
    "Process",
    "CptpReport",
    "identity_channel",
    "replace_channel",
    "transpose_map",
    "from_kraus",
    "apply",
    "apply_to_factor",
    "jamiolkowski",
    "superoperator_matrix",
    "is_cptp",
    "is_hptp",
    "compose",
    "hs_adjoint",
]


def _check_dims(dim_in: object, dim_out: object) -> None:
    if not (_is_positive_int(dim_in) and _is_positive_int(dim_out)):
        raise ValueError(f"dim_in and dim_out must be positive ints, got ({dim_in!r}, {dim_out!r})")


@dataclass(frozen=True)
class SuperOp:
    """A linear map between operator spaces, stored as its Choi matrix."""

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self) -> None:
        _check_dims(self.dim_in, self.dim_out)
        d = self.dim_in * self.dim_out
        c = as_complex_matrix(self.choi)
        if c.shape != (d, d):
            raise ValueError(
                f"choi matrix of shape {c.shape} does not match dims ({self.dim_in}, {self.dim_out})"
            )
        object.__setattr__(self, "choi", c)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return apply(self, x)


@dataclass(frozen=True)
class Process:
    """A channel together with an input state: the pair describing one experiment."""

    channel: SuperOp
    input_state: np.ndarray

    def __post_init__(self) -> None:
        rho = validate_density(self.input_state)
        if rho.shape[0] != self.channel.dim_in:
            raise ValueError(
                f"input state dim {rho.shape[0]} does not match channel input dim {self.channel.dim_in}"
            )
        object.__setattr__(self, "input_state", rho)


def identity_channel(dim: int) -> SuperOp:
    _check_dims(dim, dim)
    v = np.eye(dim, dtype=np.complex128).ravel()
    return SuperOp(dim, dim, np.outer(v, v))


def replace_channel(sigma: np.ndarray, dim_in: int | None = None) -> SuperOp:
    """The channel ``A -> Tr[A] sigma`` discarding its input."""
    s = validate_density(sigma)
    if dim_in is None:
        dim_in = s.shape[0]
    _check_dims(dim_in, s.shape[0])
    return SuperOp(dim_in, s.shape[0], tensor(np.eye(dim_in), s))


def transpose_map(dim: int) -> SuperOp:
    """The (positive but not completely positive) transpose map; its Choi is SWAP."""
    return SuperOp(dim, dim, jamiolkowski(identity_channel(dim)))


def from_kraus(ops: list[np.ndarray]) -> SuperOp:
    """Build the map ``X -> sum_k K_k X K_k^dag`` from operators of shape (dim_out, dim_in)."""
    if not ops:
        raise ValueError("need at least one Kraus operator")
    mats = [np.asarray(k, dtype=np.complex128) for k in ops]
    if mats[0].ndim != 2:
        raise ValueError(f"a Kraus operator must be a matrix, got shape {mats[0].shape}")
    dim_out, dim_in = mats[0].shape
    choi = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=np.complex128)
    for k in mats:
        if k.shape != (dim_out, dim_in):
            raise ValueError(f"Kraus shape mismatch: {k.shape} vs {(dim_out, dim_in)}")
        v = k.T.ravel()
        choi += np.outer(v, v.conj())
    return SuperOp(dim_in, dim_out, choi)


def apply(e: SuperOp, x: np.ndarray) -> np.ndarray:
    """Evaluate ``E(X)`` as one matmul against the superoperator matrix.

    ``x`` is one operator or a stack of shape ``(..., dim_in, dim_in)``; the
    result has shape ``(..., dim_out, dim_out)``.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.shape[-2:] != (e.dim_in, e.dim_in):
        raise ValueError(f"operator dim {a.shape[-2:]} does not match channel input dim {e.dim_in}")
    lead = a.shape[:-2]
    out = a.reshape(lead + (e.dim_in**2,)) @ superoperator_matrix(e).T
    return out.reshape(lead + (e.dim_out, e.dim_out))


def apply_to_factor(e: SuperOp, t: np.ndarray, dims: tuple[int, int], side: str = "a") -> np.ndarray:
    """Evaluate ``(E (x) id)`` or ``(id (x) E)`` on a bipartite operator."""
    t4 = _oriented(_split(t, dims), side)  # validates dims before the side
    if e.dim_in != t4.shape[0]:
        raise ValueError(f"channel input dim {e.dim_in} does not match factor dim {t4.shape[0]}")
    # The blocks t[i x, j y] at fixed (x, y) of the factor placed first form a stack of operators.
    blocks = apply(e, t4.transpose(1, 3, 0, 2))
    return _oriented(blocks.transpose(2, 0, 3, 1), side).reshape(e.dim_out * t4.shape[1], -1)


def jamiolkowski(e: SuperOp) -> np.ndarray:
    """The Jamiolkowski operator ``(id (x) E)(SWAP)``."""
    return partial_transpose(e.choi, (e.dim_in, e.dim_out), "a")


def superoperator_matrix(e: SuperOp) -> np.ndarray:
    """Dense matrix acting on row-major vectorizations: ``vec(E(X)) = S vec(X)``."""
    c4 = e.choi.reshape(e.dim_in, e.dim_out, e.dim_in, e.dim_out)
    return c4.transpose(1, 3, 0, 2).reshape(e.dim_out**2, e.dim_in**2)


@dataclass(frozen=True)
class CptpReport:
    """Diagnostics of a complete-positivity / trace-preservation check.

    ``choi_min_eigenvalue`` is read from ``_least_eigenvalue`` on first access: :func:`is_cptp` hands
    over the eigenvalue it solved, and ``certify`` a function that solves the Choi matrix it returns.
    The Hermiticity defect ``max|C - C^dag|`` that :func:`is_cptp` gates is :func:`hermiticity_defect` of ``C``.
    """

    cp: bool
    tp: bool
    trace_residual: float
    _least_eigenvalue: Callable[[], float] = field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.cp and self.tp

    @cached_property
    def choi_min_eigenvalue(self) -> float:
        """The smallest eigenvalue of the Choi matrix's Hermitian part."""
        return self._least_eigenvalue()


_EPS = float(np.finfo(float).eps)
# Trace residuals stay below 18 * dim_out * eps * max|C| on about 2,200 temporal channels of
# well-conditioned states at dims (2,2) to (64,64) and on 240 random CPTP maps; the gate's
# floor allows 64 of those units.
_TRACE_ROUNDING = 64
# Hermiticity defects stay below 1.2 * eps * max|C| on 400 random CPTP maps at dims (2,2) to (16,16) built by
# from_kraus; the gate of is_cptp and is_hptp, max|C - C^dag| <= tol + 8 eps max|C|, allows 8 of those units.
_HERMITICITY_ROUNDING = 8
# Exact zero Choi eigenvalues of 1,572 from_kraus maps of Kraus rank below full, at dims (2,2) to (16,16),
# round to above -0.35 d eps max(1, lambda_max), d = dim_in dim_out.  is_cptp's PSD floor,
# lambda_min >= -(tol + _CHOI_ROUNDING d eps) max(1, lambda_max), allows 4 units, so tol=0 accepts them.
_CHOI_ROUNDING = 4


def _tp_gate(e: SuperOp, tol: float) -> tuple[bool, float, float]:
    """At a checked ``tol``, ``max|Tr_out C - 1| <= tol + _TRACE_ROUNDING dim_out eps max|C|``, its residual and the
    unit ``eps max|C|``.  The second term is a rounding floor: ``tol=0`` accepts a map TP up to rounding."""
    unit = _EPS * float(np.abs(e.choi).max())
    gap = _trace_out(e.choi.reshape(e.dim_in, e.dim_out, e.dim_in, e.dim_out), "b")
    gap.flat[:: e.dim_in + 1] -= 1.0
    residual = float(np.abs(gap).max())
    return residual <= tol + _TRACE_ROUNDING * e.dim_out * unit, residual, unit


def is_cptp(e: SuperOp, tol: float = DEFAULT_TOLS.psd) -> CptpReport:
    """Check Choi positivity and trace preservation, returning full diagnostics; ``cp`` includes Hermiticity."""
    _check_tol(tol)
    tp, trace_residual, unit = _tp_gate(e, tol)
    herm, h = _defect_and_part(e.choi)  # near the float limit the defect overflows, and the gate fails; so may the part
    herm_ok = float(herm) <= tol + _HERMITICITY_ROUNDING * unit
    w = np.linalg.eigvalsh(_in_range(h))
    _, lam_min, scale = map(float, _psd_floor(w, tol))
    return CptpReport(
        cp=herm_ok and lam_min >= -(tol + _CHOI_ROUNDING * len(w) * _EPS) * scale,
        tp=tp,
        trace_residual=trace_residual,
        _least_eigenvalue=partial(float, lam_min),  # a partial, not a lambda, so that the report pickles
    )


def is_hptp(e: SuperOp, tol: float = DEFAULT_TOLS.psd) -> bool:
    """True iff the map is Hermitian-preserving and trace-preserving, by the gates of :func:`is_cptp`."""
    _check_tol(tol)
    tp, _, unit = _tp_gate(e, tol)
    return tp and hermiticity_defect(e.choi) <= tol + _HERMITICITY_ROUNDING * unit  # inf fails, near the float limit


def compose(f: SuperOp, e: SuperOp) -> SuperOp:
    """The composite ``F o E`` (apply ``E`` first): ``F`` applied to the output factor of ``E``'s Choi matrix."""
    if e.dim_out != f.dim_in:
        raise ValueError(f"cannot compose: inner dims {e.dim_out} vs {f.dim_in}")
    with np.errstate(over="ignore", invalid="ignore"):  # near the float limit the products overflow; named below
        c = apply_to_factor(f, e.choi, (e.dim_in, e.dim_out), "b")
    return SuperOp(e.dim_in, f.dim_out, _finite(c, "composite out of range: its Choi matrix overflows a float"))


def hs_adjoint(e: SuperOp) -> SuperOp:
    """Hilbert-Schmidt adjoint: the unique map with ``Tr[E(A)^dag B] = Tr[A^dag E*(B)]``."""
    choi = swap_factors(e.choi, (e.dim_in, e.dim_out)).conj()
    return SuperOp(e.dim_out, e.dim_in, choi)
