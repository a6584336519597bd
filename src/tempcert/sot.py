"""States over time: two-time expectation values and pseudo-density matrices.

The central object is the canonical state over time of a process
``(E, rho)``,

    E * rho = 1/2 { rho (x) 1, J[E] },

the unique bipartite Hermitian operator that represents two-time expectation
values of light-touch observables (observables whose spectrum is ``{lam}`` or
``{+lam, -lam}``, which includes every Pauli string).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Process, SuperOp, apply
from .operators import (
    _HALF, DEFAULT_TOLS, Spectrum, _check_tol, _is_positive_int, _numeric_array, _pairings, _spectrum, require_hermitian,
    swap_factors, tensor,
)

__all__ = [
    "PAULIS",
    "observable",
    "pauli_string",
    "pauli_index",
    "star_product",
    "reverse_star",
    "is_light_touch",
    "two_time_expectation",
    "representability_check",
    "CorrelationTable",
    "correlations_from_process",
    "pdm_from_correlations",
]

PAULIS: tuple[np.ndarray, ...] = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def observable(m: np.ndarray) -> Spectrum:
    """A Hermitian observable as its :class:`Spectrum`; its ``eigenspaces`` are the measurement's outcomes."""
    return _spectrum(require_hermitian(m))


def _pauli_digits(alpha: tuple[int, ...], qubits: int | None = None) -> tuple[int, ...]:
    """The one gate on Pauli indices: nonempty, of ints in 0..3 (not bools), and ``qubits`` of them if given."""
    digits = tuple(alpha) if isinstance(alpha, (tuple, list)) else ()
    if not digits or not all(isinstance(a, (int, np.integer)) and type(a) is not bool and 0 <= a <= 3 for a in digits):
        raise ValueError(f"Pauli indices must be in 0..3, got {alpha!r}")
    if qubits is not None and len(digits) != qubits:
        raise ValueError(f"expected {qubits} Pauli indices, got {alpha!r}")
    return digits


def pauli_string(alpha: tuple[int, ...]) -> Spectrum:
    """The multi-qubit Pauli observable ``sigma_a1 (x) ... (x) sigma_am``."""
    digits = _pauli_digits(alpha)
    mat = PAULIS[digits[0]]
    for a in digits[1:]:
        mat = np.kron(mat, PAULIS[a])
    return observable(mat)


def pauli_index(alpha: tuple[int, ...]) -> int:
    """Base-4 row index of a Pauli string in a correlation table."""
    idx = 0
    for a in _pauli_digits(alpha):
        idx = 4 * idx + int(a)
    return idx


def _star(e: SuperOp, r: np.ndarray) -> np.ndarray:
    """``{r (x) 1, J[E]}`` as an ``(m, n, m, n)`` array, for a gated ``r`` of the input dim: twice ``E * r``."""
    # (r (x) 1) J and J (r (x) 1) as one matmul each
    m, n = e.dim_in, e.dim_out
    j = e.choi.reshape(m, n, m, n).transpose(2, 1, 0, 3)  # J[E], the Choi matrix transposed on the input
    s = (r @ j.reshape(m, n * m * n)).reshape(m, n, m, n)
    s += (j.transpose(0, 1, 3, 2).reshape(m * n * n, m) @ r).reshape(m, n, n, m).transpose(0, 1, 3, 2)
    return s


def star_product(e: SuperOp, rho: np.ndarray) -> np.ndarray:
    """Canonical state over time ``1/2 { rho (x) 1, J[E] }`` of the process (E, rho).

    Hermitian with unit trace; its marginals are ``rho`` and ``E(rho)``.
    """
    r = require_hermitian(rho)
    if r.shape[0] != e.dim_in:
        raise ValueError(f"state dim {r.shape[0]} does not match channel input dim {e.dim_in}")
    s = _star(e, r)
    return np.multiply(s, _HALF, out=s).reshape(e.dim_in * e.dim_out, -1)


def reverse_star(f: SuperOp, rho_b: np.ndarray) -> np.ndarray:
    """State over time of a process running against the factor order.

    For ``F`` from the second factor to the first, returns the operator on
    ``A (x) B`` obtained by swapping the factors of ``F * rho_b``; it equals
    ``1/2 { 1 (x) rho_b, J[F*] }`` whenever ``F`` is Hermitian-preserving.
    """
    return swap_factors(star_product(f, rho_b), (f.dim_in, f.dim_out))


def is_light_touch(obs: Spectrum) -> bool:
    """True iff the clustered spectrum is ``{lam}`` or ``{lam, -lam}`` with ``lam >= 0``."""
    vals = [lam for lam, _ in obs.eigenspaces]
    scale = DEFAULT_TOLS.cluster * max(1.0, *map(abs, vals))
    if len(vals) == 1:
        return vals[0] >= -scale
    if len(vals) == 2:
        return abs(vals[0] + vals[1]) <= scale
    return False


def two_time_expectation(m_obs: Spectrum, n_obs: Spectrum, process: Process) -> float:
    """Expectation of measuring ``M`` first, evolving, then measuring ``N``.

    Computed as ``sum_i lambda_i Tr[E(P_i rho P_i) N]`` over the eigenspace
    projectors ``P_i`` of ``M``, with the channel applied once to the stack of
    all ``P_i rho P_i``; the result is asserted real before the imaginary part is discarded.
    """
    e, rho = process.channel, process.input_state
    if m_obs.matrix.shape[0] != e.dim_in:
        raise ValueError("first observable does not match the channel input dimension")
    if n_obs.matrix.shape[0] != e.dim_out:
        raise ValueError("second observable does not match the channel output dimension")
    lams, projs = map(np.array, zip(*m_obs.eigenspaces))
    value = lams @ _pairings(apply(e, projs @ rho @ projs), n_obs.matrix[None])[:, 0]
    if abs(value.imag) > DEFAULT_TOLS.imag:
        raise ValueError(f"two-time expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


def representability_check(
    r: np.ndarray,
    m_obs: Spectrum,
    n_obs: Spectrum,
    process: Process,
    tol: float = DEFAULT_TOLS.psd,
) -> tuple[bool, float]:
    """Compare ``Tr[R (M (x) N)]`` with the two-time expectation of (M, N).

    ``R`` must pass :func:`require_hermitian`; returns the verdict and the absolute residual.
    """
    _check_tol(tol)
    lhs = _pairings(require_hermitian(r)[None], tensor(m_obs.matrix, n_obs.matrix)[None])[0, 0]
    rhs = two_time_expectation(m_obs, n_obs, process)
    residual = abs(complex(lhs) - rhs)
    return residual <= tol, float(residual)


@dataclass(frozen=True)
class CorrelationTable:
    """Complete table of Pauli-pair expectation values for ``m`` qubits per side.

    ``table[pauli_index(alpha), pauli_index(beta)]`` holds the real
    expectation value of the pair ``(sigma_alpha, sigma_beta)``.
    """

    qubits: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if not _is_positive_int(self.qubits):
            raise ValueError(f"qubits must be a positive int, got {self.qubits!r}")
        object.__setattr__(self, "qubits", int(self.qubits))  # an np.int64 would wrap 4**qubits below
        t = self.table
        if isinstance(t, np.ndarray) and t.dtype.kind in "biuf":
            t = np.asarray(t, dtype=float)
        else:  # the complex gate, so that a nonzero imaginary part is refused rather than dropped
            t = _numeric_array(t, "table", real=True)
        peak = np.abs(t).max(initial=0.0)
        if not peak < np.inf:  # a NaN entry makes the peak NaN
            raise ValueError("correlation table contains non-finite entries")
        size = 4**self.qubits
        if t.shape != (size, size):
            raise ValueError(f"incomplete table: expected shape {(size, size)}, got {t.shape}")
        if abs(t[0, 0] - 1.0) > DEFAULT_TOLS.trace:
            raise ValueError(f"identity-pair entry must be 1, got {t[0, 0]!r}")
        if peak > 1.0 + DEFAULT_TOLS.correlation:
            raise ValueError("expectation values must lie in [-1, 1]")
        object.__setattr__(self, "table", t)

    def entry(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> float:
        """The expectation value of the pair ``(sigma_alpha, sigma_beta)``, each a string of ``qubits`` indices."""
        a, b = (_pauli_digits(x, self.qubits) for x in (alpha, beta))
        return float(self.table[pauli_index(a), pauli_index(b)])


# Two-qubit change of basis: row (a, b) of _FROM_PAULI is the string sigma_a (x) sigma_b / 4 flattened, and x.ravel()
# @ _TO_PAULI is Tr[x (sigma_a (x) sigma_b)] for a 4 x 4 x; they are inverse, as Tr[s_a s_b] = 4 delta_ab.
_FROM_PAULI = np.stack([np.kron(p, q).ravel() for p in PAULIS for q in PAULIS]) / 4
_TO_PAULI = np.ascontiguousarray(4 * _FROM_PAULI.conj().T)
_HALF_TO_PAULI = _TO_PAULI * _HALF  # the first step of a table, with the anticommutator's 1/2 folded in


def correlations_from_process(process: Process, qubits: int) -> CorrelationTable:
    """Tabulate two-time expectation values over all Pauli pairs of ``m`` qubits.

    Pauli strings are light-touch, so ``table[a, b] = Tr[(E * rho)(s_a (x) s_b)]``, the Pauli expansion of the state
    over time.  Its ``2m`` qubits, input first, fall into ``m`` pairs; one transpose of ``2 (E * rho)`` puts each
    pair's row index next to its column index, and each of ``m`` matmuls by :data:`_TO_PAULI` takes the leading pair
    to its 16 Pauli coefficients and moves them to the back, ending in :func:`pauli_index` order: ``O(m 16^m)`` work.
    """
    if not _is_positive_int(qubits):
        raise ValueError(f"qubits must be a positive int, got {qubits!r}")
    d = 2**qubits
    e, rho = process.channel, process.input_state
    if e.dim_in != d or e.dim_out != d:
        raise ValueError(f"process dims ({e.dim_in}, {e.dim_out}) are not {qubits}-qubit algebras")
    pairs = sum(zip(range(qubits), range(qubits, 2 * qubits)), ())  # pair 1's row and column axes, then pair 2's...
    x = _star(e, rho).reshape((4,) * 2 * qubits).transpose(pairs)  # rho is gated by Process
    for factor in [_HALF_TO_PAULI] + [_TO_PAULI] * (qubits - 1):
        x = x.reshape(16, -1).T @ factor
    table = x.reshape(d * d, d * d)
    residue = np.abs(table.imag).max()
    if residue > DEFAULT_TOLS.imag:
        raise ValueError(f"two-time expectation has imaginary residue {residue:.3e}")
    return CorrelationTable(qubits=qubits, table=table.real)


def pdm_from_correlations(corr: CorrelationTable) -> np.ndarray:
    """Pseudo-density matrix reproducing a Pauli correlation table.

    Returns ``4^-m sum <s_a, s_b> s_a (x) s_b``: Hermitian with unit trace, but not positive semidefinite in
    general.  It is :func:`correlations_from_process` run backwards, by :data:`_FROM_PAULI`.
    """
    q, d = corr.qubits, 2**corr.qubits
    # a real table times a complex matrix is the table times its float view of (re, im) pairs
    x = (corr.table.reshape(16, -1).T @ _FROM_PAULI.view(np.float64)).view(np.complex128)
    for _ in range(q - 1):
        x = x.reshape(16, -1).T @ _FROM_PAULI
    return x.reshape((4,) * 2 * q).transpose([*range(0, 2 * q, 2), *range(1, 2 * q, 2)]).reshape(d * d, d * d)
