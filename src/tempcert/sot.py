"""States over time: two-time expectation values and pseudo-density matrices.

The central object is the canonical state over time of a process
``(E, rho)``,

    E * rho = 1/2 { rho (x) 1, J[E] },

the unique bipartite Hermitian operator that represents two-time expectation
values of light-touch observables (observables whose spectrum is ``{lam}`` or
``{+lam, -lam}``, which includes every Pauli string).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import Process, SuperOp, apply
from .operators import (
    DEFAULT_TOLS,
    Spectrum,
    _check_tol,
    _spectrum,
    require_hermitian,
    swap_factors,
    tensor,
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


def pauli_string(alpha: tuple[int, ...]) -> Spectrum:
    """The multi-qubit Pauli observable ``sigma_a1 (x) ... (x) sigma_am``."""
    if not alpha or any(a not in (0, 1, 2, 3) for a in alpha):
        raise ValueError(f"Pauli indices must be in 0..3, got {alpha!r}")
    mat = PAULIS[alpha[0]]
    for a in alpha[1:]:
        mat = np.kron(mat, PAULIS[a])
    return observable(mat)


def pauli_index(alpha: tuple[int, ...]) -> int:
    """Base-4 row index of a Pauli string in a correlation table."""
    idx = 0
    for a in alpha:
        idx = 4 * idx + a
    return idx


def star_product(e: SuperOp, rho: np.ndarray) -> np.ndarray:
    """Canonical state over time ``1/2 { rho (x) 1, J[E] }`` of the process (E, rho).

    Hermitian with unit trace; its marginals are ``rho`` and ``E(rho)``.
    """
    r = require_hermitian(rho)
    if r.shape[0] != e.dim_in:
        raise ValueError(f"state dim {r.shape[0]} does not match channel input dim {e.dim_in}")
    return _star(e, r)


def _star(e: SuperOp, r: np.ndarray) -> np.ndarray:
    """:func:`star_product` of a validated ``r``: ``(r (x) 1) J`` and ``J (r (x) 1)`` as one matmul each."""
    m, n = e.dim_in, e.dim_out
    j = e.choi.reshape(m, n, m, n).transpose(2, 1, 0, 3)  # J[E], the Choi matrix transposed on the input
    left = (r @ j.reshape(m, n * m * n)).reshape(m, n, m, n)
    right = (j.transpose(0, 1, 3, 2).reshape(m * n * n, m) @ r).reshape(m, n, n, m).transpose(0, 1, 3, 2)
    return ((left + right) / 2).reshape(m * n, m * n)


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
    projectors ``P_i`` of ``M``; the result is asserted real before the
    imaginary part is discarded.
    """
    e, rho = process.channel, process.input_state
    if m_obs.matrix.shape[0] != e.dim_in:
        raise ValueError("first observable does not match the channel input dimension")
    if n_obs.matrix.shape[0] != e.dim_out:
        raise ValueError("second observable does not match the channel output dimension")
    value = 0.0 + 0.0j
    for lam, proj in m_obs.eigenspaces:
        value += lam * np.trace(apply(e, proj @ rho @ proj) @ n_obs.matrix)
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

    Returns the verdict and the absolute residual.
    """
    _check_tol(tol)
    lhs = np.trace(r @ tensor(m_obs.matrix, n_obs.matrix))
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
        t = np.asarray(self.table, dtype=float)
        size = 4**self.qubits
        if t.shape != (size, size):
            raise ValueError(f"incomplete table: expected shape {(size, size)}, got {t.shape}")
        if abs(t[0, 0] - 1.0) > DEFAULT_TOLS.trace:
            raise ValueError(f"identity-pair entry must be 1, got {t[0, 0]!r}")
        if np.max(np.abs(t)) > 1.0 + DEFAULT_TOLS.correlation:
            raise ValueError("expectation values must lie in [-1, 1]")
        object.__setattr__(self, "table", t)

    def entry(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> float:
        return float(self.table[pauli_index(alpha), pauli_index(beta)])


def _pauli_basis(qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``4^m`` Pauli strings as a ``(4^m, 2^m, 2^m)`` stack in :func:`pauli_index` order,
    and the readout matrix whose column ``b`` is ``conj(s_b)`` flattened.

    Both arrays are read-only.  They are built once per qubit count up to 4 qubits (1 MB each at
    4) and kept; larger bases (16 MB each at 5 qubits, 256 MB at 6) are built per call and not kept.
    """
    return _cached_pauli_basis(qubits) if qubits <= 4 else _build_pauli_basis(qubits)


def _build_pauli_basis(qubits: int) -> tuple[np.ndarray, np.ndarray]:
    paulis = np.stack(PAULIS)
    basis = np.ones((1, 1, 1), dtype=np.complex128)
    for _ in range(qubits):
        d = 2 * basis.shape[1]
        outer = basis[:, None, :, None, :, None] * paulis[None, :, None, :, None, :]
        basis = outer.reshape(4 * len(basis), d, d)
    readout = np.ascontiguousarray(basis.conj().reshape(len(basis), -1).T)
    basis.flags.writeable = False
    readout.flags.writeable = False
    return basis, readout


_cached_pauli_basis = functools.lru_cache(maxsize=4)(_build_pauli_basis)


def correlations_from_process(process: Process, qubits: int) -> CorrelationTable:
    """Tabulate two-time expectation values over all Pauli pairs of ``m`` qubits.

    Measuring the light-touch string ``s_a`` leaves ``P+ rho P+ - P- rho P-``
    over its spectral projectors ``(1 +- s_a)/2``, which is the anticommutator
    ``{s_a, rho} / 2`` (``rho`` itself for the identity string).  The channel is
    applied once to the stack of all ``4^m`` anticommutators, and
    ``table[a, b] = Tr[E({s_a, rho} / 2) s_b]`` is one readout matmul, as ``s_b^T = conj(s_b)``.
    """
    d = 2**qubits
    e, rho = process.channel, process.input_state
    if e.dim_in != d or e.dim_out != d:
        raise ValueError(f"process dims ({e.dim_in}, {e.dim_out}) are not {qubits}-qubit algebras")
    strings, readout = _pauli_basis(qubits)
    out = apply(e, (strings @ rho + rho @ strings) / 2)
    table = out.reshape(4**qubits, d * d) @ readout
    residue = np.max(np.abs(table.imag))
    if residue > DEFAULT_TOLS.imag:
        raise ValueError(f"two-time expectation has imaginary residue {residue:.3e}")
    return CorrelationTable(qubits=qubits, table=table.real)


def pdm_from_correlations(corr: CorrelationTable) -> np.ndarray:
    """Pseudo-density matrix reproducing a Pauli correlation table.

    Returns ``4^-m sum <s_a, s_b> s_a (x) s_b``: Hermitian with unit trace,
    but not positive semidefinite in general.
    """
    strings, _ = _pauli_basis(corr.qubits)
    d = 2**corr.qubits
    flat = strings.reshape(4**corr.qubits, d * d)
    # out[(i, j), (x, y)] = sum_ab s_a[i, j] table[a, b] s_b[x, y], reordered to (i x, j y)
    out = (flat.T @ (corr.table @ flat)).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    return out.reshape(d * d, d * d) / 4**corr.qubits
