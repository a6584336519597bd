"""Product ensembles, random instance generators, and state discrimination.

All generators take an explicit seed (an integer or a ``numpy.random.Generator``)
and are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import SuperOp, from_kraus
from .operators import (
    DEFAULT_TOLS, Spectrum, _check_tol, _density_spectrum, _density_stack, _hermitian_stack, _numeric_array,
    _pairings, _psd_floor, as_complex_matrix, max_abs,
)
from .sot import observable

__all__ = [
    "ProductEnsemble",
    "DiscriminationInstance",
    "assemble_state",
    "random_unitary",
    "random_density",
    "random_cptp",
    "random_separable",
    "random_light_touch",
    "random_povm",
    "is_orthogonal_ensemble",
    "discrimination_povm",
    "perfect_distinguishability_check",
]

Seed = int | np.random.Generator | None


def _rng(seed: Seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _members(matrices: object, name: str) -> np.ndarray:
    """The members of the field ``name`` as one complex array.  A ``ValueError`` names the first member that is
    ragged or holds a non-number, or else the members' shapes, which then differ."""
    try:
        return np.asarray(matrices, dtype=np.complex128)
    except (ValueError, TypeError):
        shapes = dict.fromkeys(_numeric_array(m, f"member {i} of {name}").shape for i, m in enumerate(matrices))
        raise ValueError(f"the members of {name} must share one shape, got shapes {list(shapes)}") from None


@dataclass(frozen=True)
class ProductEnsemble:
    """Weighted collection of product states ``sum_t w_t rho_{a;t} (x) rho_{b;t}``.

    Weights must be finite and sum to one; negative weights are allowed and flag the
    ensemble as a quasiprobability decomposition.  The members of a factor share one
    shape and are gated as one ``(k, d, d)`` stack, with the errors of
    :func:`validate_density` for the first member that fails.
    """

    weights: np.ndarray
    states_a: tuple[np.ndarray, ...]
    states_b: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        w = _numeric_array(self.weights, "weights", real=True).ravel()
        if w.size == 0 or w.size != len(self.states_a) or w.size != len(self.states_b):
            raise ValueError("weights and the two state lists must be nonempty and of equal length")
        if not np.isfinite(w).all():
            raise ValueError(f"weights must be finite, got {w.tolist()}")
        if not abs(w.sum() - 1.0) <= DEFAULT_TOLS.weight_sum:  # a NaN sum fails too
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states_a", tuple(_density_stack(_members(self.states_a, "states_a"))))
        object.__setattr__(self, "states_b", tuple(_density_stack(_members(self.states_b, "states_b"))))

    @property
    def dims(self) -> tuple[int, int]:
        return self.states_a[0].shape[0], self.states_b[0].shape[0]

    @property
    def quasi(self) -> bool:
        return bool(np.any(self.weights < 0))


def assemble_state(ensemble: ProductEnsemble) -> np.ndarray:
    """The bipartite operator of an ensemble: Hermitian and trace one, PSD iff
    the weights can be taken nonnegative."""
    da, db = ensemble.dims
    out = np.zeros((da, db, da, db), dtype=np.complex128)
    for w, a, b in zip(ensemble.weights, ensemble.states_a, ensemble.states_b):
        out += w * (a[:, None, :, None] * b[None, :, None, :])
    return out.reshape(da * db, da * db)


def random_unitary(dim: int, seed: Seed = None) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR of a Ginibre matrix."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(dim: int, rank: int | None = None, seed: Seed = None) -> np.ndarray:
    """Random density matrix of the given rank (full rank by default)."""
    rng = _rng(seed)
    if rank is None:
        rank = dim
    if rank < 1 or rank > dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_cptp(dim_in: int, dim_out: int, kraus_count: int, seed: Seed = None) -> SuperOp:
    """Random CPTP map from a Haar-random isometry cut into Kraus blocks."""
    if kraus_count * dim_out < dim_in:
        raise ValueError(f"need kraus_count * dim_out >= dim_in, got {kraus_count} * {dim_out} < {dim_in}")
    rng = _rng(seed)
    g = rng.standard_normal((kraus_count * dim_out, dim_in)) + 1j * rng.standard_normal(
        (kraus_count * dim_out, dim_in)
    )
    q, _ = np.linalg.qr(g)
    kraus = [q[k * dim_out : (k + 1) * dim_out, :] for k in range(kraus_count)]
    return from_kraus(kraus)


def random_separable(dim_a: int, dim_b: int, n_terms: int, seed: Seed = None) -> ProductEnsemble:
    """Random separable ensemble: Dirichlet-uniform weights, random-rank factors."""
    if n_terms < 1:
        raise ValueError("need at least one product term")
    rng = _rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    states_a = tuple(random_density(dim_a, int(rng.integers(1, dim_a + 1)), rng) for _ in range(n_terms))
    states_b = tuple(random_density(dim_b, int(rng.integers(1, dim_b + 1)), rng) for _ in range(n_terms))
    return ProductEnsemble(weights=weights, states_a=states_a, states_b=states_b)


def random_light_touch(dim: int, seed: Seed = None) -> Spectrum:
    """Random observable with spectrum ``{lam}`` or ``{+lam, -lam}``.

    Samples a Haar-random projector of rank 1..dim and a scale in (0, 1],
    emitting ``lam (2P - 1)``; rank ``dim`` yields the constant spectrum.
    """
    rng = _rng(seed)
    rank = int(rng.integers(1, dim + 1))
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    proj = cols @ cols.conj().T
    lam = 1.0 - float(rng.uniform(0.0, 1.0))
    return observable(lam * (2 * proj - np.eye(dim)))


def random_povm(dim: int, outcomes: int, seed: Seed = None) -> list[np.ndarray]:
    """Random POVM from normalizing random positive operators."""
    rng = _rng(seed)
    parts = []
    for _ in range(outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        parts.append(g @ g.conj().T)
    total = sum(parts)
    inv = observable(total).inv_sqrt
    return [inv @ p @ inv for p in parts]


def is_orthogonal_ensemble(states: list[np.ndarray], tol: float = DEFAULT_TOLS.psd) -> bool:
    """True iff all pairwise Hilbert-Schmidt overlaps ``Tr[rho_s rho_t]``, ``s != t``, vanish."""
    _check_tol(tol)
    if len(states) == 0:
        raise ValueError("ensemble must hold at least one state")
    s = _members(states, "states")
    for m in s:
        as_complex_matrix(m)  # raises unless the member is a nonempty square matrix of finite entries
    with np.errstate(over="ignore", invalid="ignore"):  # an overlap that overflows is named below
        overlaps = np.abs(_pairings(s, s))
    if not np.isfinite(overlaps).all():
        raise ValueError("overlap out of range: Tr[rho_s rho_t] overflows a float")
    return bool(np.all(overlaps[~np.eye(len(s), dtype=bool)] <= tol))


@dataclass(frozen=True)
class DiscriminationInstance:
    """An ensemble, its weights nonnegative and summing to one, with a candidate discriminating POVM.

    ``assignment[k]`` is the ensemble index announced on POVM outcome ``k``; the assignment must be surjective
    onto the ensemble.  States and POVM elements are ``(k, d, d)`` stacks of Hermitian parts, gated by the stacked
    fast path of the shared gates with its member-loop fallback: an error names the first member that fails.
    """

    weights: np.ndarray
    states: np.ndarray
    povm: np.ndarray
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        w = _numeric_array(self.weights, "weights", real=True).ravel()
        if w.size == 0 or w.size != len(self.states):
            raise ValueError(f"need one weight per state of a nonempty ensemble, got {w.size} for {len(self.states)}")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= DEFAULT_TOLS.weight_sum):  # NaN fails both
            raise ValueError(f"weights must be nonnegative and sum to 1, got {w.tolist()}")
        states = _density_stack(_members(self.states, "states"))
        if len(self.assignment) != len(self.povm):
            raise ValueError("assignment must map every POVM outcome to an ensemble index")
        if set(self.assignment) != set(range(len(states))):
            raise ValueError("assignment must be surjective onto the ensemble")
        povm = _hermitian_stack(_members(self.povm, "povm"))
        if povm.shape[1:] != states.shape[1:]:
            raise ValueError(f"POVM elements of shape {povm.shape[1:]} do not match states of shape {states.shape[1:]}")
        if max_abs(povm.sum(axis=0) - np.eye(states.shape[1])) > DEFAULT_TOLS.trace:
            raise ValueError("POVM elements do not sum to the identity")
        ok, lam_min, _ = _psd_floor(np.linalg.eigvalsh(povm), DEFAULT_TOLS.psd)
        if not ok.all():
            raise ValueError(f"POVM element has negative eigenvalue {lam_min[ok.argmin()]:.3e}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "povm", povm)


def discrimination_povm(
    weights: np.ndarray,
    states: list[np.ndarray],
    tol: float = DEFAULT_TOLS.psd,
) -> DiscriminationInstance:
    """Support-projector POVM that perfectly discriminates an orthogonal ensemble.

    A completion element (assigned to ensemble index 0) is adjoined only when
    the support projectors do not already resolve the identity.
    """
    # one eigh per state: its gate, matrix and support
    spectra = [_density_spectrum(s) for s in _members(states, "states")]
    mats = [s.matrix for s in spectra]
    if not is_orthogonal_ensemble(mats, tol):
        raise ValueError("ensemble is not orthogonal")
    povm = [s.support for s in spectra]
    assignment = list(range(len(mats)))
    leftover = np.eye(mats[0].shape[0]) - sum(povm)
    if max_abs(leftover) > tol:
        povm.append(leftover)
        assignment.append(0)
    return DiscriminationInstance(weights=weights, states=mats, povm=povm, assignment=tuple(assignment))


def perfect_distinguishability_check(
    instance: DiscriminationInstance,
    tol: float = DEFAULT_TOLS.psd,
) -> tuple[bool, float]:
    """Check the Bayes-rule condition for perfect discrimination.

    Verifies ``Tr[rho_t E_k] w_t = delta_{t, assignment[k]} Tr[rho_avg E_k]``
    for every ensemble index ``t`` and outcome ``k``; returns the verdict and
    the largest violation.
    """
    _check_tol(tol)
    joint = instance.weights[:, None] * _pairings(instance.states, instance.povm).real  # [t, k]
    announced = np.arange(len(joint))[:, None] == np.array(instance.assignment)
    worst = float(np.max(np.abs(joint - np.where(announced, joint.sum(axis=0), 0.0))))
    return worst <= tol, worst
