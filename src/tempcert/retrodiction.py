"""Petz recovery maps and Bayesian inverses of processes.

The Bayesian inverse of a process ``(E, rho)`` is a CPTP map running the
other way whose state over time matches: ``E * rho = swap(E_inv * E(rho))``.
It exists exactly when the state over time passes the temporal-compatibility
test against the output marginal, and it differs from the Petz recovery map
by generalized dephasing on both ends.
"""

from __future__ import annotations

import numpy as np

from .channels import Process, SuperOp, apply, compose, from_kraus, hs_adjoint
from .operators import (
    DEFAULT_TOLS, Spectrum, _density_spectrum, _hermitian_part, _in_range, _spectrum, max_abs,
)
from .sot import star_product
from .temporal import (
    CompatibilityReport,
    _choi_from_eigenbasis,
    _dephasing,
    _eigenbasis_array,
    _validated,
    compatibility_test,
)

__all__ = [
    "petz_recovery",
    "bayesian_inverse",
    "verify_dfed",
    "petz_selfinverse_dephasing_check",
]


def petz_recovery(e: SuperOp, prior: np.ndarray) -> SuperOp:
    """Petz recovery map of ``e`` with respect to a prior state.

    Returns ``B -> rho^{1/2} E*(sigma^{-1/2} B sigma^{-1/2}) rho^{1/2}`` with
    ``sigma = E(rho)``; square roots are pseudoinverse roots, so the map is
    meaningful on the supports.
    """
    s = _density_spectrum(prior)
    if len(s.p) != e.dim_in:
        raise ValueError(f"prior dim {len(s.p)} does not match channel input dim {e.dim_in}")
    with np.errstate(over="ignore", invalid="ignore"):  # near the float limit E(rho) overflows; _in_range names it
        sigma = _hermitian_part(apply(e, s.matrix))
    return _petz(e, s, _spectrum(_in_range(sigma)))


def _petz(e: SuperOp, prior: Spectrum, sigma: Spectrum) -> SuperOp:
    """:func:`petz_recovery` from the solved spectra of the prior and of ``E(prior)``."""
    return compose(from_kraus([prior.sqrt]), compose(hs_adjoint(e), from_kraus([sigma.inv_sqrt])))


def bayesian_inverse(
    process: Process, tol: float = DEFAULT_TOLS.psd
) -> tuple[SuperOp | None, CompatibilityReport]:
    """Bayesian inverse of a process, or the report explaining why none exists.

    The state over time ``tau = E * rho`` is tested for temporal compatibility
    against its output marginal; on success the reversed temporal channel is
    returned together with the report, otherwise ``(None, report)``.
    """
    tau = star_product(process.channel, process.input_state)
    dims = (process.channel.dim_in, process.channel.dim_out)
    report = compatibility_test(tau, dims, "b", tol)
    if report.compatible:
        return report.channel, report
    return None, report


def verify_dfed(tau: np.ndarray, dims: tuple[int, int]) -> float:
    """Residual of the dephasing-mediated relation between the two temporal channels.

    For ``tau`` with faithful marginals, assembles both temporal channels
    ``E`` (first to second factor) and ``F`` (second to first), the marginal
    dephasings ``D`` and ``D'``, and the Petz recovery ``E^`` of ``E``; returns
    ``max|choi(D o F) - choi(E^ o D')|``, which vanishes identically.
    """
    (ta, sa), (tb, sb) = _validated(tau, dims)[1].values()
    for side, s in (("a", sa), ("b", sb)):
        if s.rank < len(s.p):
            raise ValueError(f"marginal on side {side} is not faithful")
    # Each marginal is solved once, by _validated.  E(rho_a) = rho_b, as E * rho_a = tau.
    e, f = (_choi_from_eigenbasis(s, _eigenbasis_array(t4, s)) for t4, s in ((ta, sa), (tb, sb)))
    petz_e = _petz(e, sa, sb)
    return max_abs(compose(_dephasing(sa), f).choi - compose(petz_e, _dephasing(sb)).choi)


def petz_selfinverse_dephasing_check(rho: np.ndarray) -> float:
    """Residual of the generalized dephasing channel being its own Petz recovery."""
    s = _density_spectrum(rho)
    if s.rank < len(s.p):
        raise ValueError("state is not faithful")
    # D(rho) = rho, so the Petz recovery of D reads both of its roots off the one spectrum of rho.
    deph = _dephasing(s)
    return max_abs(_petz(deph, s, s).choi - deph.choi)
