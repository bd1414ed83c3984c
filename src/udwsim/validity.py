"""The one validity rule of the saddle-point closed forms and the shifted contour.

The closed-form probabilities come from shifting the Gaussian-window
integration contour to Im s = -2 sigma^2 omega; excitation_probability_contour
evaluates the same shifted integral in full. The shift crosses no correlator
pole while beta = kappa sigma^2 omega < pi, for every family: the local poles
sit at Im s = -2 pi n / kappa, and the cross-pair factors stay nonzero below
that bound (see excitation_probability_contour). beta_bound_violation names
the broken constraint, require_beta_bound refuses outside the rule.
"""

from __future__ import annotations

import math

from .errors import ValidityError


def beta_parameter(params, kappa: float) -> float:
    """Contour-shift parameter beta = kappa sigma^2 omega."""
    return kappa * params.sigma**2 * params.omega


def beta_bound_violation(params, kappa: float) -> str | None:
    """None while 0 < beta < pi, else the violated constraint's name and detail.

    Negative or zero gap (omega <= 0) is its own constraint: the closed forms
    were derived for absorption, and emission needs the quadrature path.
    """
    if params.omega <= 0:
        return (f"negative_gap_closed_form (omega = {params.omega:g} <= 0: closed "
                "forms cover absorption (omega > 0) only; use the quadrature backend)")
    beta = beta_parameter(params, kappa)
    if beta >= math.pi:
        return (f"beta_bound (beta = kappa*sigma^2*omega = {beta:g} >= pi: contour "
                "shift crosses correlator poles)")
    return None


def require_beta_bound(params, kappa: float, what: str) -> float:
    """beta at kappa, or ValidityError naming the beta_bound_violation; what
    names the refused method in the message."""
    violation = beta_bound_violation(params, kappa)
    if violation is not None:
        raise ValidityError(f"{what} outside its validity regime: {violation}")
    return beta_parameter(params, kappa)
