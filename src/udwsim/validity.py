"""The one validity rule of the saddle-point closed forms and the shifted contour.

The closed-form probabilities come from shifting the Gaussian-window
integration contour to Im s = -2 sigma^2 omega; excitation_probability_contour
evaluates the same shifted integral in full. The shift crosses no correlator
pole while beta = kappa sigma^2 omega < pi, for every family: the local poles
sit at Im s = -2 pi n / kappa, and the cross-pair factors stay nonzero below
that bound (see excitation_probability_contour). check_beta_bound reports the
rule, require_beta_bound refuses outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidityError


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violated_constraints: list = field(default_factory=list)
    beta: float = math.nan

    def __post_init__(self):
        if self.ok != (len(self.violated_constraints) == 0):
            raise ValueError("ok must reflect an empty violation list")


def beta_parameter(params, kappa: float) -> float:
    """Contour-shift parameter beta = kappa sigma^2 omega."""
    return kappa * params.sigma**2 * params.omega


def check_beta_bound(params, kappa: float) -> ValidityReport:
    """Closed forms require 0 < beta < pi.

    Negative or zero gap (omega <= 0) is reported as its own constraint:
    the closed forms were derived for absorption, and emission needs the
    quadrature path.
    """
    beta = beta_parameter(params, kappa)
    violations = []
    if params.omega <= 0:
        violations.append({
            "name": "negative_gap_closed_form",
            "detail": f"omega = {params.omega:g} <= 0: closed forms cover absorption "
                      "(omega > 0) only; use the quadrature backend",
        })
    elif beta >= math.pi:
        violations.append({
            "name": "beta_bound",
            "detail": f"beta = kappa*sigma^2*omega = {beta:g} >= pi: contour shift "
                      "crosses correlator poles",
        })
    return ValidityReport(ok=not violations, violated_constraints=violations, beta=beta)


def require_beta_bound(params, kappa: float, what: str) -> float:
    """beta at kappa, or ValidityError carrying the check_beta_bound report;
    what names the refused method in the message."""
    report = check_beta_bound(params, kappa)
    if not report.ok:
        names = ", ".join(v["name"] for v in report.violated_constraints)
        raise ValidityError(f"{what} outside its validity regime: {names}", report)
    return report.beta
