"""Saddle-point excitation probabilities for Gaussian switching.

Each form is the leading saddle term of the windowed integral on the
contour shifted by -2 i sigma^2 omega (legitimate while beta < pi). At
small beta its leading relative error is about 3 (kappa sigma)^2 / (2 beta^2)
= 3 / (2 (sigma omega)^2): measured 8.84% at sigma omega = 4, 3.29% at 6.7,
2.30% at 8 and 1.48% at 10 against excitation_probability_contour, which
evaluates the same shifted integral in full. The error grows with beta as
the pole at s = -2 pi i / kappa nears the contour: p_local is 6.7% off at
sigma omega = 4, beta = 1.5 and 80% off at beta = 2.5 (1.13% and 17.4% at
sigma omega = 10), while _BETA_WARN warns only from beta = 3. The numeric
paths in response.py cover the rest. All probabilities carry the lambda^2
prefactor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import SingularParameterError
from .validity import beta_parameter, require_beta_bound

# lambda_coupling beyond this makes O(lambda^4) corrections non-negligible
_LAMBDA_WARN = 0.1
# beta -> pi blowup warning threshold
_BETA_WARN = 3.0
# below this kappa*sigma the kappa^2/sin^2(beta) term switches to its series
_KAPPA_SIGMA_SERIES = 1e-4


@dataclass(frozen=True)
class DetectorParams:
    """Detector gap, coupling, and Gaussian switching width."""

    omega: float
    lambda_coupling: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        # lambda = 0 is the free-field limit, used by several identities
        if not (self.lambda_coupling >= 0 and math.isfinite(self.lambda_coupling)):
            raise ValueError("lambda_coupling must be non-negative and finite")
        if self.lambda_coupling > _LAMBDA_WARN:
            warnings.warn(
                f"lambda_coupling = {self.lambda_coupling:g} > {_LAMBDA_WARN}: "
                "leading-order perturbation theory is questionable",
                UserWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class ClosedFormResult:
    probability: float

    def __post_init__(self):
        if self.probability < 0:
            raise ValueError("closed-form probability must be non-negative")


def xi_prefactor(params: DetectorParams, kappa: float) -> float:
    """Gaussian-peak prefactor xi = (kappa sigma lambda)^2 e^{-sigma^2 omega^2} / 8 pi."""
    k, s, w, lam = kappa, params.sigma, params.omega, params.lambda_coupling
    return (k * s * lam) ** 2 * math.exp(-(s * w) ** 2) / (8.0 * math.pi)


def zeta_prefactor(params: DetectorParams, kappa: float) -> float:
    """Interference prefactor zeta = xi / 2."""
    return 0.5 * xi_prefactor(params, kappa)


def _checked_beta(params: DetectorParams, kappa: float) -> float:
    if not (kappa > 0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    beta = require_beta_bound(params, kappa, "closed form")
    if math.sin(beta) == 0.0:
        raise SingularParameterError(f"sin(beta) = 0 at beta = {beta:g}")
    if beta > _BETA_WARN:
        warnings.warn(
            f"beta = {beta:g} approaches pi; closed form blows up as 1/sin^2(beta)",
            UserWarning,
            stacklevel=3,
        )
    return beta


def p_local(params: DetectorParams, kappa: float) -> ClosedFormResult:
    """Single uniformly accelerated detector:
    (kappa sigma lambda / 2)^2 e^{-sigma^2 omega^2} / (2 pi sin^2 beta)."""
    beta = _checked_beta(params, kappa)
    prob = xi_prefactor(params, kappa) / math.sin(beta) ** 2
    return ClosedFormResult(prob)


def p_parallel(params: DetectorParams, kappa: float, L: float) -> ClosedFormResult:
    """Superposition of two parallel-accelerated branches at separation L."""
    beta = _checked_beta(params, kappa)
    loc = p_local(params, kappa).probability
    interference = zeta_prefactor(params, kappa) / (
        (kappa * L / 2.0) ** 2 + math.sin(beta) ** 2
    )
    return ClosedFormResult(0.5 * loc + interference)


def p_antiparallel(params: DetectorParams, kappa: float, L: float) -> ClosedFormResult:
    """Superposition of two antiparallel-accelerated branches; L may be negative
    and the result is asymmetric under L -> -L. Valid where p_parallel is,
    0 < beta < pi, at every kappa L."""
    beta = _checked_beta(params, kappa)
    loc = p_local(params, kappa).probability
    denom = math.sin(beta) ** 2 + (math.cos(beta) + kappa * L / 2.0 - 1.0) ** 2
    if denom == 0.0:
        raise SingularParameterError("antiparallel interference denominator vanished")
    interference = zeta_prefactor(params, kappa) / denom
    return ClosedFormResult(0.5 * loc + interference)


def _inverse_sin_sq_term(kappa: float, params: DetectorParams) -> float:
    """kappa^2 / sin^2(kappa sigma^2 omega), by series for tiny kappa*sigma."""
    sigma, omega = params.sigma, params.omega
    beta = beta_parameter(params, kappa)
    if kappa * sigma >= _KAPPA_SIGMA_SERIES:
        return kappa**2 / math.sin(beta) ** 2
    # kappa cancels: kappa^2/sin^2(beta) = (beta/sin beta)^2 / (sigma^2 omega)^2
    return (1.0 + beta**2 / 3.0) / (sigma**2 * omega) ** 2


def p_differing(params: DetectorParams, kappa1: float, kappa2: float) -> ClosedFormResult:
    """Superposition of two branches with differing accelerations sharing a
    horizon. Residue contributions of the saddle analysis are omitted; they
    vanish identically at kappa1 = kappa2.
    This is the paper's form. excitation_probability_contour includes the
    cross terms it omits; against it p_differing reads 6.5-8.7% high at
    kappa1 = 1, sigma = 0.05, omega = 80 (kappa2 = 0.25, 0.5, 2) and 1.1-1.3%
    high at omega = 200, about the saddle error of p_local at the same
    sigma omega."""
    if not (kappa1 > 0 and kappa2 > 0):
        raise ValueError("both accelerations must be positive")
    b1 = _checked_beta(params, kappa1)
    b2 = _checked_beta(params, kappa2)
    sigma, lam = params.sigma, params.lambda_coupling
    bracket = _inverse_sin_sq_term(kappa1, params) + _inverse_sin_sq_term(kappa2, params)
    # interference denominator grouped to avoid cancellation at kappa1 ~ kappa2
    denom = (kappa1 - kappa2) ** 2 + 2.0 * kappa1 * kappa2 * (1.0 - math.cos(b1 + b2))
    if denom == 0.0:
        raise SingularParameterError("differing-acceleration interference denominator vanished")
    bracket += 8.0 * kappa1**2 * kappa2**2 / denom
    prob = (sigma * lam / 2.0) ** 2 * math.exp(-(sigma * params.omega) ** 2) / (8.0 * math.pi) * bracket
    return ClosedFormResult(prob)
