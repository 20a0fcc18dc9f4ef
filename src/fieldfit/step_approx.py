"""Two-center Shepard approximation of a Heaviside interface.

A pair of equal-width Gaussians with Shepard normalization collapses, along
the normal coordinate of the interface, to a logistic profile whose L1
distance to the Heaviside function is (log 2) sigma^2 / (c + b).  This module
builds the two-center construction, the closed-form profile, and a
quadrature check of the error law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .rbf import RbfDictionary, shepard_eval

TAIL_BOUND = 1e-14


@dataclass(frozen=True)
class StepInterfaceSpec:
    """Interface geometry and kernel parameters.

    The interface is the hyperplane <v, x> + b = 0 with unit normal ``v``;
    the two centers sit at c*v and gamma*c*v with common width ``sigma`` and
    amplitudes 1 and 0.  |H - K| integrates to below ``TAIL_BOUND`` outside
    |y| <= ``truncation`` along the normal, which must be finite.
    """

    v: np.ndarray
    b: float
    c: float
    sigma: float
    truncation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float)).copy()
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"normal must be a unit vector, got |v|={np.linalg.norm(v)}")
        if not all(math.isfinite(t) for t in (self.b, self.c, self.sigma)):
            raise ValueError(f"b, c and sigma must be finite: {self.b}, {self.c}, {self.sigma}")
        if self.c + self.b <= 0:
            raise ValueError(f"c + b must be positive, got {self.c + self.b}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # sigma * sigma overflows to inf where sigma**2 raises OverflowError
        sigma2 = self.sigma * self.sigma
        if not (0 < sigma2 < math.inf and 0 < 2.0 * (self.b + self.c) / sigma2 < math.inf):
            raise ValueError(
                f"rate 2(b + c) / sigma^2 must be finite and positive, got sigma={self.sigma}"
            )
        a = self.rate
        tail = a * TAIL_BOUND  # 0 once it underflows, and then L is not finite either
        L = max(np.log(max(1.0 / tail, np.e)) / a, 1.0 / a) * 1.1 if tail > 0 else math.inf
        if not math.isfinite(L):
            raise ValueError(f"rate {a:g} has no finite truncation point, got sigma={self.sigma}")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "truncation", float(L))

    @property
    def gamma(self) -> float:
        return -1.0 - 2.0 * self.b / (self.c * float(self.v @ self.v))

    @property
    def beta(self) -> tuple[float, float]:
        return (1.0, 0.0)

    @property
    def rate(self) -> float:
        """Slope parameter 2(b + c) / sigma^2 of the logistic profile."""
        return 2.0 * (self.b + self.c) / self.sigma**2


def heaviside(y) -> np.ndarray:
    """Heaviside step with the half-maximum convention H(0) = 1/2."""
    y = np.asarray(y, dtype=float)
    return np.where(y > 0, 1.0, np.where(y < 0, 0.0, 0.5))


def logistic_profile(spec: StepInterfaceSpec, y) -> np.ndarray:
    """Closed-form profile 1 / (1 + exp(-rate * y)) along the normal."""
    from scipy.special import expit  # slow to import, and only this function needs it

    return expit(spec.rate * np.asarray(y, dtype=float))


def two_center_shepard(spec: StepInterfaceSpec, x) -> np.ndarray:
    """Shepard blend of the two Gaussians at points ``x``, by :func:`shepard_eval`.

    Equals ``logistic_profile(spec, <v, x> + b)`` identically.
    """
    pair = RbfDictionary(centers=[spec.c * spec.v, spec.gamma * spec.c * spec.v], widths=spec.sigma)
    return shepard_eval(x, pair, np.array(spec.beta))


@dataclass(frozen=True)
class L1ErrorResult:
    """Numeric vs analytic L1 error, with the two half-line contributions."""

    numeric: float
    analytic: float
    lower_half: float
    upper_half: float

    def __iter__(self):
        return iter((self.numeric, self.analytic))


def l1_error(spec: StepInterfaceSpec) -> L1ErrorResult:
    """Integrate |H - K| along the normal and compare with the error law.

    The integrand decays like exp(-rate*|y|); it is integrated over
    [-L, L], L = ``spec.truncation``, so the dropped tail is below
    ``TAIL_BOUND``.  The integral is split at y = 0 where the integrand has
    a kink.
    """
    from scipy.integrate import quad  # slow to import, and only this function needs it

    L = spec.truncation

    def integrand(y):
        return abs(heaviside(y) - float(logistic_profile(spec, y)))

    lower, err_lo = quad(integrand, -L, 0.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    upper, err_hi = quad(integrand, 0.0, L, epsabs=1e-15, epsrel=1e-13, limit=200)
    if err_lo + err_hi > 1e-10 * max(lower + upper, 1e-30):
        raise NumericalError(
            f"quadrature error estimate {err_lo + err_hi:g} too large for the L1 error"
        )
    analytic = float(np.log(2.0) * spec.sigma**2 / (spec.c + spec.b))
    return L1ErrorResult(
        numeric=float(lower + upper),
        analytic=analytic,
        lower_half=float(lower),
        upper_half=float(upper),
    )


def error_grid(c_values, sigma_values, b: float = 0.0, v=None):
    """Rows (c, sigma, b, numeric, analytic, rel_diff) over a parameter grid."""
    if v is None:
        v = np.array([1.0, 0.0])
    rows = []
    for c in c_values:
        for sigma in sigma_values:
            spec = StepInterfaceSpec(v=v, b=b, c=float(c), sigma=float(sigma))
            res = l1_error(spec)
            rel = abs(res.numeric - res.analytic) / res.analytic
            rows.append((float(c), float(sigma), float(b), res.numeric, res.analytic, rel))
    return rows
