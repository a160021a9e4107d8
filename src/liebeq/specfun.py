"""Gamma-function machinery and the closed-form constants of the Lieb equation.

The equation is the weakly singular nonlinear convolution identity

    integral over R^n of |x-y|^(-lambda) f(y) dy  =  f(x)^(p-1),

with 0 < lambda < n and conjugate exponent p = 2n/(2n - lambda).  This
module provides the problem parameters, the Fourier coefficient of the
power kernel (2*pi phase convention), the Riesz composition constant, and
the amplitudes of the singular power solution and of the bounded (Lieb)
solution.

All constants are evaluated in the log-Gamma domain and exponentiated
once, and every operation here is pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Params",
    "log_gamma",
    "log_beta",
    "beta",
    "sphere_surface_area",
    "ft_riesz_coefficient",
    "riesz_power_constant",
    "lieb_constant_C",
    "lieb_constant_L",
]


@dataclass(frozen=True)
class Params:
    """Problem instance (n, lambda) with the derived conjugate exponents.

    Requires a positive integer dimension n and 0 < lam < n.  p and pm1
    are the derived exponents 2n/(2n-lam) and lam/(2n-lam); pm1 always
    lies in (0, 1).
    """

    n: int
    lam: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"dimension n must be a positive integer, got {self.n!r}")
        lam = float(self.lam)
        if not math.isfinite(lam) or not 0.0 < lam < self.n:
            raise ValueError(f"kernel exponent must satisfy 0 < lambda < n, got {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def p(self) -> float:
        return 2.0 * self.n / (2.0 * self.n - self.lam)

    @property
    def pm1(self) -> float:
        """The exponent p - 1 = lam/(2n - lam), computed without cancellation."""
        return self.lam / (2.0 * self.n - self.lam)

    @property
    def solution_exponent(self) -> float:
        """Common decay index n - lam/2 of both closed-form solutions."""
        return self.n - self.lam / 2.0


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 (relative error around 1e-15 on [0.05, 50])."""
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) for positive arguments."""
    return math.exp(log_beta(a, b))


@lru_cache(maxsize=None)
def sphere_surface_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2).

    n = 1 gives 2, the counting measure of the two-point sphere.  Cached:
    the angular kernel and the radial pair integrands read it on every call.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - log_gamma(0.5 * n))


def ft_riesz_coefficient(n: int, nu: float) -> float:
    """Coefficient c with FT(|y|^-nu) = c |x|^(nu - n) in the 2*pi phase convention.

    c = pi^(nu - n/2) Gamma((n - nu)/2) / Gamma(nu/2), valid for 0 < nu < n.
    Applying the transform twice returns the original power, so
    c(n, nu) * c(n, n - nu) = 1 and c(n, n/2) = 1.
    """
    nu = float(nu)
    if not 0.0 < nu < n:
        raise ValueError(f"need 0 < nu < n, got nu={nu}, n={n}")
    log_c = ((nu - 0.5 * n) * math.log(math.pi)
             + log_gamma(0.5 * (n - nu)) - log_gamma(0.5 * nu))
    return math.exp(log_c)


def _log_riesz_power_constant(n: int, lam: float, mu: float) -> float:
    return (0.5 * n * math.log(math.pi)
            + log_gamma(0.5 * (n - lam))
            + log_gamma(0.5 * (n - mu))
            + log_gamma(0.5 * (lam + mu - n))
            - log_gamma(0.5 * lam)
            - log_gamma(0.5 * mu)
            - log_gamma(n - 0.5 * (lam + mu)))


def riesz_power_constant(n: int, lam: float, mu: float) -> float:
    """Constant k with  integral |x-y|^(-lam) |y|^(-mu) dy = k |x|^(n-lam-mu).

    k = pi^(n/2) G((n-lam)/2) G((n-mu)/2) G((lam+mu-n)/2)
        / (G(lam/2) G(mu/2) G(n-(lam+mu)/2)),
    symmetric in (lam, mu).  Requires 0 < lam < n, 0 < mu < n and
    lam + mu > n; outside that range the convolution integral diverges.
    """
    lam, mu = float(lam), float(mu)
    if not (0.0 < lam < n and 0.0 < mu < n):
        raise ValueError(f"exponents must lie in (0, n), got lam={lam}, mu={mu}")
    if lam + mu <= n:
        raise ValueError(
            f"lam + mu = {lam + mu} must exceed n = {n}; the integral diverges at infinity")
    lam, mu = min(lam, mu), max(lam, mu)  # bitwise-identical under swap
    return math.exp(_log_riesz_power_constant(n, lam, mu))


def lieb_constant_C(params: Params) -> float:
    """Amplitude of the singular power solution C(n,lam) |x|^(-(n - lam/2)).

    C = k^(-(2n-lam)/(2(n-lam))) where k is the Riesz composition constant
    at mu = n - lam/2; by construction C * k = C^(p-1).
    """
    n, lam = params.n, params.lam
    k = riesz_power_constant(n, lam, n - 0.5 * lam)
    exponent = -(2.0 * n - lam) / (2.0 * (n - lam))
    return k ** exponent


def lieb_constant_L(params: Params) -> float:
    """Amplitude of the bounded solution L(n,lam) (1+|x|^2)^(-(n - lam/2)).

    The equation at the origin pins L = I0^(-(2n-lam)/(2(n-lam))), where
    I0 = integral over R^n of |y|^(-lam) (1+|y|^2)^(-(n-lam/2)) dy
       = |S^(n-1)| * B((n-lam)/2, n/2) / 2
    is the radial Beta reduction (Lieb, Ann. Math. 118, 1983).
    """
    n, lam = params.n, params.lam
    log_i0 = (math.log(sphere_surface_area(n)) + log_beta(0.5 * (n - lam), 0.5 * n)
              - math.log(2.0))
    return math.exp(-(2.0 * n - lam) / (2.0 * (n - lam)) * log_i0)
