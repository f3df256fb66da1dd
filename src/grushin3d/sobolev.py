"""Sharp-constant machinery for the weighted Sobolev inequality.

The Rayleigh quotient

    C(u) = (int |grad_G u|^2)^{1/2} / (int |x|^{2a} |u|^q)^{1/q}

is invariant under the anisotropic dilation (x, y) -> (l x, l^{a+1} y)
exactly when q = 6, the critical exponent; for any other q the quotient
scales by l^{(3a+3)/q - (a+1)/2} and its infimum degenerates.

For radial profiles phi(r), r = (|x|^{2a+2} + (a+1)^2 y^2)^{1/2}, the
sector integrals collapse to 1D (see the rearrangement module), and the
sharp radial constant is the Bliss-Talenti value for m = 3, p = 2, q = 6:

    D = inf (int r^2 phi'^2)^{1/2} / (int r^2 phi^6)^{1/6}
      = sqrt(3) (pi/16)^{1/3} = 1.00670893696...

attained by phi(r) = (a + b r^2)^{-1/2}.  Restoring the sector prefactors
gives the lower bound for the best constant at q = 6:

    L(alpha) = (2 pi / n(a))^{1/3} (a+1)^{1/3} D.

The +1/3 exponents follow from the 1D reduction and are confirmed by
direct quadrature of the extremal profile; an alternative normalisation
with inverted (-1/3) prefactor exponents also circulates, so that variant
is computed and exposed alongside the verified value for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .errors import DomainError
from .geometry import _as_alpha
from .grids import GridFunction3D
from .rearrangement import grushin_energy, weighted_lq_norm

__all__ = [
    "ExtremalProfile",
    "RayleighReport",
    "talenti_radial_constant",
    "talenti_constant_general",
    "sobolev_lower_bound",
    "sobolev_lower_bound_alt",
    "rayleigh_quotient",
    "scaling_exponent",
    "critical_exponent",
    "minimize_rayleigh",
]


@dataclass(frozen=True)
class ExtremalProfile:
    """phi(r) = (a + b r^{p'})^{1 - m/p}; the (p, m) = (2, 3) case is
    (a + b r^2)^{-1/2}, the equality profile of the radial inequality."""

    a: float = 1.0
    b: float = 1.0
    p: float = 2.0
    m: float = 3.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError("profile parameters a, b must be positive")
        if not 1.0 < self.p < self.m:
            raise DomainError("need 1 < p < m")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q(self) -> float:
        return self.m * self.p / (self.m - self.p)

    def __call__(self, r):
        return (self.a + self.b * np.asarray(r) ** self.p_conj) ** (1.0 - self.m / self.p)

    def derivative(self, r):
        r = np.asarray(r)
        inner = self.a + self.b * r**self.p_conj
        return (
            (1.0 - self.m / self.p)
            * self.b
            * self.p_conj
            * r ** (self.p_conj - 1.0)
            * inner ** (-self.m / self.p)
        )


def talenti_radial_constant() -> float:
    """Closed form of the sharp radial constant for (p, m, q) = (2, 3, 6).

    The two extremal integrals are Beta values: int r^4 (1+r^2)^{-3} = 3 pi/16
    and int r^2 (1+r^2)^{-3} = pi/16, so D = sqrt(3) (pi/16)^{1/3}.
    """
    return math.sqrt(3.0) * (math.pi / 16.0) ** (1.0 / 3.0)


def talenti_constant_general(p: float, m: float, a: float = 1.0, b: float = 1.0) -> float:
    """Radial quotient of the extremal profile by adaptive quadrature.

    No closed form is assumed; this is the oracle route.  The infinite
    integrals are evaluated with the library's adaptive scheme on [0, inf),
    whose internal variable transform controls the power-law tails.
    """
    prof = ExtremalProfile(a=a, b=b, p=p, m=m)
    q = prof.q
    num, _ = quad(lambda r: r ** (m - 1.0) * np.abs(prof.derivative(r)) ** p, 0.0, np.inf)
    den, _ = quad(lambda r: r ** (m - 1.0) * prof(r) ** q, 0.0, np.inf)
    return num ** (1.0 / p) / den ** (1.0 / q)


def sobolev_lower_bound(alpha) -> float:
    """L(alpha) = (2 pi / n)^{1/3} (a+1)^{1/3} D, the verified lower bound
    for the best constant of the critical weighted Sobolev inequality."""
    ap = _as_alpha(alpha)
    return (
        (2.0 * math.pi / ap.sector_count) ** (1.0 / 3.0)
        * (ap.alpha + 1.0) ** (1.0 / 3.0)
        * talenti_radial_constant()
    )


def sobolev_lower_bound_alt(alpha) -> float:
    """The same bound with inverted prefactor exponents (-1/3 instead of
    +1/3), reported alongside the derived value for transparency."""
    ap = _as_alpha(alpha)
    return (
        (2.0 * math.pi / ap.sector_count) ** (-1.0 / 3.0)
        * (ap.alpha + 1.0) ** (-1.0 / 3.0)
        * talenti_radial_constant()
    )


def scaling_exponent(q: float, alpha) -> float:
    """Exponent of the Rayleigh quotient under the anisotropic dilation."""
    if q <= 0:
        raise DomainError("q must be positive")
    a = _as_alpha(alpha).alpha
    return (3.0 * a + 3.0) / q - (a + 1.0) / 2.0


def critical_exponent() -> int:
    """The unique q with scaling_exponent(q, alpha) = 0 for every alpha."""
    return 6


@dataclass(frozen=True)
class RayleighReport:
    numerator_sq: float  # Grushin Dirichlet energy (squared numerator)
    denominator: float  # weighted Lq norm
    quotient: float
    alpha: float
    q: float


def rayleigh_quotient(u: GridFunction3D, q: float, alpha, copies: int = 1) -> RayleighReport:
    """energy(u)^{1/2} / ||u||_{Lq_w} on the grid function's active cells.

    ``copies`` counts both integrals that many times: a grid that holds one
    of two mirror-image halves of a field passes 2 and gets the quotient of
    the whole field."""
    ap = _as_alpha(alpha)
    num = copies * grushin_energy(u, ap)
    den = copies ** (1.0 / q) * weighted_lq_norm(u, q, ap)
    if den == 0.0:
        raise DomainError("Rayleigh quotient of the zero function")
    return RayleighReport(num, den, math.sqrt(num) / den, ap.alpha, q)


@dataclass(frozen=True)
class RayleighMinimum:
    estimate: float
    profile_scale: float
    evaluations: int


def _golden_min(fn, lo, hi, tol=1e-3, max_iter=60):
    """Deterministic golden-section minimiser on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c = b_ - invphi * (b_ - a_)
    d = a_ + invphi * (b_ - a_)
    fc, fd = fn(c), fn(d)
    n = 2
    for _ in range(max_iter):
        if b_ - a_ < tol:
            break
        if fc < fd:
            b_, d, fd = d, c, fc
            c = b_ - invphi * (b_ - a_)
            fc = fn(c)
        else:
            a_, c, fc = c, d, fd
            d = a_ + invphi * (b_ - a_)
            fd = fn(d)
        n += 1
    return (c, fc, n) if fc < fd else (d, fd, n)


def minimize_rayleigh(alpha, resolution: int = 96) -> RayleighMinimum:
    """Minimise the sector-grid Rayleigh quotient over the extremal family.

    The quotient is taken at the critical exponent q = 6; for any other q
    the infimum is 0 or degenerate by the anisotropic scaling law.  The
    family is ``fields.SectorExtremalFamily``, the truncated radial
    extremal (1 + b r^2)^{-1/2} on one sector grid, built once, and each
    quotient is the family's ``quotient``: at even ``resolution`` it is
    taken on the y >= 0 half of the grid, which the y -> -y symmetry of
    the family makes exact up to rounding (the last bits move against
    ``rayleigh_quotient`` of the full grid); at odd ``resolution`` it is
    that full-grid quotient.  The concentration b is found by Brent's
    bounded search (parabolic steps with golden-section fallback, to 1e-3
    on log b in [log 0.5, log 32]); ``_golden_min`` is the reference it
    replaced.  Deterministic throughout.
    """
    from .fields import SectorExtremalFamily

    family = SectorExtremalFamily(alpha, resolution)
    res = minimize_scalar(
        lambda log_b: family.quotient(math.exp(log_b)).quotient,
        bounds=(math.log(0.5), math.log(32.0)),
        method="bounded",
        options={"xatol": 1e-3},
    )
    return RayleighMinimum(float(res.fun), math.exp(float(res.x)), int(res.nfev))
