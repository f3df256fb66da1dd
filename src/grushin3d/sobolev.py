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
direct quadrature of the extremal profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import _as_alpha
from .grids import GridFunction3D
from .rearrangement import grushin_energy, weighted_lq_norm


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


# exp-sinh rule on [0, inf) (Takahasi & Mori 1974): r = exp(pi/2 sinh t),
# trapezoidal in t with step 1/32 on [-4, 4]; the nodes run from 2e-19 to
# 4e18 and the weights carry dr/dt.  The numerator's tail decays like
# r^{-1-(m-p)/(p-1)}, which is below rounding by 4e18 only for p <= (m+1)/2;
# for p near 1 the profile turns too sharply for the step, and for large m
# or p' the powers of r overflow at the outer nodes
_DE_STEP = 1.0 / 32.0
_DE_T = np.arange(-128, 129) * _DE_STEP
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_T))
_DE_WEIGHTS = _DE_STEP * 0.5 * np.pi * np.cosh(_DE_T) * _DE_NODES


def talenti_constant_general(p: float, m: float, a: float = 1.0, b: float = 1.0) -> float:
    """Radial quotient of the extremal profile by quadrature.

    No closed form is assumed; this is the oracle route.  Both integrals
    over [0, inf) are sums over the fixed 257-node exp-sinh rule.  It is
    accurate to 1e-14 relative for 1.5 <= p <= (m+1)/2 <= 2.5 (which holds
    (p, m) = (2, 3)) and a, b in [1e-3, 1e3]; a (p, m) outside that range
    raises DomainError, since there the truncated tail or an overflow at the
    outer nodes would give a wrong value.
    """
    prof = ExtremalProfile(a=a, b=b, p=p, m=m)
    if not 1.5 <= p <= 0.5 * (m + 1.0) <= 2.5:
        raise DomainError(f"quadrature rule needs 1.5 <= p <= (m+1)/2 <= 2.5, got p = {p}, m = {m}")
    q = prof.q
    r = _DE_NODES
    num = np.sum(r ** (m - 1.0) * np.abs(prof.derivative(r)) ** p * _DE_WEIGHTS)
    den = np.sum(r ** (m - 1.0) * prof(r) ** q * _DE_WEIGHTS)
    return float(num ** (1.0 / p) / den ** (1.0 / q))


def sobolev_lower_bound(alpha) -> float:
    """L(alpha) = (2 pi / n)^{1/3} (a+1)^{1/3} D, the verified lower bound
    for the best constant of the critical weighted Sobolev inequality."""
    ap = _as_alpha(alpha)
    return (
        (2.0 * math.pi / ap.sector_count) ** (1.0 / 3.0)
        * (ap.alpha + 1.0) ** (1.0 / 3.0)
        * talenti_radial_constant()
    )


def scaling_exponent(q: float, alpha) -> float:
    """Exponent of the Rayleigh quotient under the anisotropic dilation."""
    if q <= 0:
        raise DomainError("q must be positive")
    a = _as_alpha(alpha).alpha
    return (3.0 * a + 3.0) / q - (a + 1.0) / 2.0


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


# minimize_rayleigh's Brent search: tolerance on log b, evaluation cap
_BRENT_XATOL = 1e-3
_BRENT_MAXFUN = 500


def _fminbound(fn, lo, hi):
    """Brent's bounded minimiser of ``fn`` on [lo, hi]: parabolic steps with
    a golden-section fallback (Brent 1973, ch. 5).  A line-for-line port of
    scipy 1.17's ``minimize_scalar(method="bounded")`` with options
    ``xatol=_BRENT_XATOL, maxiter=_BRENT_MAXFUN``, whose x, f(x) and
    evaluation count it reproduces bit for bit.  Returns (x, f(x), nfev).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = fn(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = fn(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx, num


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
    bounded search ``_fminbound`` (parabolic steps with golden-section
    fallback, to 1e-3 on log b in [log 0.5, log 32]); ``_golden_min`` is the
    reference it replaced.  Deterministic throughout.
    """
    from .fields import SectorExtremalFamily

    family = SectorExtremalFamily(alpha, resolution)
    log_b, fun, nfev = _fminbound(
        lambda log_b: family.quotient(math.exp(log_b)).quotient, math.log(0.5), math.log(32.0)
    )
    return RayleighMinimum(float(fun), math.exp(float(log_b)), nfev)
