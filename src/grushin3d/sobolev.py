"""Sharp-constant machinery for the weighted Sobolev inequality.

The Rayleigh quotient

    C(u) = (int |grad_G u|^2)^{1/2} / (int |x|^{2a} |u|^q)^{1/q}

is invariant under the anisotropic dilation (x, y) -> (l x, l^{a+1} y)
exactly when q = 6, the critical exponent; for any other q the quotient
scales by l^{(3a+3)/q - (a+1)/2} and its infimum degenerates.  That
exponent, ``scaling_exponent``, is also the coefficient of the Pohozaev
identity at q = p + 1 (``pohozaev.pohozaev_coefficient``).

For radial profiles phi(r), r = (|x|^{2a+2} + (a+1)^2 y^2)^{1/2}, the
sector integrals collapse to 1D (see the rearrangement module), and the
sharp radial constant is the Bliss-Talenti value for m = 3, p = 2, q = 6:

    D = inf (int r^2 phi'^2)^{1/2} / (int r^2 phi^6)^{1/6}
      = sqrt(3) (pi/16)^{1/3} = 1.00670893696...

attained by phi(r) = (a + b r^2)^{-1/2}.  Restoring the sector prefactors
gives the lower bound for the best constant at q = 6:

    L(alpha) = (2 pi / n(a))^{1/3} (a+1)^{1/3} D.

The +1/3 exponents follow from the 1D reduction and are confirmed by
direct quadrature of the extremal profile (``talenti_constant_general``).

The grid side of the bound lives here too: ``SectorExtremalFamily`` samples
the extremal, truncated at r = ``TRUNCATION_RADIUS``, on one first-sector
grid (``SectorExtremalFamily(alpha, n)(b)`` is one member as a grid), and
``minimize_rayleigh`` searches its concentration b for the smallest grid
Rayleigh quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import _alpha, sector_count, sector_index
from .grids import CellGrid, GridFunction3D, _count
from .rearrangement import anisotropic_radius, grushin_energy, weighted_lq_norm


def talenti_radial_constant() -> float:
    """Closed form of the sharp radial constant for (p, m, q) = (2, 3, 6).

    The two extremal integrals are Beta values: int r^4 (1+r^2)^{-3} = 3 pi/16
    and int r^2 (1+r^2)^{-3} = pi/16, so D = sqrt(3) (pi/16)^{1/3}.
    """
    return math.sqrt(3.0) * (math.pi / 16.0) ** (1.0 / 3.0)


# exp-sinh rule on [0, inf) (Takahasi & Mori 1974): r = exp(pi/2 sinh t),
# trapezoidal in t with step 1/32 on [-4, 4]; the nodes run from 2e-19 to
# 4e18 and the weights carry dr/dt.  The numerator's integrand decays like
# r^{-2}, so its tail beyond the last node is below rounding
_DE_STEP = 1.0 / 32.0
_DE_T = np.arange(-128, 129) * _DE_STEP
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_T))
_DE_WEIGHTS = _DE_STEP * 0.5 * np.pi * np.cosh(_DE_T) * _DE_NODES


def talenti_constant_general(a: float = 1.0, b: float = 1.0) -> float:
    """Radial quotient of the extremal phi(r) = (a + b r^2)^{-1/2} by quadrature.

    No closed form is assumed; this is the oracle route.  Both integrals
    over [0, inf), of r^2 phi'^2 and r^2 phi^6, are sums over the fixed
    257-node exp-sinh rule, accurate to 1e-14 relative for a, b in
    [1e-3, 1e3].  Outside that range the rule's nodes miss the profile's
    scale, so it raises DomainError there (NaN included).
    """
    if not (1e-3 <= a <= 1e3 and 1e-3 <= b <= 1e3):
        raise DomainError(f"profile parameters a, b must lie in [1e-3, 1e3], got a = {a}, b = {b}")
    r = _DE_NODES
    inner = a + b * r**2.0
    dphi = -b * r * inner**-1.5
    num = np.sum(r**2.0 * np.abs(dphi) ** 2.0 * _DE_WEIGHTS)
    den = np.sum(r**2.0 * (inner**-0.5) ** 6.0 * _DE_WEIGHTS)
    return float(num**0.5 / den ** (1.0 / 6.0))


def sobolev_lower_bound(alpha) -> float:
    """L(alpha) = (2 pi / n)^{1/3} (a+1)^{1/3} D, the verified lower bound
    for the best constant of the critical weighted Sobolev inequality."""
    a = _alpha(alpha)
    return (
        (2.0 * math.pi / sector_count(a)) ** (1.0 / 3.0)
        * (a + 1.0) ** (1.0 / 3.0)
        * talenti_radial_constant()
    )


def scaling_exponent(q: float, alpha) -> float:
    """Exponent of the Rayleigh quotient under the anisotropic dilation."""
    # written so that NaN fails too
    if not 0 < q < math.inf:
        raise DomainError(f"q must be positive and finite, got {q}")
    a = _alpha(alpha)
    return (3.0 * a + 3.0) / q - (a + 1.0) / 2.0


@dataclass(frozen=True)
class RayleighReport:
    numerator_sq: float  # Grushin Dirichlet energy (squared numerator)
    denominator: float  # weighted Lq norm
    quotient: float


def rayleigh_quotient(u: GridFunction3D, q: float, alpha, copies: int = 1) -> RayleighReport:
    """energy(u)^{1/2} / ||u||_{Lq_w} on the grid function's active cells.

    ``copies`` counts both integrals that many times: a grid that holds one
    of two mirror-image halves of a field passes 2 and gets the quotient of
    the whole field.  It is a count from 1 to 2^53, so exact as a float."""
    a = _alpha(alpha)
    copies = _count(copies, "copies", 1, 2**53)
    num = copies * grushin_energy(u, a)
    den = weighted_lq_norm(u, q, a) * copies ** (1.0 / q)
    if den == 0.0:
        raise DomainError("Rayleigh quotient of the zero function")
    return RayleighReport(num, den, math.sqrt(num) / den)


# the sector extremals are cut off at r = 20
TRUNCATION_RADIUS = 20.0

# cells per axis of a sector grid: energies need 2, and 256^3 is grids.MAX_CELLS
MAX_RESOLUTION = 256

# cells per axis of minimize_rayleigh's sector grid when a caller gives none
DEFAULT_RAYLEIGH_RESOLUTION = 96


class SectorExtremalFamily:
    """Truncated radial extremals on one first-sector grid.

    The grid, the anisotropic radius r at the cell centres and the sector
    mask are built once; ``family(b)`` samples

        u = (1 + b r^2)^{-1/2} - (1 + b R^2)^{-1/2}, clipped at zero,

    with R = ``TRUNCATION_RADIUS``, on that grid.  The grid covers the
    sector's bounding box and the mask keeps cells whose centres lie
    strictly inside the sector, so the Rayleigh quotient approximates the
    sector quotient of the profile.  Every call returns a new array of
    values; the radius and the mask are read-only and shared by all
    returned grids.  Each sample is built in one buffer, as the reciprocal
    of a square root (no ``pow``).

    ``quotient`` gives the Rayleigh quotient of the same field at the
    critical exponent q = 6.  Every member is even in y and the grid is
    centred on y = 0, so at even resolution n it samples u only on the
    planes k >= n/2 - 1 (a view of r): the integrals run over k >= n/2,
    plane n/2 - 1 is the mirror neighbour of the y-differences and is
    masked out, and both integrals are doubled.  The cell centres are
    mirror images only up to rounding, so the quotient moves in its last
    bits.  At odd n it is ``rayleigh_quotient`` of the full grid, the
    reference.
    """

    def __init__(self, alpha, resolution: int):
        a = _alpha(alpha)
        R = TRUNCATION_RADIUS
        rx = R ** (1.0 / (a + 1.0))
        ry = R / (a + 1.0)
        width = math.pi / sector_count(a)
        x2max = rx * math.sin(width) if width < math.pi / 2 else rx
        n = _count(resolution, "resolution", 2, MAX_RESOLUTION)
        cells = CellGrid([(0.0, rx), (0.0, x2max), (-ry, ry)], (n, n, n))
        X1, X2, Y = cells.centers(sparse=True)
        r = anisotropic_radius(X1, X2, Y, a)
        r.flags.writeable = False
        # sector membership depends on (x1, x2) only
        x1x2 = np.stack(np.broadcast_arrays(X1[:, :, 0], X2[:, :, 0]), axis=-1)
        sector = (sector_index(x1x2, a) == 1)[:, :, None]
        self.alpha, self.cells, self.r, self.mask = a, cells, r, np.broadcast_to(sector, r.shape)
        self._half = None
        if n % 2 == 0:
            # planes n/2 - 1 .. n - 1; the first is the mirror plane, inactive
            m = n // 2 - 1
            half_mask = np.repeat(sector, n - m, axis=2)
            half_mask[:, :, 0] = False
            ylo = cells.bbox[2, 0] + m * cells.spacing[2]
            self._half = CellGrid([(0.0, rx), (0.0, x2max), (ylo, ry)], (n, n, n - m), half_mask)
            self._half_r = r[:, :, m:]

    @staticmethod
    def _profile(r, b) -> np.ndarray:
        R = TRUNCATION_RADIUS
        u = b * r
        u *= r
        u += 1.0
        np.sqrt(u, out=u)
        np.reciprocal(u, out=u)
        u -= 1.0 / math.sqrt(1.0 + b * R * R)
        return np.maximum(u, 0.0, out=u)

    def __call__(self, b: float = 4.0) -> GridFunction3D:
        return GridFunction3D(self.cells.bbox, self._profile(self.r, b), self.mask)

    def quotient(self, b: float = 4.0) -> RayleighReport:
        """Rayleigh quotient of ``self(b)`` at q = 6, on the y >= 0 half of
        the grid when the resolution is even."""
        if self._half is None:
            return rayleigh_quotient(self(b), 6, self.alpha)
        u = self._profile(self._half_r, b)
        return rayleigh_quotient(GridFunction3D(self._half.bbox, u, self._half.mask), 6, self.alpha, copies=2)


@dataclass(frozen=True)
class RayleighMinimum:
    estimate: float
    profile_scale: float
    evaluations: int


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


def minimize_rayleigh(alpha, resolution: int = DEFAULT_RAYLEIGH_RESOLUTION) -> RayleighMinimum:
    """Minimise the sector-grid Rayleigh quotient over the extremal family.

    The quotient is taken at the critical exponent q = 6; for any other q
    the infimum is 0 or degenerate by the anisotropic scaling law.  The
    family is ``SectorExtremalFamily``, the truncated radial
    extremal (1 + b r^2)^{-1/2} on one sector grid, built once, and each
    quotient is the family's ``quotient``: at even ``resolution`` it is
    taken on the y >= 0 half of the grid, which the y -> -y symmetry of
    the family makes exact up to rounding (the last bits move against
    ``rayleigh_quotient`` of the full grid); at odd ``resolution`` it is
    that full-grid quotient.  The concentration b is found by Brent's
    bounded search ``_fminbound`` (parabolic steps with golden-section
    fallback, to 1e-3 on log b in [log 0.5, log 32]); the tests check it
    against scipy's golden-section search.  Deterministic throughout.
    """
    family = SectorExtremalFamily(alpha, resolution)
    log_b, fun, nfev = _fminbound(
        lambda log_b: family.quotient(math.exp(log_b)).quotient, math.log(0.5), math.log(32.0)
    )
    return RayleighMinimum(float(fun), math.exp(float(log_b)), nfev)
