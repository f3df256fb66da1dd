"""Weighted decreasing rearrangement onto the first sector.

For a nonnegative compactly supported field u, all superlevel sets are
measured with the weight |x|^{2a}, and u is traded for the radial profile
phi(r) on the first sector, where

    r = (|x|^{2a+2} + (a+1)^2 y^2)^{1/2}

and the superlevel set {phi > t} is the anisotropic ball {r < R} whose
weighted sector measure

    m(R) = 2 pi R^3 / (3 n(a) (a+1)^2)

matches |{u > t}|_w level by level.  Those measures come from counting
the cells into the K levels (a bucket per cell by binary search, one
weighted bincount, a cumulative sum over the buckets): O(N log K) for N
cells, with no sort.  Radii that differ only by the rounding of those
sums are merged as exact ties are.  phi is nonincreasing and
right-continuous by construction.  The rearranged field never increases
the Grushin Dirichlet energy

    E(u) = integral of u_x1^2 + u_x2^2 + |x|^{2a} u_y^2;

``polya_szego_gap`` measures that drop.  For radial fields the energy and
weighted Lq norms collapse to 1D integrals:

    E(phi on sector) = (2 pi / n) integral r^2 phi'(r)^2 dr
    int |x|^{2a} |phi|^q = (2 pi / (n (a+1)^2)) integral r^2 |phi|^q dr

On the grid, ``weighted_lq_norm`` is the q-th root of the grid's
``power_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import _alpha, _gauss_rule, sector_count
from .grids import GridFunction3D, _count

# at most 2^20 uniform levels: the level and measure arrays then take 8 MiB each
MAX_LEVELS = 1 << 20

# uniform levels of a rearrangement when a caller gives none
DEFAULT_LEVELS = 256

# radii closer than this fraction of the support radius are ties: a profile
# merges them, and the energy leaves out segments that thin
_TIE = 1e-9

# cells of grushin_energy's scratch block (512 KiB): whole x1 slabs, at
# least one
_ENERGY_BLOCK_CELLS = 1 << 16

# the 5-point Gauss rule on [-1, 1], used per linear segment of a profile;
# taken at import, so no run pays for importing numpy.polynomial
_GAUSS_LEGENDRE_5 = _gauss_rule(5)


def anisotropic_radius(x1, x2, y, alpha) -> np.ndarray:
    a = _alpha(alpha)
    r2 = np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    return np.sqrt(r2 ** (a + 1.0) + (a + 1.0) ** 2 * np.asarray(y) ** 2)


def sector_measure_of_radius(R, alpha) -> float:
    """Weighted measure of {r < R} inside one sector: 2 pi R^3 / (3 n (a+1)^2)."""
    a = _alpha(alpha)
    return 2.0 * np.pi * np.asarray(R) ** 3 / (3.0 * sector_count(a) * (a + 1.0) ** 2)


def radius_from_measure(m, alpha):
    """Inverse of sector_measure_of_radius; cube-root homogeneous."""
    a = _alpha(alpha)
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise DomainError("measure must be nonnegative")
    out = (3.0 * sector_count(a) * (a + 1.0) ** 2 * m / (2.0 * np.pi)) ** (1.0 / 3.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DistributionFunction:
    """Weighted measures lambda(t_k) = |{u > t_k}|_w at increasing levels,
    and ``top``, the field's weighted essential supremum: its largest value
    on cells whose weight |x|^{2a} is positive (0 for a zero field).  That
    is max u whenever no cell centre lies on the y-axis, as on every grid
    with even x1 and x2 counts; a cell of weight 0 measures nothing."""

    levels: np.ndarray
    measures: np.ndarray
    top: float


def distribution_function(u: GridFunction3D, alpha, levels: int = DEFAULT_LEVELS) -> DistributionFunction:
    """lambda(t) = |{u > t}|_w by weighted voxel sums on the superlevel sets.

    ``levels`` is the count K of uniform levels top/K, 2 top/K, ..., top in
    (0, top], from 1 to ``MAX_LEVELS``; a zero field has the one level 0.
    The cells are counted into levels, not sorted: each cell above the
    lowest level falls in the bucket j of the levels below its value, the
    weighted cell measures are summed per bucket in C order, and
    lambda(t_k) is the sum of the buckets above k, in O(N log K).
    """
    a = _alpha(alpha)
    K = _count(levels, "levels", 1, MAX_LEVELS)
    vals = u.masked_values()
    if np.any(vals < 0):
        raise DomainError("rearrangement requires a nonnegative field")
    weight = u.weight2d(a)
    top = float(np.max(vals, axis=2, initial=0.0)[weight > 0].max(initial=0.0))
    lv = np.linspace(top / K, top, K) if top > 0 else np.zeros(1)
    # no level counts a cell at or below the lowest level, so only the cells
    # above it are bucketed
    flat = vals.ravel()
    above = np.flatnonzero(flat > lv[0])
    j = np.searchsorted(lv, flat[above], side="left")
    # the weight is constant along y, the fastest axis of the C order
    w = weight.ravel()[above // u.dims[2]]
    buckets = np.bincount(j, weights=w, minlength=len(lv) + 1)
    # measure of {u > t_k}: the cells in buckets j > k
    measures = np.cumsum(buckets[::-1])[::-1][1:] * u.cell_volume
    return DistributionFunction(lv, measures, top)


@dataclass(frozen=True)
class RadialProfile:
    """Nonincreasing right-continuous step profile phi on [0, inf).

    phi(s) = values[i] on [radii[i-1], radii[i]) with radii[-1] = 0, and
    phi = 0 beyond radii[-1].  ``nodes`` gives the piecewise-linear
    interpolant used for energies, norms and CSV export.
    """

    radii: np.ndarray  # increasing, len K
    values: np.ndarray  # decreasing, len K
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _alpha(self.alpha))
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.shape != v.shape or r.ndim != 1 or len(r) == 0:
            raise DomainError("radii and values must be matching 1D arrays")
        if np.any(np.diff(r) <= 0) or np.any(r <= 0):
            raise DomainError("radii must be positive and strictly increasing")
        if np.any(np.diff(v) > 0) or np.any(v < 0):
            raise DomainError("values must be nonnegative and nonincreasing")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_distribution(cls, dist: DistributionFunction, alpha) -> "RadialProfile":
        """The profile whose superlevel set {phi > t_k} is the anisotropic
        ball of weighted sector measure lambda(t_k), level by level.

        The top level is ``dist.top`` itself, so the profile attains the
        weighted essential supremum exactly on its innermost interval, the
        ball of measure lambda(t_{K-1}).  That takes K >= 2 levels: the only
        level of K = 1 is the top, whose measure lambda(top) is 0.  A zero
        field gives the zero profile on [0, tiny).
        """
        a = _alpha(alpha)
        zero = cls(np.array([np.finfo(float).tiny]), np.array([0.0]), a)
        if dist.top == 0.0:
            return zero
        if len(dist.levels) < 2:
            raise DomainError(f"a nonzero field needs at least 2 levels, got {len(dist.levels)}")
        lv, meas = dist.levels, dist.measures
        radii_desc = radius_from_measure(meas, a)  # nonincreasing with level
        # interval [R_k, R_{k-1}) carries value t_k; innermost interval keeps top
        b = radii_desc[:-1][::-1]  # R_{K-1} ... R_1  (increasing)
        support = radius_from_measure(meas[0], a)
        b = np.append(b, support)
        v = lv[::-1]  # t_K ... t_1  (decreasing)
        # empty intervals (equal consecutive radii) belong to the earlier, larger
        # value; drop the later duplicate.  A radius within _TIE of the support
        # radius above the one before it is a tie too: its measure differs from
        # an exact tie's only by the rounding of the sums, which would otherwise
        # decide whether a sliver segment enters the energy's secant windows
        keep = np.concatenate([[True], np.diff(b) > _TIE * support]) & (b > 0)
        b, v = b[keep], v[keep]
        if len(b) == 0:
            return zero
        return cls(b, v, a)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.radii, s, side="right")
        out = np.where(idx < len(self.values), self.values[np.clip(idx, 0, len(self.values) - 1)], 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def max_value(self) -> float:
        return float(self.values[0])

    @property
    def support_radius(self) -> float:
        return float(self.radii[-1])

    def measure_above(self, t) -> np.ndarray:
        """Weighted sector measure of {phi > t}; exact for the step profile."""
        t = np.asarray(t, dtype=float)
        # {phi > t} = [0, radii[j]) for the last interval with value > t
        idx = len(self.values) - np.searchsorted(self.values[::-1], t, side="right")
        r_t = np.where(idx > 0, self.radii[np.clip(idx - 1, 0, None)], 0.0)
        m = sector_measure_of_radius(r_t, self.alpha)
        return float(m) if m.ndim == 0 else m

    def nodes(self):
        """Piecewise-linear interpolant nodes: (0, v0), (r_i, v_{i+1}), (r_K, 0)."""
        s = np.concatenate([[0.0], self.radii])
        v = np.concatenate([self.values, [0.0]])
        return s, v

    def dirichlet_energy(self) -> float:
        """(2 pi / n) int r^2 phi'(r)^2 dr for the interpolated profile.

        Slopes are secants over +-3 nodes around each segment.
        Adjacent-node secants square the level-measurement
        noise of the breakpoint radii into a systematic positive bias;
        widening the secant suppresses that while staying exact for
        linear stretches.  Segments thinner than ``_TIE`` of the support
        radius are value jumps below level resolution and are excluded,
        which can only lower the reported energy, never inflate it; a
        profile from ``from_distribution`` has merged such radii already.
        """
        s, v = self.nodes()
        n = len(s)
        idx = np.arange(n - 1)
        j1 = np.maximum(idx - 3, 0)
        j2 = np.minimum(idx + 4, n - 1)
        ds_w = s[j2] - s[j1]
        ok = (ds_w > 0) & (np.diff(s) > _TIE * self.support_radius)
        slope = (v[j2] - v[j1])[ok] / ds_w[ok]
        cubes = np.diff(s**3)[ok] / 3.0
        return float(2.0 * np.pi / sector_count(self.alpha) * np.sum(slope**2 * cubes))

    def lq_norm(self, q: float) -> float:
        """((2 pi / (n (a+1)^2)) int r^2 |phi|^q dr)^{1/q}, linear interpolant."""
        # written so that NaN fails too
        if not 1 <= q < math.inf:
            raise DomainError(f"q must be finite and >= 1, got {q}")
        s, v = self.nodes()
        xg, wg = _GAUSS_LEGENDRE_5
        a_, b_ = s[:-1], s[1:]
        mid, half = (a_ + b_) / 2.0, (b_ - a_) / 2.0
        r = mid[:, None] + half[:, None] * xg[None, :]
        va, vb = v[:-1], v[1:]
        frac = (r - a_[:, None]) / np.where(half[:, None] > 0, 2 * half[:, None], 1.0)
        vals = va[:, None] + (vb - va)[:, None] * frac
        seg = np.sum(wg[None, :] * r**2 * np.abs(vals) ** q, axis=1) * half
        a = self.alpha
        integral = 2.0 * np.pi / (sector_count(a) * (a + 1.0) ** 2) * float(np.sum(seg))
        return integral ** (1.0 / q)


def rearrange(u: GridFunction3D, alpha, levels: int = DEFAULT_LEVELS) -> RadialProfile:
    """Weighted decreasing rearrangement of u as a radial step profile on
    ``levels`` uniform levels in (0, top], from 2 to ``MAX_LEVELS``; see
    ``RadialProfile.from_distribution``.
    """
    a = _alpha(alpha)
    _count(levels, "levels", 2, MAX_LEVELS)
    return RadialProfile.from_distribution(distribution_function(u, a, levels), a)


def _derivative(f, h: float, edge_order: int, out: np.ndarray) -> np.ndarray:
    """The derivative of ``f`` along its first axis, written to ``out``, by
    ``np.gradient``'s arithmetic at spacing h: (f[2:] - f[:-2]) / (2h)
    inside, its one-sided formula of order ``edge_order`` at the ends."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    if edge_order == 1:
        np.subtract(f[1], f[0], out=out[0])
        np.subtract(f[-1], f[-2], out=out[-1])
        out[0] /= h
        out[-1] /= h
    else:
        out[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
        out[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]
    return out


def grushin_energy(u: GridFunction3D, alpha) -> float:
    """Dirichlet energy of the degenerate gradient: central differences on
    the raw value array, weighted voxel sum over active cells.  A radial
    profile's energy is ``RadialProfile.dirichlet_energy``.

    The density ux1^2 + ux2^2 + |x|^{2a} uy^2 is filled in one C-ordered
    buffer: ux1^2 over the whole grid, then the other two terms through a
    scratch block of a few x1 slabs.  Each derivative is ``np.gradient``'s
    with edge order 2 (1 when an axis has only 2 cells), term for term in
    the same order, so the energy equals the ``np.gradient`` route's bit
    for bit."""
    a = _alpha(alpha)
    if min(u.dims) < 2:
        raise DomainError(f"grid energies need at least 2 cells per axis, got dims {u.dims}")
    f = u.values
    n1, n2, n3 = u.dims
    order = 2 if min(u.dims) >= 3 else 1
    h1, h2, h3 = (float(h) for h in u.spacing)
    dens = _derivative(f, h1, order, np.empty(u.dims))
    np.square(dens, out=dens)
    weight = u.weight2d(a)[:, :, None]
    step = max(1, _ENERGY_BLOCK_CELLS // (n2 * n3))
    scratch = np.empty((min(step, n1), n2, n3))
    for s in range(0, n1, step):
        block, out = f[s : s + step], dens[s : s + step]
        t = scratch[: len(block)]
        _derivative(block.swapaxes(0, 1), h2, order, t.swapaxes(0, 1))
        out += np.square(t, out=t)
        _derivative(np.moveaxis(block, 2, 0), h3, order, np.moveaxis(t, 2, 0))
        np.square(t, out=t)
        t *= weight[s : s + step]
        out += t
    return u.active_sum(dens) * u.cell_volume


def weighted_lq_norm(u: GridFunction3D, q: float, alpha) -> float:
    """(integral of |x|^{2a} |u|^q)^{1/q} over active cells, the q-th root
    of ``u.power_integral``; a radial profile's norm is
    ``RadialProfile.lq_norm``."""
    return u.power_integral(u.values, q, _alpha(alpha)) ** (1.0 / q)


def polya_szego_gap(u: GridFunction3D, alpha, levels: int = DEFAULT_LEVELS) -> float:
    """energy(u) - energy(u*) on ``levels`` uniform levels, from 2 to
    ``MAX_LEVELS``; nonnegative up to discretisation noise."""
    a = _alpha(alpha)
    profile = rearrange(u, a, levels)
    return grushin_energy(u, a) - profile.dirichlet_energy()
