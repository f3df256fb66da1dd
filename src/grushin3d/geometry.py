"""Weighted geometry of the degenerate metric |x|^{2*alpha} on R^3.

Points are written (x1, x2, y) and |x| = sqrt(x1^2 + x2^2).  The weighted
volume of a bounded open set E is

    vol_w(E) = integral over E of |x|^{2a} dx1 dx2 dy,

its weighted surface area is

    per_w(E) = integral over bd(E) of |x|^a sqrt(nu1^2 + nu2^2 + |x|^{2a} nu3^2) dH^2,

with nu the outward unit normal, and the plane R^2 x {y} is split into
2*n(a) angular sectors of width pi/n(a), where n(a) is the smallest integer
with n(a) >= a + 1.  Among all shapes, the anisotropic ball sector

    B_j = { |x|^{2a+2}/(a+1)^2 + y^2 < 1 } inside sector j

minimises the quotient per^{3/2} / vol at fixed weighted volume; this module
computes all of those quantities numerically and evaluates the corresponding
isoperimetric deficit.

Every shape carries analytic surface patches that cover its boundary, and
it is measured on those patches alone: surface integrals by a tensor
Gauss-Legendre rule over the patches, and volumes through the divergence
identity, as a flux through the same patches.  Each patch axis is cut into
panels at the parameter lines where the integrand has a kink (a sector
wall, or the y-axis piercing the patch, given by ``SurfacePatch.breaks``),
so the rule sees a smooth integrand on every panel and converges
spectrally, not as O(1/m^2) or, across a wall, O(1/m).

The patch nodes are the only samples of a shape that the package takes,
swept with the panels of ``breaks(n)`` at n = n(a): ``measure`` takes the
volume flux, the weighted perimeter and all 2n(a) relative sector
perimeters from one pass over them, classifying every node by sector and
summing each sector with one ``np.bincount`` per block, and
``pushforward_checks`` in ``transform`` also checks on them that the shape
lies in the first sector.  Every sweep draws its nodes from
``_patch_blocks`` a block of whole parameter rows at a time, so patch
quadrature memory is bounded by the block, not by the resolution, and a
function of s alone or of t alone (the sines and cosines of the spherical
and polar patches) runs on m values, not on every node.
A sweep computes each node's polar frame once, r^2 = x1^2 + x2^2, (r^2)^a
(``_radial``), r = hypot(x1, x2) and theta = arctan2(x2, x1) (``_polar``),
and hands it to the flux (``_flux_at``), the density (``_density_at``) and
the sector test (``_sectors``, which the point-based ``sector_index`` wraps).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .grids import _bbox_fault, _count

# fraction of a sector width within which a sample counts as lying on a wall
_WALL_TOL = 1e-12


# work and report size grow linearly in the 2 n(alpha) sectors, so n(alpha)
# is capped: alpha at most MAX_SECTOR_COUNT - 1 = 16383
MAX_SECTOR_COUNT = 2**14


def sector_count(alpha: float) -> int:
    """Smallest positive integer n with n >= alpha + 1; at most
    ``MAX_SECTOR_COUNT``."""
    if not 0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    n = math.ceil(alpha) + 1  # exact; ceil(alpha + 1.0) rounds alpha + 1 first
    if n > MAX_SECTOR_COUNT:
        raise DomainError(f"alpha must be at most {MAX_SECTOR_COUNT - 1}, got {float(alpha)!r}")
    return n


def _alpha(alpha) -> float:
    """``alpha`` as a float, rejected by ``sector_count`` unless it is
    positive, finite and at most ``MAX_SECTOR_COUNT - 1``."""
    a = float(alpha)
    sector_count(a)
    return a


def _wrap_angle(theta):
    """An angle theta in [-pi, pi], as ``arctan2`` gives it, moved to [0, 2 pi].

    Bit for bit ``np.mod(theta, 2 pi)`` on that range, -0 included (both
    give +0), with an add and a select in place of np.mod's division.  The
    one definition of a point's angle from the positive x1-axis.
    """
    return np.where(theta < 0, theta + 2.0 * np.pi, theta + 0.0)


def _polar(points):
    """r = hypot(x1, x2) and theta = arctan2(x2, x1) of points of shape (..., 3)."""
    x1, x2 = points[..., 0], points[..., 1]
    return np.hypot(x1, x2), np.arctan2(x2, x1)


def _sectors(r, theta, n):
    """``sector_index`` of points given by their polar frame (r, theta) for
    n(a) = n."""
    w = _wrap_angle(theta) / (math.pi / n)
    floor = np.floor(w)
    frac = w - floor
    on_wall = (frac <= _WALL_TOL) | (frac >= 1.0 - _WALL_TOL)
    idx = np.clip(floor.astype(int) + 1, 1, 2 * n)
    return np.where((r > 0) & ~on_wall, idx, 0)


def sector_index(points: np.ndarray, alpha) -> np.ndarray:
    """Vectorised sector classification.

    Returns an integer array with the 1-based sector index of each point,
    0 where the point lies on the y-axis or on a sector wall.
    """
    n = sector_count(_alpha(alpha))
    return _sectors(*_polar(np.asarray(points, dtype=float)), n)


# largest surface_resolution: the Gauss rule on m nodes costs O(m^3) to
# build (0.13 s at m = 1024, 0.9 s at 2048), and a sweep's time grows
# like m^2 while its memory stays bounded by the block
MAX_SURFACE_RESOLUTION = 1 << 10

# Gauss nodes per patch axis when a caller gives none
DEFAULT_SURFACE_RESOLUTION = 64


@dataclass(frozen=True)
class SurfacePatch:
    """Analytic parametrisation of one boundary piece.

    ``param(s, t)`` maps parameter arrays s and t that broadcast to a
    common shape to points of shape ``shape + (3,)``; ``cross(s, t)``
    returns, in the same shape, the outward-oriented tangent cross product
    d(param)/ds x d(param)/dt (unnormalised).  Its direction is the unit
    normal and its magnitude the Hausdorff area Jacobian.  Both act node by
    node: a column of s against a row of t gives, bit for bit, the values
    of the flattened node arrays, while a function of s alone runs once per
    row.  ``_stack`` assembles the result from broadcast components.
    Quadrature nodes on the patch come from ``_patch_blocks`` alone.

    ``breaks(n)`` returns (s values, t values): the parameter lines on
    which the y-axis pierces the patch or a sector wall of n(a) = n lies;
    by default there are none.  Every sweep passes its n(a).  A sweep cuts
    each axis into Gauss panels there; values outside the open parameter
    range are ignored.
    """

    param: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cross: Callable[[np.ndarray, np.ndarray], np.ndarray]
    s_range: tuple[float, float]
    t_range: tuple[float, float]
    breaks: Callable[[int], tuple[Sequence[float], Sequence[float]]] = lambda n: ((), ())


def _stack(s, t, x, y, z) -> np.ndarray:
    """Components x, y and z, each broadcast against the parameters s and
    t, stacked into an array of shape ``broadcast(s, t).shape + (3,)``."""
    return np.stack(np.broadcast_arrays(s, t, x, y, z)[2:], axis=-1)


@dataclass(frozen=True)
class ImplicitShape:
    """Bounded open set E = {level < 0} inside an axis-aligned bbox, whose
    entries and extents must be finite.

    ``level`` must be vectorised: (m, 3) points -> (m,) values, negative
    strictly inside, positive strictly outside.  ``patches`` is required
    and must cover the whole of bd(E), outward oriented: the weighted
    perimeter, the divergence-identity volume and the sector containment
    check of ``pushforward_checks`` read them alone, so a missing piece
    silently falsifies each.  ``sector`` marks shapes contained in the
    closure of one angular sector; for those the isoperimetric quotient
    uses the relative (wall-free) perimeter.
    """

    level: Callable[[np.ndarray], np.ndarray]
    bbox: np.ndarray  # shape (3, 2)
    patches: Sequence[SurfacePatch]
    sector: Optional[int] = None
    name: str = "shape"

    def __post_init__(self):
        bbox = np.asarray(self.bbox, dtype=float).reshape(3, 2)
        object.__setattr__(self, "bbox", bbox)
        fault = _bbox_fault(bbox)
        if fault:
            raise DomainError(f"shape {self.name!r}: {fault} {bbox.tolist()}")
        if not self.patches:
            raise DomainError(f"shape {self.name!r} carries no surface patches")


def _radial(points, alpha: float):
    """r^2 = x1^2 + x2^2 and (r^2)^a of points of shape (N, 3)."""
    r2 = points[:, 0] ** 2 + points[:, 1] ** 2
    return r2, r2**alpha


def _flux_at(points, normals, r2a, alpha: float):
    """|x|^{2a} (x1 nu1 + x2 nu2) / (2a + 2) given (r^2)^a of the points: its
    flux through bd(E) is vol_w(E), as div(|x|^{2a} (x1, x2, 0)) =
    (2a + 2) |x|^{2a}."""
    return r2a * (points[:, 0] * normals[:, 0] + points[:, 1] * normals[:, 1]) / (2.0 * alpha + 2.0)


def _density_at(normals, r2, r2a, alpha: float):
    """Weighted surface density |x|^a sqrt(nu1^2 + nu2^2 + |x|^{2a} nu3^2)
    given r^2 and (r^2)^a of the points."""
    return r2 ** (alpha / 2.0) * np.sqrt(normals[:, 0] ** 2 + normals[:, 1] ** 2 + r2a * normals[:, 2] ** 2)


# patch nodes per block: a block takes max(1, 32768 // mt) whole s-rows of
# mt nodes each, at most max(32768, mt) nodes whatever m, so blocks bound a
# sweep's memory at any resolution, and the partial sums follow the rows
_PATCH_BLOCK = 1 << 15


@functools.lru_cache(maxsize=64)
def _gauss_rule(q: int):
    """Gauss-Legendre nodes and weights of q points on [-1, 1], read-only
    as every sweep shares them."""
    x, w = np.polynomial.legendre.leggauss(q)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_axis(lo: float, hi: float, cuts, m: int):
    """Gauss nodes and weights on [lo, hi] cut into panels at the ``cuts``
    inside it: each of the k panels takes ceil(m / k) nodes, at most
    m + k - 1 in all, and no node lies on a cut."""
    edges = np.array([lo, *sorted({float(c) for c in cuts if lo < c < hi}), hi])
    x, w = _gauss_rule(-(-m // (len(edges) - 1)))
    mid, half = (edges[1:] + edges[:-1])[:, None] / 2.0, np.diff(edges)[:, None] / 2.0
    return (mid + half * x).ravel(), (half * w).ravel()


def _patch_blocks(shape: ImplicitShape, surface_resolution: int, n: int):
    """Gauss nodes of the shape's patches, a block of whole rows at a time.

    ``surface_resolution`` is m, the Gauss nodes per patch axis, a count
    from 1 to ``MAX_SURFACE_RESOLUTION``, checked once per sweep before the
    first block.  Each patch axis is cut into panels at the patch's
    ``breaks(n)`` (``_panel_axis``), so an axis of ms or mt nodes has at
    most m + k - 1 of them.  Node k of a patch sits at (s_k, t_k) =
    (s_ax[k // mt], t_ax[k % mt]).  A block is max(1, 32768 // mt)
    consecutive rows of s against the whole t axis, at most
    max(32768, mt) nodes, so memory stays bounded at any resolution.  This
    is the one place that turns a patch into nodes.  Yields (points, unit
    normals, weighted area elements) per (patch, block), in patch order,
    the Gauss weights folded into the area element; nodes whose area
    element vanishes are dropped.
    """
    m = _count(surface_resolution, "surface_resolution", 1, MAX_SURFACE_RESOLUTION)
    for patch in shape.patches:
        s_cuts, t_cuts = patch.breaks(n)
        s_ax, s_w = _panel_axis(*patch.s_range, s_cuts, m)
        t_ax, t_w = _panel_axis(*patch.t_range, t_cuts, m)
        t_row = t_ax[None, :]
        rows = max(1, _PATCH_BLOCK // len(t_ax))
        for i0 in range(0, len(s_ax), rows):
            s_col = s_ax[i0 : i0 + rows, None]
            pts = patch.param(s_col, t_row).reshape(-1, 3)
            cross = patch.cross(s_col, t_row).reshape(-1, 3)
            weight = (s_w[i0 : i0 + rows, None] * t_w).reshape(-1)
            # the sum np.linalg.norm would reduce, in its order, without its
            # generic-reduction overhead
            c0, c1, c2 = cross.T
            area = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
            ok = area > 0
            if not ok.all():  # masking copies every array, so only when needed
                pts, cross, area, weight = pts[ok], cross[ok], area[ok], weight[ok]
            yield pts, cross / area[:, None], area * weight


def _sweep(shape: ImplicitShape, surface_resolution: int, partials, n: int) -> list[float]:
    """One sweep of the shape's patch nodes, panels cut at the breaks of
    n(a) = n.  ``partials(points, unit normals, weighted area elements)``
    gives a sequence of sums over one block, added to the running sums in
    block order.  A block's arrays die before the next block's are made,
    so a sweep holds one block and one row of sums (2n(a) + 2 in
    ``measure``) at a time."""
    total = 0.0
    for block in _patch_blocks(shape, surface_resolution, n):
        total = total + np.asarray(partials(*block), dtype=float)
    return total.tolist()


def _sector_sums(keys, vals, n: int):
    """Sums of ``vals`` over the nodes of each sector 1..2n (``keys`` from
    ``_sectors``), each in node order."""
    return np.bincount(keys, weights=vals, minlength=2 * n + 1)[1:]


@dataclass(frozen=True)
class Measures:
    """Weighted volume vol_w(E), weighted perimeter per_w(E) and the relative
    perimeter of each sector.

    ``sectors[j - 1]`` is the weighted area of bd(E) strictly inside the open
    sector j; boundary on a sector wall or on the y-axis counts in
    ``perimeter`` only.
    """

    volume: float
    perimeter: float
    sectors: tuple[float, ...]


def measure(shape: ImplicitShape, alpha, surface_resolution: int = DEFAULT_SURFACE_RESOLUTION) -> Measures:
    """Weighted volume, weighted perimeter and all 2n(a) sector perimeters
    from one sweep of the shape's patch nodes, panels cut at the sector
    walls.

    The volume is the flux of ``_flux_at``.  Each (patch, block) gives
    one partial to the volume, the perimeter and every sector, from one
    polar frame per node.
    """
    a = _alpha(alpha)
    n = sector_count(a)

    def partials(pts, nu, weight):
        r2, r2a = _radial(pts, a)
        vals = _density_at(nu, r2, r2a, a) * weight
        sectors = _sector_sums(_sectors(*_polar(pts), n), vals, n)
        return np.concatenate(([np.sum(_flux_at(pts, nu, r2a, a) * weight), np.sum(vals)], sectors))

    volume, perimeter, *sectors = _sweep(shape, surface_resolution, partials, n)
    return Measures(volume, perimeter, tuple(sectors))


# ---------------------------------------------------------------------------
# reference ball sector and the isoperimetric comparison


@dataclass(frozen=True)
class ReferenceBallValues:
    """Closed-form weighted measures of the unit reference ball sector."""

    volume: float
    sector_perimeter: float


def reference_ball_values(alpha) -> ReferenceBallValues:
    a = _alpha(alpha)
    n = sector_count(a)
    return ReferenceBallValues(
        volume=2.0 * math.pi * (a + 1.0) / (3.0 * n),
        sector_perimeter=2.0 * (a + 1.0) * math.pi / n,
    )


def reference_quotient(alpha) -> float:
    """Sharp lower bound 3 sqrt(2 pi (a+1) / n(a)) of the isoperimetric quotient."""
    vals = reference_ball_values(alpha)
    return vals.sector_perimeter**1.5 / vals.volume


def isoperimetric_quotient(
    shape: ImplicitShape, alpha, surface_resolution: int = DEFAULT_SURFACE_RESOLUTION
) -> float:
    """per_w(E)^{3/2} / vol_w(E).

    For shapes marked as contained in one sector the relative perimeter
    (sector walls excluded) enters the quotient; that is the quantity the
    sharp sector comparison bounds from below.
    """
    return _quotient(shape, measure(shape, alpha, surface_resolution))


def _quotient(shape: ImplicitShape, measures: Measures) -> float:
    """per^{3/2} / vol for measures already taken; rejects a zero volume."""
    if measures.volume <= 0.0:
        raise DomainError(f"shape {shape.name!r} has zero weighted volume")
    return _quotient_perimeter(shape, measures) ** 1.5 / measures.volume


def _quotient_perimeter(shape: ImplicitShape, measures: Measures) -> float:
    """The perimeter that enters the quotient: the relative perimeter of a
    sector shape's sector, any other shape's whole weighted perimeter."""
    if shape.sector is None:
        return measures.perimeter
    return measures.sectors[_count(shape.sector, "sector index", 1, len(measures.sectors)) - 1]


def isoperimetric_deficit(
    shape: ImplicitShape, alpha, surface_resolution: int = DEFAULT_SURFACE_RESOLUTION
) -> float:
    """Quotient of the shape minus the sharp reference value (>= 0 in theory)."""
    return isoperimetric_quotient(shape, alpha, surface_resolution) - reference_quotient(alpha)


def anisotropic_scale(shape: ImplicitShape, lam: float, alpha) -> ImplicitShape:
    """Image of the shape under (x1, x2, y) -> (lam x1, lam x2, lam^{a+1} y).

    Weighted volume scales by lam^{3a+3} and weighted perimeter by
    lam^{2a+2}; the isoperimetric quotient is invariant.
    """
    if not lam > 0:
        raise DomainError(f"scale factor must be positive, got {lam}")
    a = _alpha(alpha)
    lam = float(lam)
    lam_y = lam ** (a + 1.0)
    scale = np.array([lam, lam, lam_y])
    inv = 1.0 / scale
    level = shape.level

    def scaled_level(pts):
        return level(np.asarray(pts, dtype=float) * inv)

    # tangent cross products transform by the cofactor matrix of diag(scale)
    cof = np.array([lam * lam_y, lam * lam_y, lam * lam])
    return ImplicitShape(
        level=scaled_level,
        bbox=shape.bbox * scale[:, None],
        patches=[_scale_patch(p, scale, cof) for p in shape.patches],
        sector=shape.sector,
        name=f"{shape.name}*scale({lam:g})",
    )


def _scale_patch(patch: SurfacePatch, scale, cof) -> SurfacePatch:
    # equal scales of x1 and x2 keep every node's angle, so the breaks stay
    param, cross = patch.param, patch.cross
    return replace(patch, param=lambda s, t: param(s, t) * scale, cross=lambda s, t: cross(s, t) * cof)
