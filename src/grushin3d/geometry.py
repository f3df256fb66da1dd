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
it is measured on those patches alone: surface integrals by midpoint
quadrature over the patches, and volumes through the divergence identity,
as a flux through the same patches.

A command sweeps the boundary once: ``measure`` takes the volume flux, the
weighted perimeter and all 2n(a) relative sector perimeters from one pass
over the patch nodes, classifying every node by sector as it goes.  Every
patch sweep in the package, here and in ``transform`` and ``pohozaev``,
draws its nodes from ``_patch_blocks``, which builds them block by block,
so patch quadrature memory is bounded by the block, not by the resolution.
A block is evaluated on the product of the parameter rows it spans and the
whole t axis, so a function of s alone or of t alone (the sines and cosines
of the spherical and polar patches) runs on m values, not on every node.
A sweep computes each node's polar frame once, r^2 = x1^2 + x2^2, (r^2)^a
(``_radial``), r = hypot(x1, x2) and theta = arctan2(x2, x1) (``_polar``),
and hands it to the flux, the density and the sector test; the point-based
``sector_index``, ``_volume_flux`` and ``_area_integrand`` wrap the same
kernels, so each node value has the same bits on either route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


# largest surface_resolution: m^2 = 2^28 nodes per patch in 8192 blocks; a
# sweep's memory is bounded but its time grows like m^2
_MAX_SURFACE_RESOLUTION = 1 << 14


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
    """

    param: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cross: Callable[[np.ndarray, np.ndarray], np.ndarray]
    s_range: tuple[float, float]
    t_range: tuple[float, float]


def _stack(s, t, x, y, z) -> np.ndarray:
    """Components x, y and z, each broadcast against the parameters s and
    t, stacked into an array of shape ``broadcast(s, t).shape + (3,)``."""
    return np.stack(np.broadcast_arrays(s, t, x, y, z)[2:], axis=-1)


@dataclass(frozen=True)
class ImplicitShape:
    """Bounded open set E = {level < 0} inside an axis-aligned bbox, whose
    entries and extents must be finite.

    ``level`` must be vectorised: (m, 3) points -> (m,) values, negative
    strictly inside, positive strictly outside; containment checks sample
    it.  ``patches`` is required and must cover the whole of bd(E),
    outward oriented: the weighted perimeter and the divergence-identity
    volume are both computed from them alone, so a missing piece silently
    falsifies both.  ``sector`` marks shapes contained in the closure of
    one angular sector; for those the isoperimetric quotient uses the
    relative (wall-free) perimeter.
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
    """``_volume_flux`` given (r^2)^a of the points."""
    return r2a * (points[:, 0] * normals[:, 0] + points[:, 1] * normals[:, 1]) / (2.0 * alpha + 2.0)


def _density_at(normals, r2, r2a, alpha: float):
    """``_area_integrand`` given r^2 and (r^2)^a of the points."""
    return r2 ** (alpha / 2.0) * np.sqrt(normals[:, 0] ** 2 + normals[:, 1] ** 2 + r2a * normals[:, 2] ** 2)


def _volume_flux(alpha: float):
    """|x|^{2a} (x1 nu1 + x2 nu2) / (2a + 2), whose flux through bd(E) is
    vol_w(E), as div(|x|^{2a} (x1, x2, 0)) = (2a + 2) |x|^{2a}."""

    def flux(points, normals):
        return _flux_at(points, normals, _radial(points, alpha)[1], alpha)

    return flux


def _area_integrand(alpha: float):
    """Weighted surface density |x|^a sqrt(nu1^2 + nu2^2 + |x|^{2a} nu3^2)."""

    def integrand(points, normals):
        return _density_at(normals, *_radial(points, alpha), alpha)

    return integrand


# midpoint nodes per patch block; blocks cut the patch's flat node order (s
# slowest) every 32768 nodes whatever m, so they bound a sweep's memory at
# any resolution, and the partial sums follow the cuts
_PATCH_BLOCK = 1 << 15


def _patch_blocks(shape: ImplicitShape, surface_resolution: int):
    """Midpoint nodes of the shape's patches, one block of 32768 at a time.

    ``surface_resolution`` is m, the midpoint nodes per patch axis, a count
    from 1 to ``_MAX_SURFACE_RESOLUTION``, checked once per sweep before the
    first block.  Node k of an m x m patch sits at (s_k, t_k) =
    (s_ax[k // m], t_ax[k % m]) on the cell-centre axes.  Each block is the
    range of k from one cut to the next; it is evaluated on the rows of s
    it spans against the whole t axis, at most 32768 + 2(m - 1) nodes, then
    cut out, so memory stays O(block + m) at any resolution.  This is the
    one place that turns a patch into nodes.  Yields (points, unit normals,
    area elements, ds*dt) per (patch, block), in patch order; nodes whose
    area element vanishes are dropped.
    """
    m = _count(surface_resolution, "surface_resolution", 1, _MAX_SURFACE_RESOLUTION)
    for patch in shape.patches:
        (s0, s1), (t0, t1) = patch.s_range, patch.t_range
        ds, dt = (s1 - s0) / m, (t1 - t0) / m
        s_ax = s0 + (np.arange(m) + 0.5) * ds
        t_row = (t0 + (np.arange(m) + 0.5) * dt)[None, :]
        for start in range(0, m * m, _PATCH_BLOCK):
            stop = min(start + _PATCH_BLOCK, m * m)
            i0, i1 = start // m, -(-stop // m)
            s_col = s_ax[i0:i1, None]
            cut = slice(start - i0 * m, stop - i0 * m)
            pts = patch.param(s_col, t_row).reshape(-1, 3)[cut]
            cross = patch.cross(s_col, t_row).reshape(-1, 3)[cut]
            # the sum np.linalg.norm would reduce, in its order, without its
            # generic-reduction overhead
            c0, c1, c2 = cross.T
            area = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
            ok = area > 0
            if not ok.all():  # masking copies every array, so only when needed
                pts, cross, area = pts[ok], cross[ok], area[ok]
            yield pts, cross / area[:, None], area, ds * dt


def _sweep(shape: ImplicitShape, surface_resolution: int, partials) -> list[float]:
    """One sweep of the shape's patch nodes.  ``partials(points, unit
    normals, area elements)`` gives a sequence of sums over one block; each
    is scaled by ds*dt, and each entry's partials are reduced in block
    order.  A block's arrays die before the next block's are made."""
    blocks = _patch_blocks(shape, surface_resolution)
    rows = [[float(v) * dst for v in partials(pts, nu, area)] for pts, nu, area, dst in blocks]
    return [float(np.sum(col)) for col in zip(*rows)]


def patch_surface_integral(shape: ImplicitShape, integrand, surface_resolution: int = 256) -> float:
    """Sum of integrand(points, unit normals) * dH^2 over the shape's patches."""
    (total,) = _sweep(shape, surface_resolution, lambda pts, nu, area: [np.sum(integrand(pts, nu) * area)])
    return total


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


def measure(shape: ImplicitShape, alpha, surface_resolution: int = 256) -> Measures:
    """Weighted volume, weighted perimeter and all 2n(a) sector perimeters
    from one sweep of the shape's patch midpoints.

    The volume is the flux of ``_volume_flux``.  Each (patch, block) gives
    one partial to the volume, the perimeter and every sector, from one
    polar frame per node.
    """
    a = _alpha(alpha)
    n = sector_count(a)
    needles = np.arange(1, 2 * n + 1, dtype=np.uint16)

    def partials(pts, nu, area):
        r2, r2a = _radial(pts, a)
        volume = np.sum(_flux_at(pts, nu, r2a, a) * area)
        vals = _density_at(nu, r2, r2a, a) * area
        # sector keys run to 2n <= 2 MAX_SECTOR_COUNT = 2^15, so they fit
        # uint16, which numpy sorts by radix: the stable permutation of the
        # int64 keys.  It keeps each sector's nodes in block order, as a
        # mask would
        keys = _sectors(*_polar(pts), n).astype(np.uint16)
        order = np.argsort(keys, kind="stable")
        parts = np.split(vals[order], np.searchsorted(keys[order], needles))[1:]
        return [volume, np.sum(vals), *map(np.sum, parts)]

    volume, perimeter, *sectors = _sweep(shape, surface_resolution, partials)
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


def isoperimetric_quotient(shape: ImplicitShape, alpha, surface_resolution: int = 256) -> float:
    """per_w(E)^{3/2} / vol_w(E).

    For shapes marked as contained in one sector the relative perimeter
    (sector walls excluded) enters the quotient; that is the quantity the
    sharp sector comparison bounds from below.
    """
    return _quotient(shape, measure(shape, alpha, surface_resolution))


def _quotient(shape: ImplicitShape, measures: Measures) -> float:
    """per^{3/2} / vol for measures already taken; rejects a zero volume.

    A sector shape enters through the relative perimeter of its sector, any
    other shape through its whole weighted perimeter.
    """
    vol, n = measures.volume, len(measures.sectors)
    if vol <= 0.0:
        raise DomainError(f"shape {shape.name!r} has zero weighted volume")
    if shape.sector is None:
        return measures.perimeter**1.5 / vol
    return measures.sectors[_count(shape.sector, "sector index", 1, n) - 1] ** 1.5 / vol


def isoperimetric_deficit(shape: ImplicitShape, alpha, surface_resolution: int = 256) -> float:
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
    param, cross = patch.param, patch.cross
    return SurfacePatch(
        param=lambda s, t: param(s, t) * scale,
        cross=lambda s, t: cross(s, t) * cof,
        s_range=patch.s_range,
        t_range=patch.t_range,
    )
