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

Shapes that carry analytic surface patches are measured on those patches
alone: surface integrals by midpoint quadrature over the patches, and
volumes through the divergence identity, as a flux through the same
patches.  Every corpus shape and its flattened image carry patches.
Shapes without patches (user level sets) fall back to marching-tetrahedra
triangulation for surface integrals and to cell-centred voxel sums with
recursive subdivision of boundary-crossing cells for volumes;
``voxel_integral`` is also the independent cross-check of the patch route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ComputationError, DomainError
from .grids import CellGrid

__all__ = [
    "AlphaParam",
    "SurfacePatch",
    "ImplicitShape",
    "QuadratureConfig",
    "sector_count",
    "sector_of_point",
    "sector_index",
    "weighted_volume",
    "weighted_volume_from_patches",
    "weighted_perimeter",
    "sector_perimeter",
    "reference_ball",
    "reference_quotient",
    "isoperimetric_quotient",
    "isoperimetric_deficit",
    "anisotropic_scale",
]

# fraction of a sector width within which a sample counts as lying on a wall
_WALL_TOL = 1e-12


def sector_count(alpha: float) -> int:
    """Smallest positive integer n with n >= alpha + 1."""
    if not 0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    return int(math.ceil(alpha + 1.0))


@dataclass(frozen=True)
class AlphaParam:
    """Degeneracy exponent together with its derived sector count."""

    alpha: float
    sector_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sector_count", sector_count(self.alpha))

    @property
    def sector_width(self) -> float:
        return math.pi / self.sector_count

    @property
    def num_sectors(self) -> int:
        return 2 * self.sector_count


def _as_alpha(alpha) -> AlphaParam:
    return alpha if isinstance(alpha, AlphaParam) else AlphaParam(float(alpha))


def sector_index(points: np.ndarray, alpha) -> np.ndarray:
    """Vectorised sector classification.

    Returns an integer array with the 1-based sector index of each point,
    0 where the point lies on the y-axis or on a sector wall.
    """
    ap = _as_alpha(alpha)
    pts = np.asarray(points, dtype=float)
    x1, x2 = pts[..., 0], pts[..., 1]
    r = np.hypot(x1, x2)
    theta = np.mod(np.arctan2(x2, x1), 2.0 * np.pi)
    w = theta / ap.sector_width
    frac = w - np.floor(w)
    on_wall = (frac <= _WALL_TOL) | (frac >= 1.0 - _WALL_TOL)
    idx = np.floor(w).astype(int) + 1
    idx = np.clip(idx, 1, ap.num_sectors)
    return np.where((r > 0) & ~on_wall, idx, 0)


def sector_of_point(p, alpha) -> Optional[int]:
    """Sector index of a single point, or None on walls / the y-axis."""
    j = int(sector_index(np.asarray(p, dtype=float)[None, :], alpha)[0])
    return j if j > 0 else None


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs for voxel and patch quadrature.

    ``surface_resolution`` sets the patch route; ``volume_resolution`` and
    ``refine_depth`` only the voxel and triangulation routes of patch-free
    shapes, which no CLI command reaches.  Boundary refinement and patch
    sums run in fixed-size chunks, which bounds memory; their partial sums
    are reduced in chunk order.  A refinement chunk holds 30k boundary
    cells (``_REFINE_CHUNK``), each expanded to 27 corner points.
    """

    volume_resolution: int = 128
    surface_resolution: int = 256
    refine_depth: int = 3

    def __post_init__(self):
        if min(self.volume_resolution, self.surface_resolution) < 1:
            raise DomainError("quadrature resolutions must be positive")
        if not 0 <= self.refine_depth <= 8:
            raise DomainError("refine_depth must lie in 0..8")


@dataclass(frozen=True)
class SurfacePatch:
    """Analytic parametrisation of one boundary piece.

    ``param`` maps an (m, 2) array of (s, t) parameters to (m, 3) points;
    ``cross`` returns the outward-oriented tangent cross product
    d(param)/ds x d(param)/dt (unnormalised).  Its direction is the unit
    normal and its magnitude the Hausdorff area Jacobian.
    """

    param: Callable[[np.ndarray], np.ndarray]
    cross: Callable[[np.ndarray], np.ndarray]
    s_range: tuple[float, float]
    t_range: tuple[float, float]

    def normal(self, st: np.ndarray) -> np.ndarray:
        c = self.cross(np.asarray(st, dtype=float))
        return c / np.linalg.norm(c, axis=-1, keepdims=True)

    def area_element(self, st: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.cross(np.asarray(st, dtype=float)), axis=-1)

    def midpoint_nodes(self, m: int):
        """Product-midpoint nodes and the constant cell weight ds*dt."""
        s0, s1 = self.s_range
        t0, t1 = self.t_range
        ds, dt = (s1 - s0) / m, (t1 - t0) / m
        s = s0 + (np.arange(m) + 0.5) * ds
        t = t0 + (np.arange(m) + 0.5) * dt
        S, T = np.meshgrid(s, t, indexing="ij")
        return np.column_stack([S.ravel(), T.ravel()]), ds * dt


@dataclass(frozen=True)
class ImplicitShape:
    """Bounded open set E = {level < 0} inside an axis-aligned bbox.

    ``level`` must be vectorised: (m, 3) points -> (m,) values, negative
    strictly inside, positive strictly outside.  ``patches``, when given,
    must cover the whole of bd(E), outward oriented: the weighted perimeter
    and the divergence-identity volume are both computed from them alone,
    so a missing piece silently falsifies both.  ``sector`` marks shapes
    contained in the closure of one angular sector; for those the
    isoperimetric quotient uses the relative (wall-free) perimeter.
    """

    level: Callable[[np.ndarray], np.ndarray]
    bbox: np.ndarray  # shape (3, 2)
    patches: Optional[Sequence[SurfacePatch]] = None
    sector: Optional[int] = None
    name: str = "shape"

    def __post_init__(self):
        bbox = np.asarray(self.bbox, dtype=float).reshape(3, 2)
        object.__setattr__(self, "bbox", bbox)
        if not np.all(bbox[:, 1] > bbox[:, 0]):
            raise DomainError(f"degenerate bbox {bbox.tolist()}")


def _weight_of(alpha: float):
    def weight(x1, x2):
        return (x1 * x1 + x2 * x2) ** alpha

    return weight


# boundary cells refined together; 27 corner points and the level
# function's temporaries per cell set the voxel engine's peak memory
_REFINE_CHUNK = 30_000

_SUBCELLS = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
_CORNERS27 = np.array(
    [[i, j, k] for i in range(3) for j in range(3) for k in range(3)], dtype=float
)


def _refine_chunk(level, weight, origins, h, depth, chunk=_REFINE_CHUNK):
    """Weighted volume carried by boundary-crossing cells of edge h.

    Recursively splits cells into octants down to ``depth``; the deepest
    generation is resolved by a centre-point membership test.
    """
    total = 0.0
    for s in range(0, len(origins), chunk):
        o = origins[s : s + chunk]
        if depth == 0:
            ctr = o + 0.5 * h
            ctr = ctr[level(ctr) < 0]
            total += float(np.sum(weight(ctr[:, 0], ctr[:, 1]))) * float(h.prod())
            continue
        h2 = h / 2.0
        corners = (o[:, None, :] + (_CORNERS27 * h2)[None, :, :]).reshape(-1, 3)
        neg = (level(corners) < 0).reshape(len(o), 3, 3, 3)
        carry = []
        subvol = float(h2.prod())
        for so in _SUBCELLS:
            cnt = np.zeros(len(o), dtype=np.int8)
            for di in (0, 1):
                for dj in (0, 1):
                    for dk in (0, 1):
                        cnt += neg[:, so[0] + di, so[1] + dj, so[2] + dk]
            ins = cnt == 8
            cro = (cnt > 0) & (cnt < 8)
            if ins.any():
                ctr = o[ins] + (so + 0.5) * h2
                total += float(np.sum(weight(ctr[:, 0], ctr[:, 1]))) * subvol
            if cro.any():
                carry.append(o[cro] + so * h2)
        if carry:
            total += _refine_chunk(level, weight, np.concatenate(carry), h2, depth - 1, chunk)
    return total


def _refine_crossed(level, weight, origins, h, depth, chunk=_REFINE_CHUNK):
    partials = [
        _refine_chunk(level, weight, origins[s : s + chunk], h, depth, chunk) for s in range(0, len(origins), chunk)
    ]
    return float(np.sum(partials)) if partials else 0.0


def voxel_integral(level, bbox, weight, cfg: QuadratureConfig) -> float:
    """integral over {level < 0} of weight(x1, x2), by refined voxel sums.

    The weight may only depend on (x1, x2); that keeps the bulk term a 2D
    weight array contracted against per-column inside counts, which is what
    makes volume_resolution = 128 affordable.
    """
    n = cfg.volume_resolution
    cells = CellGrid(bbox, (n, n, n))
    lo, hs = cells.bbox[:, 0], cells.spacing

    # corner sign grid, filled in slabs to bound memory
    neg = np.empty((n + 1, n + 1, n + 1), dtype=bool)
    c1 = lo[0] + np.arange(n + 1) * hs[0]
    c2 = lo[1] + np.arange(n + 1) * hs[1]
    c3 = lo[2] + np.arange(n + 1) * hs[2]
    C2, C3 = np.meshgrid(c2, c3, indexing="ij")
    slab = max(1, int(2e6 // ((n + 1) * (n + 1))))
    for s in range(0, n + 1, slab):
        e = min(n + 1, s + slab)
        pts = np.empty((e - s, n + 1, n + 1, 3))
        pts[..., 0] = c1[s:e, None, None]
        pts[..., 1] = C2[None]
        pts[..., 2] = C3[None]
        neg[s:e] = (level(pts.reshape(-1, 3)) < 0).reshape(e - s, n + 1, n + 1)
        del pts  # one slab of points alive at a time

    cnt = np.zeros((n, n, n), dtype=np.int8)
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                cnt += neg[di : n + di, dj : n + dj, dk : n + dk]
    del neg

    inside_cols = (cnt == 8).sum(axis=2)
    w2d = weight(cells.axis_centers(0)[:, None], cells.axis_centers(1)[None, :])
    total = float(np.sum(w2d * inside_cols)) * float(hs.prod())

    crossed = (cnt > 0) & (cnt < 8)
    del cnt
    origins = lo + np.argwhere(crossed).astype(float) * hs
    del crossed
    total += _refine_crossed(level, weight, origins, hs, cfg.refine_depth)
    return total


def weighted_volume(shape: ImplicitShape, alpha, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Weighted volume vol_w(E).

    Uses the divergence identity on the shape's analytic patches when
    present (``weighted_volume_from_patches``; ``volume_resolution`` and
    ``refine_depth`` play no part), otherwise boundary-refined voxel
    quadrature of the level set (``voxel_integral``).
    """
    ap = _as_alpha(alpha)
    if shape.patches:
        return weighted_volume_from_patches(shape, ap, cfg)
    return voxel_integral(shape.level, shape.bbox, _weight_of(ap.alpha), cfg)


def _area_integrand(alpha: float):
    """Weighted surface density |x|^a sqrt(nu1^2 + nu2^2 + |x|^{2a} nu3^2)."""

    def integrand(points, normals):
        r2 = points[:, 0] ** 2 + points[:, 1] ** 2
        return r2 ** (alpha / 2.0) * np.sqrt(
            normals[:, 0] ** 2 + normals[:, 1] ** 2 + r2**alpha * normals[:, 2] ** 2
        )

    return integrand


def patch_surface_integral(
    shape: ImplicitShape,
    integrand,
    cfg: QuadratureConfig,
    sector_filter: Optional[tuple[int, AlphaParam]] = None,
) -> float:
    """Sum of integrand(points, unit normals) * dH^2 over the shape's patches.

    With ``sector_filter = (j, alpha)`` only samples strictly inside sector j
    contribute; samples on walls are discarded.
    """
    if not shape.patches:
        raise ComputationError(f"shape {shape.name!r} carries no surface patches")

    partials = []
    block = 1 << 15
    for patch in shape.patches:
        nodes, dst = patch.midpoint_nodes(cfg.surface_resolution)
        for s in range(0, len(nodes), block):
            st = nodes[s : s + block]
            pts = patch.param(st)
            cross = patch.cross(st)
            area = np.linalg.norm(cross, axis=-1)
            ok = area > 0
            pts, cross, area = pts[ok], cross[ok], area[ok]
            normals = cross / area[:, None]
            vals = integrand(pts, normals) * area
            if sector_filter is not None:
                j, ap = sector_filter
                vals = vals[sector_index(pts, ap) == j]
            partials.append(float(np.sum(vals)) * dst)
    return float(np.sum(partials))


def _triangulated_perimeter(shape, ap, cfg, sector_j=None):
    from .triangulate import marching_tetrahedra

    centroids, areas, normals = marching_tetrahedra(
        shape.level, shape.bbox, cfg.volume_resolution
    )
    if len(areas) == 0:
        return 0.0
    vals = _area_integrand(ap.alpha)(centroids, normals) * areas
    if sector_j is not None:
        vals = vals[sector_index(centroids, ap) == sector_j]
    return float(np.sum(vals))


def weighted_perimeter(shape: ImplicitShape, alpha, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Weighted surface area per_w(E).

    Uses the shape's analytic patches when present, otherwise a
    marching-tetrahedra triangulation of the level set.
    """
    ap = _as_alpha(alpha)
    if shape.patches:
        return patch_surface_integral(shape, _area_integrand(ap.alpha), cfg)
    return _triangulated_perimeter(shape, ap, cfg)


def sector_perimeter(shape: ImplicitShape, alpha, j: int, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Weighted area of bd(E) restricted to the open sector j (walls excluded)."""
    ap = _as_alpha(alpha)
    if not 1 <= j <= ap.num_sectors:
        raise DomainError(f"sector index {j} outside 1..{ap.num_sectors}")
    if shape.patches:
        return patch_surface_integral(shape, _area_integrand(ap.alpha), cfg, sector_filter=(j, ap))
    return _triangulated_perimeter(shape, ap, cfg, sector_j=j)


def weighted_volume_from_patches(shape: ImplicitShape, alpha, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Weighted volume through the divergence identity.

    div(|x|^{2a} (x1, x2, 0)) = (2a + 2) |x|^{2a}, so the weighted volume
    equals the flux of |x|^{2a} (x1, x2, 0) / (2a + 2) through bd(E).
    The route ``weighted_volume`` takes for every shape with patches; the
    voxel engine (``voxel_integral``) is its independent cross-check.
    """
    ap = _as_alpha(alpha)
    a = ap.alpha

    def flux(points, normals):
        r2 = points[:, 0] ** 2 + points[:, 1] ** 2
        return (
            r2**a
            * (points[:, 0] * normals[:, 0] + points[:, 1] * normals[:, 1])
            / (2.0 * a + 2.0)
        )

    return patch_surface_integral(shape, flux, cfg)


# ---------------------------------------------------------------------------
# reference ball sector and the isoperimetric comparison


@dataclass(frozen=True)
class ReferenceBallValues:
    """Closed-form weighted measures of the unit reference ball sector."""

    volume: float
    sector_perimeter: float


def reference_ball_values(alpha) -> ReferenceBallValues:
    ap = _as_alpha(alpha)
    a, n = ap.alpha, ap.sector_count
    return ReferenceBallValues(
        volume=2.0 * math.pi * (a + 1.0) / (3.0 * n),
        sector_perimeter=2.0 * (a + 1.0) * math.pi / n,
    )


def reference_ball(alpha, j: int = 1):
    """The unit anisotropic ball sector B_j plus its analytic measures.

    B_j = { |x|^{2a+2}/(a+1)^2 + y^2 < 1 } intersected with sector j.  The
    shape is returned with analytic patches (curved cap plus two flat walls).
    """
    from .shapes import ball_sector

    ap = _as_alpha(alpha)
    if not 1 <= j <= ap.num_sectors:
        raise DomainError(f"sector index {j} outside 1..{ap.num_sectors}")
    return ball_sector(ap, j), reference_ball_values(ap)


def reference_quotient(alpha) -> float:
    """Sharp lower bound 3 sqrt(2 pi (a+1) / n(a)) of the isoperimetric quotient."""
    vals = reference_ball_values(alpha)
    return vals.sector_perimeter**1.5 / vals.volume


def isoperimetric_quotient(shape: ImplicitShape, alpha, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """per_w(E)^{3/2} / vol_w(E).

    For shapes marked as contained in one sector the relative perimeter
    (sector walls excluded) enters the quotient; that is the quantity the
    sharp sector comparison bounds from below.
    """
    vol = weighted_volume(shape, alpha, cfg)
    if shape.sector is not None:
        per = sector_perimeter(shape, alpha, shape.sector, cfg)
    else:
        per = weighted_perimeter(shape, alpha, cfg)
    return _quotient(shape, per, vol)


def _quotient(shape: ImplicitShape, per: float, vol: float) -> float:
    """per^{3/2} / vol for measures already computed; rejects a zero volume.

    ``per`` must be the relative perimeter when ``shape.sector`` is set and
    the full weighted perimeter otherwise.
    """
    if vol <= 0.0:
        raise DomainError(f"shape {shape.name!r} has zero weighted volume")
    return per**1.5 / vol


def isoperimetric_deficit(shape: ImplicitShape, alpha, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Quotient of the shape minus the sharp reference value (>= 0 in theory)."""
    return isoperimetric_quotient(shape, alpha, cfg) - reference_quotient(alpha)


def anisotropic_scale(shape: ImplicitShape, lam: float, alpha) -> ImplicitShape:
    """Image of the shape under (x1, x2, y) -> (lam x1, lam x2, lam^{a+1} y).

    Weighted volume scales by lam^{3a+3} and weighted perimeter by
    lam^{2a+2}; the isoperimetric quotient is invariant.
    """
    if not lam > 0:
        raise DomainError(f"scale factor must be positive, got {lam}")
    ap = _as_alpha(alpha)
    lam = float(lam)
    lam_y = lam ** (ap.alpha + 1.0)
    scale = np.array([lam, lam, lam_y])
    inv = 1.0 / scale
    level = shape.level

    def scaled_level(pts):
        return level(np.asarray(pts, dtype=float) * inv)

    # tangent cross products transform by the cofactor matrix of diag(scale)
    cof = np.array([lam * lam_y, lam * lam_y, lam * lam])
    patches = None
    if shape.patches:
        patches = [_scale_patch(p, scale, cof) for p in shape.patches]
    return ImplicitShape(
        level=scaled_level,
        bbox=shape.bbox * scale[:, None],
        patches=patches,
        sector=shape.sector,
        name=f"{shape.name}*scale({lam:g})",
    )


def _scale_patch(patch: SurfacePatch, scale, cof) -> SurfacePatch:
    param, cross = patch.param, patch.cross
    return SurfacePatch(
        param=lambda st: param(st) * scale,
        cross=lambda st: cross(st) * cof,
        s_range=patch.s_range,
        t_range=patch.t_range,
    )
