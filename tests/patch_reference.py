"""Reference patch quadrature and flattening map of the tests, built whole
with np.meshgrid and written with plain expressions.

``midpoint_st`` is the product midpoint rule the patch sweeps used before
their Gauss panels; ``midpoint_measure`` sums it over a shape as an
independent check of ``geometry.measure``, whose midpoint error is
O(1/m^2), or O(1/m) in a sector that a wall cuts.  ``gauss_st`` builds
every Gauss node and weight of a patch at once, panel by panel, as the
reference of the block-by-block ``geometry._patch_blocks``, and
``patch_integral`` sums an integrand over those nodes.  Both take the
n(a) whose sector walls cut the panels, as every sweep does.

The node functions below share no kernel with the fused sweeps of
``geometry`` and ``transform``: each computes its own r^2, hypot and
arctan2.  They are written in the fused kernels' operation order, so each
node value has the kernels' bits.
"""

import math

import numpy as np

from grushin3d import DomainError, ImplicitShape, SurfacePatch
from grushin3d.geometry import Measures, sector_count, sector_index


def volume_flux(alpha):
    """|x|^{2a} (x1 nu1 + x2 nu2) / (2a + 2), whose flux through bd(E) is
    vol_w(E), as div(|x|^{2a} (x1, x2, 0)) = (2a + 2) |x|^{2a}."""

    def flux(points, normals):
        r2 = points[:, 0] ** 2 + points[:, 1] ** 2
        return r2**alpha * (points[:, 0] * normals[:, 0] + points[:, 1] * normals[:, 1]) / (2.0 * alpha + 2.0)

    return flux


def area_integrand(alpha):
    """Weighted surface density |x|^a sqrt(nu1^2 + nu2^2 + |x|^{2a} nu3^2)."""

    def integrand(points, normals):
        r2 = points[:, 0] ** 2 + points[:, 1] ** 2
        return r2 ** (alpha / 2.0) * np.sqrt(normals[:, 0] ** 2 + normals[:, 1] ** 2 + r2**alpha * normals[:, 2] ** 2)

    return integrand


def euclidean_flux(points, normals):
    """(1/3) xi . nu: its flux through bd(F(E)) is the Lebesgue volume |F(E)|."""
    return np.sum(points * normals, axis=1) / 3.0


def flatten_point(p, alpha):
    """The flattening map (r, theta, y) -> (r^{a+1} cos((a+1) theta) / (a+1),
    r^{a+1} sin((a+1) theta) / (a+1), y) on first-sector points of shape
    (..., 3)."""
    p = np.asarray(p, dtype=float)
    r, theta = np.hypot(p[..., 0], p[..., 1]), np.arctan2(p[..., 1], p[..., 0])
    rad, ang = r ** (alpha + 1.0) / (alpha + 1.0), (alpha + 1.0) * theta
    return np.stack([rad * np.cos(ang), rad * np.sin(ang), p[..., 2]], axis=-1)


def unflatten_point(p, alpha):
    """Inverse of ``flatten_point`` on the flattened wedge."""
    p = np.asarray(p, dtype=float)
    rad, ang = np.hypot(p[..., 0], p[..., 1]), np.arctan2(p[..., 1], p[..., 0])
    r, theta = ((alpha + 1.0) * rad) ** (1.0 / (alpha + 1.0)), ang / (alpha + 1.0)
    return np.stack([r * np.cos(theta), r * np.sin(theta), p[..., 2]], axis=-1)


def cofactor(points, v, alpha):
    """cof(DF) v = (r^a R(a theta) v_x, r^{2a} v_y) at first-sector points.

    F acts on x as the conformal map z -> z^{a+1}/(a+1), so
    DF = blockdiag(r^a R(a theta), 1) and its cofactor matrix is
    blockdiag(r^a R(a theta), r^{2a}); by Nanson's formula it carries a
    tangent cross product (or a normal) of the source to the image.
    """
    r, theta = np.hypot(points[..., 0], points[..., 1]), np.arctan2(points[..., 1], points[..., 0])
    ra, cos, sin = r**alpha, np.cos(alpha * theta), np.sin(alpha * theta)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([ra * (cos * vx - sin * vy), ra * (sin * vx + cos * vy), ra * ra * vz], axis=-1)


def _image_patch(patch, alpha):
    """Image of a first-sector patch under the flattening map, without
    breaks: the map moves the sector walls, and no source patch that the
    tests flatten is pierced by the y-axis."""
    param, cross = patch.param, patch.cross
    return SurfacePatch(
        lambda s, t: flatten_point(param(s, t), alpha),
        lambda s, t: cofactor(param(s, t), cross(s, t), alpha),
        patch.s_range,
        patch.t_range,
    )


def flatten_shape(shape, alpha):
    """Implicit description of the flattened image of a first-sector shape,
    with the images of its patches.  Its bbox grows like r^{a+1}; where that
    overflows (a unit shape at a = 16383, say), ``ImplicitShape`` refuses
    the image with a ``DomainError``."""
    width = (alpha + 1.0) * (math.pi / sector_count(alpha))
    level = shape.level

    def flat_level(pts):
        pts = np.asarray(pts, dtype=float)
        vals = level(unflatten_point(pts, alpha))
        # outside the image wedge nothing is inside the image shape
        ang = np.arctan2(pts[..., 1], pts[..., 0])
        return np.where((ang <= 0.0) | (ang >= width), np.maximum(vals, 1.0), vals)

    rx = float(np.max(np.abs(shape.bbox[0]))), float(np.max(np.abs(shape.bbox[1])))
    with np.errstate(over="ignore"):  # an infinite bbox is refused below
        pad = 1.0239 * (np.hypot(*rx) ** (alpha + 1.0) / (alpha + 1.0))
    # the image wedge lies in {xi2 >= 0}; putting that wall exactly on the
    # bbox face keeps the voxel reference (voxel_reference.py) bias-free
    # along it
    bbox = np.array([(-pad, pad), (0.0, pad), tuple(shape.bbox[2])])
    patches = [_image_patch(p, alpha) for p in shape.patches]
    return ImplicitShape(flat_level, bbox, patches=patches, name=f"flat({shape.name})")


def midpoint_st(patch, m):
    """Product midpoint nodes (s, t) of a patch, s slowest, and the cell
    weight ds*dt."""
    (s0, s1), (t0, t1) = patch.s_range, patch.t_range
    ds, dt = (s1 - s0) / m, (t1 - t0) / m
    S, T = np.meshgrid(s0 + (np.arange(m) + 0.5) * ds, t0 + (np.arange(m) + 0.5) * dt, indexing="ij")
    return np.column_stack([S.ravel(), T.ravel()]), ds * dt


def _nodes(patch, st, weight):
    """Points, unit normals and weighted area elements of a patch at the
    parameter nodes ``st``, nodes with a vanishing area element dropped."""
    pts, cross = patch.param(*st.T), patch.cross(*st.T)
    area = np.linalg.norm(cross, axis=1)
    ok = area > 0
    return pts[ok], cross[ok] / area[ok, None], (area * weight)[ok]


def midpoint_measure(shape, alpha, m):
    """``measure`` by the midpoint rule on m x m nodes per patch, each
    sector summed by its own mask."""
    n = sector_count(alpha)
    flux, density = volume_flux(alpha), area_integrand(alpha)
    volume, perimeter, sectors = 0.0, 0.0, np.zeros(2 * n)
    for patch in shape.patches:
        pts, nu, area = _nodes(patch, *midpoint_st(patch, m))
        vals = density(pts, nu) * area
        idx = sector_index(pts, alpha)
        volume += float(np.sum(flux(pts, nu) * area))
        perimeter += float(np.sum(vals))
        sectors += [np.sum(vals[idx == j]) for j in range(1, 2 * n + 1)]
    return Measures(volume, perimeter, tuple(float(v) for v in sectors))


def gauss_axis(lo, hi, cuts, m):
    """Gauss nodes and weights on [lo, hi], one panel between each pair of
    the cuts inside it, ceil(m / panels) nodes to a panel, built panel by
    panel."""
    edges = [lo, *sorted({float(c) for c in cuts if lo < c < hi}), hi]
    x, w = np.polynomial.legendre.leggauss(math.ceil(m / (len(edges) - 1)))
    nodes, weights = [], []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        mid, half = (e1 + e0) / 2.0, (e1 - e0) / 2.0
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def gauss_st(patch, m, n):
    """Tensor Gauss nodes (s, t) of a patch, s slowest, panels cut at the
    patch's breaks of n(a) = n, and the product weight of each node."""
    s_cuts, t_cuts = patch.breaks(n)
    s_ax, s_w = gauss_axis(*patch.s_range, s_cuts, m)
    t_ax, t_w = gauss_axis(*patch.t_range, t_cuts, m)
    S, T = np.meshgrid(s_ax, t_ax, indexing="ij")
    return np.column_stack([S.ravel(), T.ravel()]), np.outer(s_w, t_w).ravel()


def patch_integral(shape, integrand, m, n):
    """Sum of integrand(points, unit normals) * dH^2 over the shape's
    patches, on each patch's whole Gauss grid, panels cut at its breaks of
    n(a) = n."""
    total = 0.0
    for patch in shape.patches:
        pts, nu, area = _nodes(patch, *gauss_st(patch, m, n))
        total += float(np.sum(integrand(pts, nu) * area))
    return total


def shape_star_check(shape, alpha, m=64):
    """The minimum of g = x1 nu1 + x2 nu2 + (1+a) y nu3 over the shape's
    patch Gauss nodes; the shape is star-shaped for the anisotropic
    dilation when g >= 0 and the origin lies inside."""
    if shape.level(np.zeros((1, 3)))[0] >= 0:
        raise DomainError("star-shapedness is relative to the origin, which must lie inside")
    low = math.inf
    for patch in shape.patches:
        pts, nu, _ = _nodes(patch, *gauss_st(patch, m, sector_count(alpha)))
        g = pts[:, 0] * nu[:, 0] + pts[:, 1] * nu[:, 1] + (1.0 + alpha) * pts[:, 2] * nu[:, 2]
        low = min(low, float(g.min(initial=math.inf)))
    return low
