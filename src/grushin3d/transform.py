"""Sector flattening maps that turn weighted measures into Euclidean ones.

Work inside the first angular sector, theta in (0, pi/n(a)).  In polar
coordinates (r, theta, y) the flattening map is

    flatten_point: (r, theta, y) -> (r^{a+1} cos((a+1) theta) / (a+1),
                                     r^{a+1} sin((a+1) theta) / (a+1), y);

it sends the sector onto the wider wedge of opening (a+1) pi / n(a), maps
the reference ball sector onto the Euclidean unit-ball wedge, and satisfies

    vol_w(E) = |flatten(E)|        (Lebesgue volume),
    relative weighted perimeter of E = Euclidean area of flatten(bd E)

for sets E contained in the closed sector.  ``unflatten_point`` is its
inverse; round trips are exact to ~1e-12.  Both act on arrays of points
of any shape ``(..., 3)``.  Neither map checks that its points lie in the
sector or the wedge; the pushforward checks admit a shape only after
``_require_in_sector`` has found it in the sector.

The image of a patch is flatten_point o param, with tangent cross product
cof(DF) (d_s x d_t) in closed form (Nanson's formula, ``_cofactor``).
``pushforward_checks`` applies that cofactor to the source patches'
normals, so both checks run on one sweep of the source nodes and neither
samples the image, whose bbox grows like r^{a+1}.  Each node's polar
frame (r, theta) is computed once and shared by the sector test, the
cofactor and the flattened point; ``flatten_point`` and ``_cofactor``
wrap the same kernels (``_flat_at``, ``_cofactor_at``).  ``flatten_shape``
builds the image shape with image patches; the tests measure on those as
the reference of the fused sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .geometry import (
    ImplicitShape,
    SurfacePatch,
    _alpha,
    _density_at,
    _flux_at,
    _polar,
    _radial,
    _sector_sums,
    _sectors,
    _sweep,
    _wrap_angle,
    sector_count,
)


def _split_polar(pts):
    pts = np.asarray(pts, dtype=float)
    return (pts, *_polar(pts))


def _flat_at(r, theta, a):
    """The first two components of ``flatten_point`` at the polar frame (r, theta)."""
    rad = r ** (a + 1.0) / (a + 1.0)
    ang = (a + 1.0) * theta
    return rad * np.cos(ang), rad * np.sin(ang)


def flatten_point(p, alpha):
    """Measure-flattening map on first-sector points of shape (..., 3)."""
    a = _alpha(alpha)
    pts, r, theta = _split_polar(p)
    return np.stack([*_flat_at(r, theta, a), pts[..., 2]], axis=-1)


def unflatten_point(p, alpha):
    """Inverse of flatten_point, defined on the flattened wedge."""
    a = _alpha(alpha)
    pts, rad, ang = _split_polar(p)
    r = ((a + 1.0) * rad) ** (1.0 / (a + 1.0))
    theta = ang / (a + 1.0)
    return np.stack([r * np.cos(theta), r * np.sin(theta), pts[..., 2]], axis=-1)


def _cofactor(points, v, a):
    """cof(DF) v = (r^a R(a theta) v_x, r^{2a} v_y) at first-sector points.

    F acts on x as the conformal map z -> z^{a+1}/(a+1), so
    DF = blockdiag(r^a R(a theta), 1) and its cofactor matrix is
    blockdiag(r^a R(a theta), r^{2a}); by Nanson's formula it carries a
    tangent cross product (or a normal) of the source to the image.
    """
    _, r, theta = _split_polar(points)
    return np.stack(_cofactor_at(r, theta, v, a), axis=-1)


def _cofactor_at(r, theta, v, a):
    """The three components of ``_cofactor`` at the polar frame (r, theta)."""
    ra, cos, sin = r**a, np.cos(a * theta), np.sin(a * theta)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    return ra * (cos * vx - sin * vy), ra * (sin * vx + cos * vy), ra * ra * vz


def _image_patch(patch: SurfacePatch, a: float) -> SurfacePatch:
    """Image of a first-sector patch under the flattening map, with the
    tangent cross product carried by ``_cofactor``.  The map keeps the
    y-axis, so the image keeps the source's axis breaks; it moves the
    sector walls, so it drops the source's wall breaks."""
    param, cross, breaks = patch.param, patch.cross, patch.breaks
    return replace(
        patch,
        param=lambda s, t: flatten_point(param(s, t), a),
        cross=lambda s, t: _cofactor(param(s, t), cross(s, t), a),
        breaks=lambda n: breaks(None),
    )


def flatten_shape(shape: ImplicitShape, alpha) -> ImplicitShape:
    """Implicit description of the flattened image of a first-sector shape.

    The image carries the images of the shape's patches, one per patch.
    Its bbox grows like r^{a+1}; where that overflows (a unit shape at
    a = 16383, say), ``ImplicitShape`` refuses the image with a
    ``DomainError``.
    """
    a = _alpha(alpha)
    width = (a + 1.0) * (np.pi / sector_count(a))
    level = shape.level

    def flat_level(pts):
        pts = np.asarray(pts, dtype=float)
        vals = level(unflatten_point(pts, a))
        # outside the image wedge nothing is inside the image shape
        ang = np.arctan2(pts[..., 1], pts[..., 0])
        outside = (ang <= 0.0) | (ang >= width)
        return np.where(outside, np.maximum(vals, 1.0), vals)

    rx = float(np.max(np.abs(shape.bbox[0]))), float(np.max(np.abs(shape.bbox[1])))
    with np.errstate(over="ignore"):  # an infinite bbox is refused below
        rmax = np.hypot(*rx) ** (a + 1.0) / (a + 1.0)
    pad = 1.0239 * rmax
    # the image wedge lies in {xi2 >= 0}; putting that wall exactly on the
    # bbox face keeps the voxel reference of the tests
    # (tests/voxel_reference.py) bias-free along it
    bbox = np.array([(-pad, pad), (0.0, pad), tuple(shape.bbox[2])])
    patches = [_image_patch(p, a) for p in shape.patches]
    return ImplicitShape(flat_level, bbox, patches=patches, name=f"flat({shape.name})")


@dataclass(frozen=True)
class PushforwardReport:
    weighted: float
    euclidean: float
    rel_gap: float


def _gap(a, b, eps=1e-300):
    """Relative gap; 0 when both sides are 0."""
    return abs(a - b) / max(abs(a), abs(b), eps)


def _euclidean_flux(points, normals):
    """(1/3) xi . nu: its flux through bd(F(E)) is the Lebesgue volume |F(E)|."""
    return np.sum(points * normals, axis=1) / 3.0


def pushforward_checks(
    shape: ImplicitShape, alpha, surface_resolution: int = 64
) -> tuple[PushforwardReport, PushforwardReport]:
    """(volume, perimeter) reports: vol_w(E) against the Lebesgue volume of
    the flattened image, and the relative weighted perimeter against the
    flattened Euclidean area.

    Both image measures come from the source nodes, on the same sweep as
    the weighted sides: by Nanson's formula cof(DF) nu dA is the image's
    vector area element at the image F(node) of a source node.

    |F(E)| is the flux of xi / 3 through the image of bd(E), the sum of
    F(node) . cof(DF) nu dA / 3, by the same Gauss quadrature as the
    weighted side but with the 3D identity div(xi) = 3 (the 2D flux of
    (xi1, xi2) / 2 equals the weighted flux node by node, which would make
    the check vacuous).

    The Euclidean area is that of the image of bd(E) inside sector 1: a
    patch integral over the source nodes of |cof(DF) nu|, which is the
    image's area element per unit source area, on the nodes in sector 1
    and 0 elsewhere.  That equals the weighted integrand node by node, so
    the perimeter gap measures rounding; the tests check the closed-form
    cofactor against finite differences.  The sweep cuts its panels at the
    sector walls, and both perimeter sides sum sector 1 as ``measure``
    does.
    """
    a = _alpha(alpha)
    _require_in_sector(shape, a)
    n = sector_count(a)

    def partials(pts, nu, weight):
        # the block's polar frame, computed once per node
        r2, r2a = _radial(pts, a)
        r, theta = _polar(pts)
        volume = np.sum(_flux_at(pts, nu, r2a, a) * weight)
        # nodes outside sector 1, its walls included, weigh nothing on
        # either perimeter side
        keys = _sectors(r, theta, n)
        perimeter = _sector_sums(keys, _density_at(nu, r2, r2a, a) * weight, n)[0]
        c0, c1, c2 = _cofactor_at(r, theta, nu, a)
        f0, f1 = _flat_at(r, theta, a)
        # |cof| and F . cof associate as np.linalg.norm(axis=1) and
        # np.sum(axis=1) do on the stacked (N, 3) rows
        image_area = _sector_sums(keys, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2) * weight, n)[0]
        image_volume = np.sum((f0 * c0 + f1 * c1 + pts[:, 2] * c2) / 3.0 * weight)
        return volume, perimeter, image_area, image_volume

    volume, perimeter, image_area, image_volume = _sweep(shape, surface_resolution, partials, n)
    return (
        PushforwardReport(volume, image_volume, _gap(volume, image_volume)),
        PushforwardReport(perimeter, image_area, _gap(perimeter, image_area)),
    )


# level-function samples per bbox axis of the containment check
_CONTAINMENT_SAMPLES = 17


def _require_in_sector(shape: ImplicitShape, alpha) -> None:
    """Sampled containment check: inside points must lie in the closed
    sector.  The samples span the shape's bbox, which ``ImplicitShape``
    keeps finite."""
    width = np.pi / sector_count(_alpha(alpha))
    axes = [np.linspace(lo, hi, _CONTAINMENT_SAMPLES) for lo, hi in shape.bbox]
    G1, G2, G3 = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([G1.ravel(), G2.ravel(), G3.ravel()])
    inside = pts[shape.level(pts) < 0]
    if len(inside) == 0:
        return
    theta = _wrap_angle(np.arctan2(inside[:, 1], inside[:, 0]))
    if np.any(theta > width * (1 + 1e-9)):
        raise DomainError(f"shape {shape.name!r} is not contained in the first sector")
