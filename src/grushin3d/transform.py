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
inverse; round trips are exact to ~1e-12.  Neither map checks that its
points lie in the sector or the wedge; the pushforward checks admit a
shape only after ``_require_in_sector`` has found it in the sector.

``flatten_shape`` carries a shape's analytic patches to the image: each
image patch is flatten_point o param, with tangent cross product
cof(DF) (d_s x d_t) in closed form (Nanson's formula, ``_cofactor``).  The
volume check measures on those image patches, and the perimeter check
applies the same cofactor to the source patches' normals, so neither
samples the image, whose bbox grows like r^{a+1}.  ``pushforward_checks``
runs both checks on one sweep of the source and one of the image patches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    ImplicitShape,
    QuadratureConfig,
    SurfacePatch,
    _alpha,
    _area_integrand,
    _sweep,
    _volume_flux,
    patch_surface_integral,
    sector_count,
    sector_index,
)
from .grids import _bbox_fault


def _split_polar(pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    return pts, r, theta


def flatten_point(p, alpha):
    """Measure-flattening map on (arrays of) first-sector points."""
    a = _alpha(alpha)
    pts, r, theta = _split_polar(p)
    rad = r ** (a + 1.0) / (a + 1.0)
    ang = (a + 1.0) * theta
    out = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), pts[:, 2]])
    return out[0] if np.asarray(p).ndim == 1 else out


def unflatten_point(p, alpha):
    """Inverse of flatten_point, defined on the flattened wedge."""
    a = _alpha(alpha)
    pts, rad, ang = _split_polar(p)
    r = ((a + 1.0) * rad) ** (1.0 / (a + 1.0))
    theta = ang / (a + 1.0)
    out = np.column_stack([r * np.cos(theta), r * np.sin(theta), pts[:, 2]])
    return out[0] if np.asarray(p).ndim == 1 else out


def _cofactor(points, v, a):
    """cof(DF) v = (r^a R(a theta) v_x, r^{2a} v_y) at first-sector points.

    F acts on x as the conformal map z -> z^{a+1}/(a+1), so
    DF = blockdiag(r^a R(a theta), 1) and its cofactor matrix is
    blockdiag(r^a R(a theta), r^{2a}); by Nanson's formula it carries a
    tangent cross product (or a normal) of the source to the image.
    """
    _, r, theta = _split_polar(points)
    ra, cos, sin = r**a, np.cos(a * theta), np.sin(a * theta)
    return np.column_stack(
        [ra * (cos * v[:, 0] - sin * v[:, 1]), ra * (sin * v[:, 0] + cos * v[:, 1]), ra * ra * v[:, 2]]
    )


def _image_patch(patch: SurfacePatch, a: float) -> SurfacePatch:
    """Image of a first-sector patch under the flattening map, with the
    tangent cross product carried by ``_cofactor``."""
    param, cross = patch.param, patch.cross
    return SurfacePatch(
        param=lambda st: flatten_point(param(st), a),
        cross=lambda st: _cofactor(param(st), cross(st), a),
        s_range=patch.s_range,
        t_range=patch.t_range,
    )


def flatten_shape(shape: ImplicitShape, alpha) -> ImplicitShape:
    """Implicit description of the flattened image of a first-sector shape.

    The image carries the images of the shape's patches, one per patch.
    """
    a = _alpha(alpha)
    width = (a + 1.0) * (np.pi / sector_count(a))
    level = shape.level

    def flat_level(pts):
        pts = np.asarray(pts, dtype=float)
        orig = unflatten_point(pts.reshape(-1, 3), a)
        vals = level(orig.reshape(pts.shape))
        # outside the image wedge nothing is inside the image shape
        ang = np.arctan2(pts[..., 1], pts[..., 0])
        outside = (ang <= 0.0) | (ang >= width)
        return np.where(outside, np.maximum(vals, 1.0), vals)

    rx = float(np.max(np.abs(shape.bbox[0]))), float(np.max(np.abs(shape.bbox[1])))
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
    shape: ImplicitShape, alpha, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[PushforwardReport, PushforwardReport]:
    """(volume, perimeter) reports: vol_w(E) against the Lebesgue volume of
    the flattened image, and the relative weighted perimeter against the
    flattened Euclidean area.

    |F(E)| is the flux of xi / 3 through the image patches, by the same
    midpoint quadrature as the weighted side but with the 3D identity
    div(xi) = 3 (the 2D flux of (xi1, xi2) / 2 equals the weighted flux
    node by node, which would make the check vacuous).

    The Euclidean area is that of the image of bd(E) inside sector 1: a
    patch integral over the source nodes of |cof(DF) nu|, which is the
    image's area element per unit source area, on the nodes in sector 1
    and 0 elsewhere.  That equals the weighted integrand node by node, so
    the perimeter gap measures rounding; the tests check the closed-form
    cofactor against finite differences.
    """
    a = _alpha(alpha)
    _require_in_sector(shape, a)
    flux, density = _volume_flux(a), _area_integrand(a)

    def partials(pts, nu, area):
        volume = np.sum(flux(pts, nu) * area)
        # nodes outside sector 1, its walls included, weigh nothing on
        # either perimeter side: only sector-1 nodes get a cofactor
        inside = sector_index(pts, a) == 1
        perimeter = np.sum((density(pts, nu) * area)[inside])
        image = np.zeros(len(pts))
        image[inside] = np.linalg.norm(_cofactor(pts[inside], nu[inside], a), axis=1)
        return volume, perimeter, np.sum(image * area)

    volume, perimeter, image_area = _sweep(shape, cfg, partials)
    image_volume = patch_surface_integral(flatten_shape(shape, a), _euclidean_flux, cfg)
    return (
        PushforwardReport(volume, image_volume, _gap(volume, image_volume)),
        PushforwardReport(perimeter, image_area, _gap(perimeter, image_area)),
    )


# level-function samples per bbox axis of the containment check
_CONTAINMENT_SAMPLES = 17


def _require_in_sector(shape: ImplicitShape, alpha) -> None:
    """Sampled containment check: inside points must lie in the closed sector.
    A bbox that is not finite is refused, as its samples would be NaN."""
    width = np.pi / sector_count(_alpha(alpha))
    fault = _bbox_fault(shape.bbox)
    if fault:
        raise DomainError(f"shape {shape.name!r}: {fault}")
    axes = [np.linspace(lo, hi, _CONTAINMENT_SAMPLES) for lo, hi in shape.bbox]
    G1, G2, G3 = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([G1.ravel(), G2.ravel(), G3.ravel()])
    inside = pts[shape.level(pts) < 0]
    if len(inside) == 0:
        return
    theta = np.mod(np.arctan2(inside[:, 1], inside[:, 0]), 2.0 * np.pi)
    if np.any(theta > width * (1 + 1e-9)):
        raise DomainError(f"shape {shape.name!r} is not contained in the first sector")
