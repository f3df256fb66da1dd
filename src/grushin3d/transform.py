"""Sector flattening map that turns weighted measures into Euclidean ones.

Work inside the first angular sector, theta in (0, pi/n(a)).  In polar
coordinates (r, theta, y) the flattening map is

    F: (r, theta, y) -> (r^{a+1} cos((a+1) theta) / (a+1),
                         r^{a+1} sin((a+1) theta) / (a+1), y);

it sends the sector onto the wider wedge of opening (a+1) pi / n(a), maps
the reference ball sector onto the Euclidean unit-ball wedge, and satisfies

    vol_w(E) = |F(E)|        (Lebesgue volume),
    relative weighted perimeter of E = Euclidean area of F(bd E)

for sets E contained in the closed sector.  ``pushforward_checks`` refuses
a shape when a node of its sweep lies strictly outside sector 1, off its
walls.  Checking bd(E) is enough: a bounded open set lies in the convex
hull of its boundary, and the sector, of width pi/n(a) <= pi/2, is convex.

The image of a patch is F o param, with tangent cross product
cof(DF) (d_s x d_t) in closed form (Nanson's formula, ``_cofactor_at``).
``pushforward_checks`` applies that cofactor to the source patches'
normals, so both checks run on one sweep of the source nodes and neither
samples the image, whose bbox grows like r^{a+1}.  Each node's polar
frame (r, theta) is computed once and shared by the sector test, the
cofactor and the flattened point (``_flat_at``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    DEFAULT_SURFACE_RESOLUTION,
    ImplicitShape,
    _alpha,
    _density_at,
    _flux_at,
    _polar,
    _radial,
    _sector_sums,
    _sectors,
    _sweep,
    sector_count,
)


def _flat_at(r, theta, a):
    """The first two components of the flattened point F(x) at the polar
    frame (r, theta) of x."""
    rad = r ** (a + 1.0) / (a + 1.0)
    ang = (a + 1.0) * theta
    return rad * np.cos(ang), rad * np.sin(ang)


def _cofactor_at(r, theta, v, a):
    """The three components of cof(DF) v = (r^a R(a theta) v_x, r^{2a} v_y)
    at the polar frame (r, theta).

    F acts on x as the conformal map z -> z^{a+1}/(a+1), so
    DF = blockdiag(r^a R(a theta), 1) and its cofactor matrix is
    blockdiag(r^a R(a theta), r^{2a}); by Nanson's formula it carries a
    tangent cross product (or a normal) of the source to the image.
    """
    ra, cos, sin = r**a, np.cos(a * theta), np.sin(a * theta)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    return ra * (cos * vx - sin * vy), ra * (sin * vx + cos * vy), ra * ra * vz


@dataclass(frozen=True)
class PushforwardReport:
    weighted: float
    euclidean: float
    rel_gap: float


def _gap(a, b, eps=1e-300):
    """Relative gap; 0 when both sides are 0."""
    return abs(a - b) / max(abs(a), abs(b), eps)


def pushforward_checks(
    shape: ImplicitShape, alpha, surface_resolution: int = DEFAULT_SURFACE_RESOLUTION
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
    does.  A node strictly outside sector 1, off its walls, raises a
    ``DomainError`` once the sweep is done.
    """
    a = _alpha(alpha)
    n = sector_count(a)

    def partials(pts, nu, weight):
        # the block's polar frame, computed once per node
        r2, r2a = _radial(pts, a)
        r, theta = _polar(pts)
        volume = np.sum(_flux_at(pts, nu, r2a, a) * weight)
        # nodes outside sector 1, its walls included, weigh nothing on
        # either perimeter side; those off its walls (keys > 1) are counted
        keys = _sectors(r, theta, n)
        perimeter = _sector_sums(keys, _density_at(nu, r2, r2a, a) * weight, n)[0]
        c0, c1, c2 = _cofactor_at(r, theta, nu, a)
        f0, f1 = _flat_at(r, theta, a)
        # |cof| and F . cof associate as np.linalg.norm(axis=1) and
        # np.sum(axis=1) do on the stacked (N, 3) rows
        image_area = _sector_sums(keys, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2) * weight, n)[0]
        image_volume = np.sum((f0 * c0 + f1 * c1 + pts[:, 2] * c2) / 3.0 * weight)
        return volume, perimeter, image_area, image_volume, np.count_nonzero(keys > 1)

    volume, perimeter, image_area, image_volume, outside = _sweep(shape, surface_resolution, partials, n)
    if outside:
        raise DomainError(f"shape {shape.name!r} is not contained in the first sector")
    return (
        PushforwardReport(volume, image_volume, _gap(volume, image_volume)),
        PushforwardReport(perimeter, image_area, _gap(perimeter, image_area)),
    )

