"""Reference patch quadrature of the tests, built whole with np.meshgrid.

``midpoint_st`` is the product midpoint rule the patch sweeps used before
their Gauss panels; ``midpoint_measure`` sums it over a shape as an
independent check of ``geometry.measure``, whose midpoint error is
O(1/m^2), or O(1/m) in a sector that a wall cuts.  ``gauss_st`` builds
every Gauss node and weight of a patch at once, panel by panel, as the
reference of the block-by-block ``geometry._patch_blocks``.
"""

import math

import numpy as np

from grushin3d import geometry
from grushin3d.geometry import Measures, sector_count, sector_index


def midpoint_st(patch, m):
    """Product midpoint nodes (s, t) of a patch, s slowest, and the cell
    weight ds*dt."""
    (s0, s1), (t0, t1) = patch.s_range, patch.t_range
    ds, dt = (s1 - s0) / m, (t1 - t0) / m
    S, T = np.meshgrid(s0 + (np.arange(m) + 0.5) * ds, t0 + (np.arange(m) + 0.5) * dt, indexing="ij")
    return np.column_stack([S.ravel(), T.ravel()]), ds * dt


def midpoint_measure(shape, alpha, m):
    """``measure`` by the midpoint rule on m x m nodes per patch, each
    sector summed by its own mask."""
    n = sector_count(alpha)
    flux, density = geometry._volume_flux(alpha), geometry._area_integrand(alpha)
    volume, perimeter, sectors = 0.0, 0.0, np.zeros(2 * n)
    for patch in shape.patches:
        st, dst = midpoint_st(patch, m)
        pts, cross = patch.param(*st.T), patch.cross(*st.T)
        area = np.linalg.norm(cross, axis=1)
        ok = area > 0
        pts, nu, area = pts[ok], cross[ok] / area[ok, None], area[ok] * dst
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


def gauss_st(patch, m, n=None):
    """Tensor Gauss nodes (s, t) of a patch, s slowest, panels cut at the
    patch's breaks of n(a) = n, and the product weight of each node."""
    s_cuts, t_cuts = patch.breaks(n)
    s_ax, s_w = gauss_axis(*patch.s_range, s_cuts, m)
    t_ax, t_w = gauss_axis(*patch.t_range, t_cuts, m)
    S, T = np.meshgrid(s_ax, t_ax, indexing="ij")
    return np.column_stack([S.ravel(), T.ravel()]), np.outer(s_w, t_w).ravel()
