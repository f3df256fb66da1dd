"""Boundary-refined voxel quadrature of a level set: the independent
reference for the patch route's divergence-identity volume and for the
Lebesgue volume of flattened images.

``voxel_integral`` sums a weight over the cells of a resolution^3 grid on
the bbox whose eight corners lie inside {level < 0}, and splits every
boundary-crossing cell into octants down to ``depth`` levels, the deepest
generation resolved by a centre-point membership test.  It reads only the
level function, never the patches.
"""

import numpy as np

from grushin3d.grids import CellGrid

# boundary cells refined together; 27 corner points and the level
# function's temporaries per cell set the peak memory
REFINE_CHUNK = 30_000

_SUBCELLS = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)])
_CORNERS27 = np.array([[i, j, k] for i in range(3) for j in range(3) for k in range(3)], dtype=float)


def weighted(alpha):
    """The weight |x|^{2 alpha} of the weighted volume."""
    return lambda x1, x2: (x1 * x1 + x2 * x2) ** alpha


def unit(x1, x2):
    """The weight 1 of the Lebesgue volume."""
    return np.ones_like(x1 + x2)


def refine_chunk(level, weight, origins, h, depth, chunk=REFINE_CHUNK):
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
            total += refine_chunk(level, weight, np.concatenate(carry), h2, depth - 1, chunk)
    return total


def voxel_integral(level, bbox, weight, resolution: int, depth: int) -> float:
    """integral over {level < 0} of weight(x1, x2), by refined voxel sums.

    The weight may only depend on (x1, x2); that keeps the bulk term a 2D
    weight array contracted against per-column inside counts.
    """
    n = resolution
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

    cnt = np.zeros((n, n, n), dtype=np.int8)
    for di in (0, 1):
        for dj in (0, 1):
            for dk in (0, 1):
                cnt += neg[di : n + di, dj : n + dj, dk : n + dk]

    inside_cols = (cnt == 8).sum(axis=2)
    w2d = weight(cells.axis_centers(0)[:, None], cells.axis_centers(1)[None, :])
    total = float(np.sum(w2d * inside_cols)) * float(hs.prod())

    origins = lo + np.argwhere((cnt > 0) & (cnt < 8)).astype(float) * hs
    return total + refine_chunk(level, weight, origins, hs, depth)
