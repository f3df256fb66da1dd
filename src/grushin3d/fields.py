"""Grid-function corpus: radial profiles and random bumps.

These builders feed the rearrangement, Sobolev and embedding checks.  All
randomness is seeded, so corpora are reproducible.  The sector extremal
grids are ``sobolev.SectorExtremalFamily``, the family the Rayleigh
search runs over.
"""

from __future__ import annotations

import numpy as np

from .geometry import _alpha
from .grids import MAX_CELLS, CellGrid, GridFunction3D, _count
from .rearrangement import anisotropic_radius


def compact_bump(rho):
    """Smooth compactly supported profile exp(-rho^2/(1-rho^2)) on rho < 1."""
    rho = np.asarray(rho, dtype=float)
    inside = np.abs(rho) < 1.0
    out = np.zeros_like(rho)
    r2 = np.clip(rho[inside] ** 2, 0.0, 1.0 - 1e-15)
    out[inside] = np.exp(-r2 / (1.0 - r2))
    return out


def cosine_bump(rho):
    """cos(pi rho / 2)^2 on rho < 1; C1 across the support edge and with
    mild curvature, so grid energies converge fast."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    m = np.abs(rho) < 1.0
    out[m] = np.cos(np.pi * rho[m] / 2.0) ** 2
    return out


def radial_field(profile, alpha, support_radius: float, resolution: int = 96) -> GridFunction3D:
    """u(x, y) = profile(r / support_radius) on a box holding {r < radius}.

    ``profile`` takes the normalised radius rho in [0, 1]; values beyond
    the support are zero.  The box is the smallest axis-aligned one around
    the anisotropic ball, padded by 12 %.
    """
    a = _alpha(alpha)
    rx = support_radius ** (1.0 / (a + 1.0)) * 1.12
    ry = support_radius / (a + 1.0) * 1.12
    bbox = np.array([(-rx, rx), (-rx, rx), (-ry, ry)])

    def fn(X1, X2, Y):
        r = anisotropic_radius(X1, X2, Y, a)
        return profile(r / support_radius)

    return GridFunction3D.from_callable(fn, bbox, (resolution, resolution, resolution))


def random_bump_corpus(count: int, resolution: int = 64, seed: int = 20250809) -> list[GridFunction3D]:
    """Deterministic corpus of nonnegative smooth compactly supported fields.

    Each field is a sum of three positive bumps with random centres, widths
    and amplitudes, supported strictly inside the box [-1, 1]^3.  The
    corpus, like one grid, holds at most ``MAX_CELLS`` cells.
    """
    rng = np.random.default_rng(seed)
    cells = CellGrid([(-1.0, 1.0)] * 3, (resolution,) * 3)
    count = _count(count, "count", 1, MAX_CELLS // resolution**3)
    X1, X2, Y = cells.centers(sparse=True)
    out = []
    for _ in range(count):
        u = np.zeros(cells.dims)
        for _ in range(3):
            ctr = rng.uniform(-0.45, 0.45, size=3)
            width = rng.uniform(0.18, 0.4)
            amp = rng.uniform(0.3, 1.0)
            rho = np.sqrt((X1 - ctr[0]) ** 2 + (X2 - ctr[1]) ** 2 + (Y - ctr[2]) ** 2) / (
                2.2 * width
            )
            u += amp * compact_bump(rho)
        out.append(GridFunction3D(cells.bbox, u))
    return out
