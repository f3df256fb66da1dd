"""Grid-function corpus: radial profiles, sector grids, random bumps.

These builders feed the rearrangement, Sobolev and embedding checks.  All
randomness is seeded, so corpora are reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _as_alpha, sector_index
from .grids import CellGrid, GridFunction3D
from .rearrangement import anisotropic_radius
from .sobolev import RayleighReport, rayleigh_quotient

# the sector extremals are cut off at r = 20
TRUNCATION_RADIUS = 20.0


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
    ap = _as_alpha(alpha)
    a = ap.alpha
    rx = support_radius ** (1.0 / (a + 1.0)) * 1.12
    ry = support_radius / (a + 1.0) * 1.12
    bbox = np.array([(-rx, rx), (-rx, rx), (-ry, ry)])

    def fn(X1, X2, Y):
        r = anisotropic_radius(X1, X2, Y, ap)
        return profile(r / support_radius)

    return GridFunction3D.from_callable(fn, bbox, (resolution, resolution, resolution))


class SectorExtremalFamily:
    """Truncated radial extremals on one first-sector grid.

    The grid, the anisotropic radius r at the cell centres and the sector
    mask are built once; ``family(b)`` samples

        u = (1 + b r^2)^{-1/2} - (1 + b R^2)^{-1/2}, clipped at zero,

    with R = ``TRUNCATION_RADIUS``, on that grid.  The grid covers the
    sector's bounding box and the mask keeps cells whose centres lie
    strictly inside the sector, so the Rayleigh quotient approximates the
    sector quotient of the profile.  Every call returns a new array of
    values; the radius and the mask are read-only and shared by all
    returned grids.

    ``quotient`` gives the Rayleigh quotient of the same field at the
    critical exponent q = 6.  Every member is even in y and the grid is
    centred on y = 0, so at even resolution n it samples u only on the
    planes k >= n/2 - 1 (a view of r): the integrals run over k >= n/2,
    plane n/2 - 1 is the mirror neighbour of the y-differences and is
    masked out, and both integrals are doubled.  The cell centres are
    mirror images only up to rounding, so the quotient moves in its last
    bits.  At odd n it is ``rayleigh_quotient`` of the full grid, the
    reference.
    """

    def __init__(self, alpha, resolution: int = 128):
        ap = _as_alpha(alpha)
        aa = ap.alpha
        R = TRUNCATION_RADIUS
        rx = R ** (1.0 / (aa + 1.0))
        ry = R / (aa + 1.0)
        width = ap.sector_width
        x2max = rx * math.sin(width) if width < math.pi / 2 else rx
        n = int(resolution)
        cells = CellGrid([(0.0, rx), (0.0, x2max), (-ry, ry)], (n, n, n))
        X1, X2, Y = cells.centers(sparse=True)
        r = anisotropic_radius(X1, X2, Y, ap)
        r.flags.writeable = False
        # sector membership depends on (x1, x2) only
        x1x2 = np.stack(np.broadcast_arrays(X1[:, :, 0], X2[:, :, 0]), axis=-1)
        sector = (sector_index(x1x2, ap) == 1)[:, :, None]
        self.alpha, self.cells, self.r, self.mask = ap, cells, r, np.broadcast_to(sector, r.shape)
        self._half = None
        if n % 2 == 0:
            # planes n/2 - 1 .. n - 1; the first is the mirror plane, inactive
            m = n // 2 - 1
            half_mask = np.repeat(sector, n - m, axis=2)
            half_mask[:, :, 0] = False
            ylo = cells.bbox[2, 0] + m * cells.spacing[2]
            self._half = CellGrid([(0.0, rx), (0.0, x2max), (ylo, ry)], (n, n, n - m), half_mask)
            self._half_r = r[:, :, m:]

    @staticmethod
    def _profile(r, b) -> np.ndarray:
        R = TRUNCATION_RADIUS
        return np.maximum((1.0 + b * r * r) ** -0.5 - (1.0 + b * R * R) ** -0.5, 0.0)

    def __call__(self, b: float = 4.0) -> GridFunction3D:
        return GridFunction3D(self.cells.bbox, self._profile(self.r, b), self.mask)

    def quotient(self, b: float = 4.0) -> RayleighReport:
        """Rayleigh quotient of ``self(b)`` at q = 6, on the y >= 0 half of
        the grid when the resolution is even."""
        if self._half is None:
            return rayleigh_quotient(self(b), 6, self.alpha)
        u = self._profile(self._half_r, b)
        return rayleigh_quotient(GridFunction3D(self._half.bbox, u, self._half.mask), 6, self.alpha, copies=2)


def sector_extremal_grid(alpha, b: float = 4.0, resolution: int = 128) -> GridFunction3D:
    """One truncated radial extremal on a first-sector grid; see
    ``SectorExtremalFamily``, which builds the grid."""
    return SectorExtremalFamily(alpha, resolution)(b)


def random_bump_corpus(count: int, resolution: int = 64, seed: int = 20250809) -> list[GridFunction3D]:
    """Deterministic corpus of nonnegative smooth compactly supported fields.

    Each field is a sum of three positive bumps with random centres, widths
    and amplitudes, supported strictly inside the box [-1, 1]^3.
    """
    rng = np.random.default_rng(seed)
    cells = CellGrid([(-1.0, 1.0)] * 3, (resolution,) * 3)
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
