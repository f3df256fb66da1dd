"""Dilation (Pohozaev-type) identity for the degenerate Dirichlet problem.

For a solution u of -Delta_x u - |x|^{2a} u_yy = |x|^{2a} |u|^{p-1} u with
u = 0 on the boundary, multiplying by the anisotropic dilation generator
X . grad u, X = (x1, x2, (1+a) y), and integrating by parts yields

    ((3a+3)/(p+1) - (a+1)/2) int |x|^{2a} |u|^{p+1}
        = 1/2 int_bd (X . nu) (nu1^2 + nu2^2 + |x|^{2a} nu3^2) (du/dnu)^2.

The boundary side is one half of the weighted flux integral; the factor
1/2 is forced by the divergence computation (the alpha = 0 case reduces to
the classical three-dimensional identity) and is confirmed here by the
machine check of the underlying identity on analytic fields.  The left
coefficient vanishes exactly at p = 5 and is negative beyond, so on
domains star-shaped for the anisotropic dilation no nontrivial solution
can exist for p > 5.

Boundary integrals are evaluated on unmasked grids only, whose box faces
have exact normals; the box, its spacing and the weight are read from the
solution grid itself.  The normal derivative uses the second-order
one-sided stencil through the homogeneous boundary value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import _alpha
from .grids import CellGrid, GridFunction3D

CRITICAL_POWER = 5.0

# weak-residual tolerance of a ground-state solve when a caller gives none;
# here, not in the solver, so the CLI reads it without loading scipy
DEFAULT_GROUND_STATE_TOL = 1e-6


def pohozaev_coefficient(p: float, alpha) -> float:
    """(3a+3)/(p+1) - (a+1)/2; zero exactly at p = 5 for every alpha."""
    if not 1 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    a = _alpha(alpha)
    return (3.0 * a + 3.0) / (p + 1.0) - (a + 1.0) / 2.0


def nonexistence_classify(p: float) -> str:
    """subcritical (p < 5), critical (p = 5) or supercritical (p > 5).

    The supercritical verdict carries the nonexistence conclusion on
    star-shaped domains; the artifact reports the regime, it does not
    attempt a numerical nonexistence proof.
    """
    if not 1 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    if p < CRITICAL_POWER:
        return "subcritical"
    if p == CRITICAL_POWER:
        return "critical"
    return "supercritical"


@dataclass(frozen=True)
class StarShapedReport:
    verdict: bool
    min_value: float


def star_shaped_check(grid: CellGrid, alpha) -> StarShapedReport:
    """Evaluate g = x1 nu1 + x2 nu2 + (1+a) y nu3 over the boundary of an
    unmasked grid's box.

    The domain is star-shaped for the anisotropic dilation iff g >= 0
    everywhere on the boundary (and the origin lies inside).  On the box g
    is constant on each face, sign * coef * bbox[axis, side] with
    coef = 1 + a on the y faces, so the minimum is taken over the six faces.
    """
    a = _alpha(alpha)
    if grid.mask is not None:
        raise DomainError("the star-shaped check is defined for box domains only")
    bbox = grid.bbox
    m = float(
        min(
            sign * ((1.0 + a) if axis == 2 else 1.0) * bbox[axis, side]
            for axis in range(3)
            for side, sign in ((0, -1.0), (1, 1.0))
        )
    )
    return StarShapedReport(m >= -1e-10, m)


def pohozaev_lhs(u: GridFunction3D, p: float, alpha) -> float:
    """Coefficient times the weighted interior integral of |u|^{p+1},
    ``u.power_integral``."""
    a = _alpha(alpha)
    return pohozaev_coefficient(p, a) * u.power_integral(u.values, p + 1.0, a)


def _face_normal_derivative(values: np.ndarray, axis: int, side: int, h: float) -> np.ndarray:
    """Second-order one-sided du/dnu at a Dirichlet face.

    Uses the boundary value 0 at the face plus the first two cell centres
    at distances h/2 and 3h/2: derivative = (9 u1 - u2) / (3 h).
    """
    u1 = np.take(values, 0 if side == 0 else -1, axis=axis)
    u2 = np.take(values, 1 if side == 0 else -2, axis=axis)
    return (9.0 * u1 - u2) / (3.0 * h)


def pohozaev_rhs(u: GridFunction3D, alpha) -> float:
    """One half of the weighted boundary flux of the solution.

    1/2 int over bd of (X . nu)(nu1^2 + nu2^2 + |x|^{2a} nu3^2) (du/dnu)^2,
    by midpoint quadrature over the faces of u's box; u must be unmasked.
    """
    if u.mask is not None:
        raise DomainError("boundary quadrature is defined for box domains only")
    a = _alpha(alpha)
    h = u.spacing
    total = 0.0
    for axis in range(3):
        area = float(np.prod([h[k] for k in range(3) if k != axis]))
        # X . nu is constant on a face; only the y-faces carry |x|^{2a}
        wmag = u.weight2d(a) if axis == 2 else 1.0
        for side, sign in ((0, -1.0), (1, 1.0)):
            coord = u.bbox[axis, side]
            dd = _face_normal_derivative(u.values, axis, side, h[axis])
            g = ((1.0 + a) * coord if axis == 2 else coord) * sign
            total += float(np.sum(g * wmag * dd**2)) * area
    return 0.5 * total


@dataclass(frozen=True)
class PohozaevReport:
    lhs: float
    rhs: float
    coefficient: float
    residual: float
    star_shaped: StarShapedReport
    trivial: bool


def pohozaev_residual(u: GridFunction3D, p: float, alpha) -> PohozaevReport:
    """Relative defect of the dilation identity plus the star-shape verdict
    of u's box."""
    a = _alpha(alpha)
    lhs = pohozaev_lhs(u, p, a)
    rhs = pohozaev_rhs(u, a)
    star = star_shaped_check(u, a)
    trivial = float(np.max(np.abs(u.values))) == 0.0
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-14)
    return PohozaevReport(lhs, rhs, pohozaev_coefficient(p, a), residual, star, trivial)
