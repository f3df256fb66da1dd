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
coefficient is the dilation's scaling exponent at q = p + 1,
``sobolev.scaling_exponent(p + 1, a)``: it vanishes exactly at p = 5 and
is negative beyond, so on domains star-shaped for the dilation (X . nu >= 0
on the boundary) no nontrivial solution can exist for p > 5.

Boundary terms are evaluated on unmasked grids only, whose box faces have
exact normals; the box, its spacing and the weight are read from the
solution grid itself; one face loop, ``_dilation_faces``, gives X . nu to
the star-shape margin and the flux.  The normal derivative uses the
second-order one-sided stencil through the homogeneous boundary value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import _alpha
from .grids import CellGrid, GridFunction3D
from .sobolev import scaling_exponent

CRITICAL_POWER = 5.0

# weak-residual tolerance of a ground-state solve when a caller gives none;
# here, not in the solver, so the CLI reads it without loading scipy
DEFAULT_GROUND_STATE_TOL = 1e-6


def _check_power(p: float) -> None:
    if not 1 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")


def pohozaev_coefficient(p: float, alpha) -> float:
    """(3a+3)/(p+1) - (a+1)/2, the dilation's scaling exponent at
    q = p + 1; zero exactly at p = 5 for every alpha."""
    _check_power(p)
    return scaling_exponent(p + 1.0, alpha)


def nonexistence_classify(p: float) -> str:
    """subcritical (p < 5), critical (p = 5) or supercritical (p > 5).

    The supercritical verdict carries the nonexistence conclusion on
    star-shaped domains; the artifact reports the regime, it does not
    attempt a numerical nonexistence proof.
    """
    _check_power(p)
    if p < CRITICAL_POWER:
        return "subcritical"
    if p == CRITICAL_POWER:
        return "critical"
    return "supercritical"


def _dilation_faces(grid: CellGrid, a: float):
    """(axis, side, X . nu) on each face of an unmasked grid's box.

    X . nu = x1 nu1 + x2 nu2 + (1+a) y nu3 is constant on a face: the face
    coordinate times its outward sign, times 1 + a on the y faces."""
    if grid.mask is not None:
        raise DomainError("the dilation's boundary terms are defined for box domains only")
    for axis in range(3):
        for side, sign in ((0, -1.0), (1, 1.0)):
            coord = grid.bbox[axis, side]
            yield axis, side, ((1.0 + a) * coord if axis == 2 else coord) * sign


def star_shaped_check(grid: CellGrid, alpha) -> float:
    """The minimum of X . nu over the boundary of an unmasked grid's box.

    The domain is star-shaped for the anisotropic dilation iff X . nu >= 0
    everywhere on the boundary (and the origin lies inside); on the box
    the minimum is taken over the six faces."""
    return float(min(g for _, _, g in _dilation_faces(grid, _alpha(alpha))))


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
    a = _alpha(alpha)
    h = u.spacing
    total = 0.0
    for axis, side, g in _dilation_faces(u, a):
        area = float(np.prod([h[k] for k in range(3) if k != axis]))
        # only the y-faces carry |x|^{2a}
        wmag = u.weight2d(a) if axis == 2 else 1.0
        dd = _face_normal_derivative(u.values, axis, side, h[axis])
        total += float(np.sum(g * wmag * dd**2)) * area
    return 0.5 * total


@dataclass(frozen=True)
class PohozaevReport:
    lhs: float
    rhs: float
    residual: float
    star_shaped: float  # min of X . nu over the box faces, star_shaped_check


def pohozaev_residual(u: GridFunction3D, p: float, alpha) -> PohozaevReport:
    """Relative defect of the dilation identity plus the star-shape margin
    of u's box."""
    a = _alpha(alpha)
    lhs = pohozaev_lhs(u, p, a)
    rhs = pohozaev_rhs(u, a)
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-14)
    return PohozaevReport(lhs, rhs, residual, star_shaped_check(u, a))
