"""References for grid functions: one line of values, each formatted on
its own with ``'%.17g'``, which the block formatter of ``grids.save_grid``
replaces, trilinear resampling by scipy's interpolator, which warm-starts
the solver fixtures on a finer grid, the distribution function by a sort
of the cells, which the level count of
``rearrangement.distribution_function`` replaces, and the grid energy from
the three ``np.gradient`` arrays, which the one-buffer density of
``rearrangement.grushin_energy`` replaces."""

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from grushin3d.grids import CellGrid, GridFunction3D
from grushin3d.rearrangement import DistributionFunction


def format_row(values) -> str:
    """One line of values, each formatted on its own with 17 significant digits."""
    return " ".join(f"{v:.17g}" for v in values) + "\n"


def resample(grid, dims, bbox=None):
    """Trilinear resampling onto a new cell-centred grid (zero outside)."""
    cells = CellGrid(grid.bbox if bbox is None else bbox, dims)
    interp = RegularGridInterpolator(
        tuple(grid.axis_centers(ax) for ax in range(3)),
        grid.values,
        bounds_error=False,
        fill_value=0.0,
    )
    X1, X2, Y = cells.centers()
    vals = interp(np.column_stack([X1.ravel(), X2.ravel(), Y.ravel()])).reshape(cells.dims)
    return GridFunction3D(cells.bbox, vals)


def sorted_distribution(u, alpha, levels=256):
    """lambda(t_k) = |{u > t_k}|_w on the levels of ``distribution_function``,
    from a stable sort of every active cell by value, descending: the
    cumulative sum of the weighted cell measures, read at the count of
    cells above each level.  The top level is the largest value on a cell
    of positive weight."""
    vals = u.masked_values().ravel()
    weights = np.broadcast_to(u.weight2d(alpha)[:, :, None], u.dims).ravel()
    top = float(vals[weights > 0].max(initial=0.0))
    lv = np.linspace(top / levels, top, levels) if top > 0 else np.zeros(1)
    order = np.argsort(-vals, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(weights[order] * u.cell_volume)])
    counts = np.searchsorted(-vals[order], -lv, side="left")
    return DistributionFunction(lv, cum[counts], top)


def gradient_energy(u, alpha):
    """The Grushin energy from the three full ``np.gradient`` arrays (edge
    order 2, or 1 when an axis has 2 cells): ux1^2 + ux2^2 + |x|^{2a} uy^2,
    summed over a masked copy of the active cells in C order."""
    ux1, ux2, uy = np.gradient(u.values, *u.spacing, edge_order=2 if min(u.dims) >= 3 else 1)
    dens = ux1**2 + ux2**2 + uy**2 * u.weight2d(alpha)[:, :, None]
    return float(np.sum(dens[u.active()])) * u.cell_volume
