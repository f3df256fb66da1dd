"""References for grid functions: trilinear resampling by scipy's
interpolator, which warm-starts the solver fixtures on a finer grid, and
the distribution function by a sort of the cells, which the level count of
``rearrangement.distribution_function`` replaces."""

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from grushin3d.grids import CellGrid, GridFunction3D
from grushin3d.rearrangement import DistributionFunction


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
