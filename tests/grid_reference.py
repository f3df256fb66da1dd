"""Trilinear resampling of grid functions by scipy's interpolator, which
warm-starts the solver fixtures on a finer grid."""

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from grushin3d.grids import CellGrid, GridFunction3D


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
