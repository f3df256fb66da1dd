"""Uniform cell-centred grids, scalar fields on them, and their text format.

The grid geometry lives here, once: ``CellGrid`` is a box of n1 x n2 x n3
cells ordered [i, j, k] for (x1, x2, y), with an optional mask of active
cells.  It gives the spacing, the cell volume, the cell centres and the
weight |x|^{2a} at the centres.  The solver's ``Domain`` and the field
container ``GridFunction3D`` both take their geometry from it, so every
grid quantity of the package is computed by the same arithmetic.

A GridFunction3D holds values at the cell centres of such a grid.
Functions meant as compactly supported test functions should be zero
outside the mask; fields that merely restrict a smooth function to a
region (e.g. a sector) may keep smooth values everywhere and let the mask
gate integration.

Text format (version 1):

    grushin-grid v1
    n1 n2 n3
    x1min x1max x2min x2max ymin ymax
    v(0,0,0) v(1,0,0) ... v(n1-1,0,0) v(0,1,0) ...   # x1 fastest, then x2, then y

All numbers are written with 17 significant digits so a write/read round
trip is bit-exact.

``save_grid`` formats the values in blocks of whole rows with one ``%``
format per block; the bytes equal those of formatting each value on its
own (``_format_row``, which still writes the bbox line).  ``load_grid``
checks the three header lines, then parses the body with one
``np.loadtxt`` call and keeps the result only when it holds exactly
n1*n2*n3 finite values.  Anything else (a ragged layout, a token that
``loadtxt`` rejects but ``float`` accepts, such as ``1_0``, a wrong count,
a non-finite value) goes through the per-line reference parser
``_parse_body``, which gives the values or the ``GridFormatError`` and
line number.  A path ``save_grid`` cannot write raises ``OSError``; the
CLI reports it as a usage error (exit 2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridFormatError

__all__ = ["CellGrid", "GridFunction3D", "load_grid", "save_grid", "resample", "GRID_MAGIC", "MAX_CELLS"]

GRID_MAGIC = "grushin-grid v1"

# values per formatted block in save_grid; bounds the block string's memory
_BLOCK_VALUES = 1 << 13

# a grid has at most 256^3 cells: one float64 field is then 128 MiB, and
# the solver holds a few dozen of them
MAX_CELLS = 256**3


def check_grid(bbox, dims, mask=None):
    """(bbox, dims, mask) as a (3, 2) float array, three ints and a bool
    array or None; raises DomainError unless they describe a grid of at
    most ``MAX_CELLS`` cells."""
    bbox = np.asarray(bbox, dtype=float).reshape(3, 2)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise DomainError(f"grid needs three positive dims, got {dims}")
    if math.prod(dims) > MAX_CELLS:
        raise DomainError(f"grid {dims} has more than {MAX_CELLS} = 256^3 cells")
    if not np.all(bbox[:, 1] > bbox[:, 0]):
        raise DomainError("degenerate bbox")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != dims:
            raise DomainError(f"mask shape {mask.shape} must match dims {dims}")
    return bbox, dims, mask


class CellGrid:
    """Geometry of a uniform cell-centred grid on an axis-aligned box.

    ``bbox`` is (3, 2), ``dims`` the cell counts along (x1, x2, y) and
    ``mask`` an optional bool array of active cells (None: all active).
    Cell [i, j, k] is centred at bbox[:, 0] + ((i, j, k) + 1/2) * spacing.
    """

    def __init__(self, bbox, dims, mask=None):
        self.bbox, self.dims, self.mask = check_grid(bbox, dims, mask)

    @property
    def spacing(self) -> np.ndarray:
        return (self.bbox[:, 1] - self.bbox[:, 0]) / np.array(self.dims)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.bbox[axis, 0] + (np.arange(self.dims[axis]) + 0.5) * h

    def centers(self, sparse: bool = False):
        """Cell-centre coordinates (X1, X2, Y): full (n1, n2, n3) arrays, or
        with ``sparse`` the broadcastable (n1, 1, 1), (1, n2, 1), (1, 1, n3)."""
        return np.meshgrid(*(self.axis_centers(k) for k in range(3)), indexing="ij", sparse=sparse)

    def active(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.dims, dtype=bool)
        return self.mask

    def weight2d(self, alpha: float) -> np.ndarray:
        """|x|^{2*alpha} at cell centres; constant along the y axis."""
        x1 = self.axis_centers(0)
        x2 = self.axis_centers(1)
        return (x1[:, None] ** 2 + x2[None, :] ** 2) ** alpha


@dataclass
class GridFunction3D(CellGrid):
    bbox: np.ndarray  # (3, 2)
    values: np.ndarray  # (n1, n2, n3)
    mask: Optional[np.ndarray] = None  # bool, same shape; None = all active

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.bbox, _, self.mask = check_grid(self.bbox, self.values.shape, self.mask)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid values must be finite")

    @property
    def dims(self):
        return self.values.shape

    def masked_values(self) -> np.ndarray:
        if self.mask is None:
            return self.values
        return np.where(self.mask, self.values, 0.0)

    @classmethod
    def from_callable(cls, fn, bbox, dims, mask=None) -> "GridFunction3D":
        cells = CellGrid(bbox, dims, mask)
        return cls(cells.bbox, np.asarray(fn(*cells.centers()), dtype=float), cells.mask)


def resample(grid: GridFunction3D, dims, bbox=None) -> GridFunction3D:
    """Trilinear resampling onto a new cell-centred grid (zero outside)."""
    from scipy.interpolate import RegularGridInterpolator

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


def _format_row(values) -> str:
    """One line of values, each formatted on its own with 17 significant digits."""
    return " ".join(f"{v:.17g}" for v in values) + "\n"


def save_grid(grid: GridFunction3D, path) -> None:
    n1, n2, n3 = grid.dims
    flat = grid.values.ravel(order="F")  # x1 fastest, then x2, then y
    rows = max(1, _BLOCK_VALUES // n1)
    row_fmt = " ".join(["%.17g"] * n1) + "\n"
    with open(path, "w") as fh:
        fh.write(GRID_MAGIC + "\n")
        fh.write(f"{n1} {n2} {n3}\n")
        fh.write(_format_row(grid.bbox.ravel()))
        for start in range(0, flat.size, rows * n1):
            block = flat[start : start + rows * n1].tolist()
            fh.write((row_fmt * (len(block) // n1)) % tuple(block))


def load_grid(path) -> GridFunction3D:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].strip() != GRID_MAGIC:
        raise GridFormatError(f"expected header {GRID_MAGIC!r}", line=1)
    if len(lines) < 3:
        raise GridFormatError("missing dimensions / bbox lines", line=len(lines))
    try:
        dims = tuple(int(tok) for tok in lines[1].split())
    except ValueError:
        raise GridFormatError("dimensions must be integers", line=2) from None
    if len(dims) != 3 or min(dims) < 1:
        raise GridFormatError("need three positive dimensions", line=2)
    if math.prod(dims) > MAX_CELLS:
        raise GridFormatError(f"grid {dims} has more than {MAX_CELLS} = 256^3 cells", line=2)
    try:
        bvals = [float(tok) for tok in lines[2].split()]
    except ValueError:
        raise GridFormatError("bbox entries must be numbers", line=3) from None
    if len(bvals) != 6:
        raise GridFormatError("bbox needs six numbers", line=3)
    bbox = np.array(bvals).reshape(3, 2)
    if not np.all(bbox[:, 1] > bbox[:, 0]):
        raise GridFormatError("bbox is degenerate", line=3)

    total = dims[0] * dims[1] * dims[2]
    vals = _parse_body_bulk(lines, total)
    if vals is None:
        vals = _parse_body(lines, total)
    return GridFunction3D(bbox, vals.reshape(dims, order="F"))


def _parse_body_bulk(lines, total):
    """The body values in one C-level parse, or None when they are not
    exactly ``total`` finite numbers in a layout ``loadtxt`` reads."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body warns
            # comments=None: a '#' must be a malformed value, as in _parse_body
            vals = np.loadtxt(lines[3:], dtype=float, comments=None, ndmin=2)
    except Exception:
        return None
    if vals.size != total or not np.all(np.isfinite(vals)):
        return None
    return vals.ravel()


def _parse_body(lines, total) -> np.ndarray:
    """Reference parser of the body (lines 4 on): ``total`` finite values,
    any number per line, blank lines skipped; raises GridFormatError with
    the line number of the first fault."""
    vals = np.empty(total)
    count = 0
    for lineno, line in enumerate(lines[3:], start=4):
        toks = line.split()
        if not toks:
            continue
        if count + len(toks) > total:
            raise GridFormatError("more values than n1*n2*n3", line=lineno)
        try:
            vals[count : count + len(toks)] = [float(t) for t in toks]
        except ValueError:
            raise GridFormatError("malformed value", line=lineno) from None
        if not np.all(np.isfinite(vals[count : count + len(toks)])):
            raise GridFormatError("non-finite value", line=lineno)
        count += len(toks)
    if count != total:
        raise GridFormatError(
            f"expected {total} values, found {count}", line=len(lines)
        )
    return vals
