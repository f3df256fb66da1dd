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

``save_grid`` formats the values in blocks of ``_BLOCK_VALUES`` with a
numpy kernel whose bytes equal those of formatting each value on its own
with ``'%.17g'`` (``_format_row``, the reference, which still writes the
bbox line), and writes the bytes in binary mode.  For every normal |x| the
kernel scales |x| into [1e16, 1e17) by 10^p held as a double-double, with
Dekker's exact two-product; the product is exact where 10^p is a double
(1e-6 < |x| < 1e17) and within a proven bound elsewhere.  It rounds
half-even to 17 digits in int64, reads the digits from a table of
four-digit groups and lays each exponent out by ``%g``'s rules, up to
three exponent digits.  Zeros are written directly; subnormals, and the
rare rounded products that lie within the bound of a half-integer, are
formatted on their own with ``%``.  ``load_grid`` reads the three header
lines (a bbox entry or extent that is not finite fails at line 3) and
hands the body to one ``np.loadtxt`` call that reads the file itself,
keeping the result only when it holds exactly n1*n2*n3 finite values.
Anything else (a header line that ``str.splitlines`` splits where file
iteration does not, a ragged layout, a token that ``loadtxt`` rejects but
``float`` accepts, such as ``1_0``, a wrong count, a non-finite value)
goes through the reference route: the whole file split by
``str.splitlines`` and the per-line parser ``_parse_body``, which gives
the values or the ``GridFormatError`` and line number.  The values are
then copied once into C order, so that sums over the loaded grid need no
copy of their own.  A path ``save_grid`` cannot write raises ``OSError``;
the CLI reports it as a usage error (exit 2).
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridFormatError

GRID_MAGIC = "grushin-grid v1"

# values per formatted block in save_grid; bounds the block's memory
_BLOCK_VALUES = 1 << 13

# a grid has at most 256^3 cells: one float64 field is then 128 MiB, and
# the solver holds a few dozen of them
MAX_CELLS = 256**3


def _bbox_fault(bbox) -> Optional[str]:
    """What is wrong with a (3, 2) bbox, or None: every entry and every
    extent hi - lo must be finite, and every hi above its lo."""
    with np.errstate(over="ignore"):
        extent = bbox[:, 1] - bbox[:, 0]
    if not (np.all(np.isfinite(bbox)) and np.all(np.isfinite(extent))):
        return "bbox entries and extents must be finite"
    if not np.all(bbox[:, 1] > bbox[:, 0]):
        return "degenerate bbox"
    return None


def _count(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int; raises DomainError unless it is a
    ``numbers.Integral`` other than a bool, from ``lo`` to ``hi``.  Every
    count the package takes is checked here, and none is rounded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer count, got {value!r}")
    if value < lo:
        raise DomainError(f"{name} must be at least {lo}, got {value}")
    if value > hi:
        raise DomainError(f"{name} must be at most {hi}, got {value}")
    return int(value)


def _grid_dims(dims) -> tuple:
    """Three grid dims as ints, at most ``MAX_CELLS`` cells in all, or DomainError."""
    dims = tuple(dims)
    if len(dims) != 3:
        raise DomainError(f"grid needs three dims, got {dims}")
    dims = tuple(_count(d, "grid dims", 1, MAX_CELLS) for d in dims)
    if math.prod(dims) > MAX_CELLS:
        raise DomainError(f"grid {dims} has more than {MAX_CELLS} = 256^3 cells")
    return dims


def check_grid(bbox, dims, mask=None):
    """(bbox, dims, mask) as a (3, 2) float array, three ints and a bool
    array or None; raises DomainError unless they describe a grid of at
    most ``MAX_CELLS`` cells on a finite, nondegenerate box."""
    bbox = np.asarray(bbox, dtype=float).reshape(3, 2)
    dims = _grid_dims(dims)
    fault = _bbox_fault(bbox)
    if fault:
        raise DomainError(fault)
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

    def active_sum(self, values) -> float:
        """Sum of ``values`` over the active cells, in C order.  With every
        cell active it sums the array itself, not a masked copy of it."""
        if self.mask is None or self.mask.all():
            return float(np.sum(values.ravel()))  # a view when C-ordered
        return float(np.sum(values[self.mask]))

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


def _format_row(values) -> str:
    """One line of values, each formatted on its own with 17 significant digits."""
    return " ".join(f"{v:.17g}" for v in values) + "\n"


# -- the block writer: '%.17g' for whole arrays
#
# A normal double a > 0 with decimal exponent X is scaled to v = a * 10^p,
# p = 16 - X, in [1e16, 1e17) as (a * 2^s) * T, where T = 10^p / 2^s lies in
# [1, 2) and is held as a double-double T_hi + T_lo (a table built on first
# use).  Scaling by 2^s is exact, and Dekker's two-product gives
# (a * 2^s) * T_hi exactly as hi + lo; lo then takes (a * 2^s) * T_lo,
# rounded.  For 0 <= p <= 22 (1e-6 < a < 1e17) 10^p is a double, T_lo = 0
# and hi + lo is v exactly, so its 17 digits follow by integer rounding,
# half-even.  Elsewhere hi + lo is within _TIE_BOUND of v: a value whose lo
# lies that close to a half-integer is formatted with '%', as subnormals
# are.  Each value becomes a cell of _CELL bytes plus a separator, padded
# with NULs anywhere; deleting the NULs leaves the text.

_CELL = 24  # the widest '%.17g' text: '-2.2250738585072014e-308'
_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_MIN_NORMAL = np.finfo(float).tiny
# decimal exponents of the power table: a normal double has -308 <= X <= 308
# (log10 misses by one only next to a power of ten, inside that range)
_X_MIN, _X_MAX = -308, 308
# |lo - (v - hi)| <= 2.5 * 2^-49: the rounding of (a 2^s) T_lo (|.| < 16)
# and of its sum with lo (|.| < 32), and (a 2^s) < 2^57 times the error of
# T_hi + T_lo (< 2^-106)
_TIE_BOUND = 2.0**-47


@functools.cache
def _scaled_powers():
    """For X = _X_MIN .. _X_MAX: the shift s (int32, which np.ldexp takes
    fast) and T = 10^(16-X) / 2^s in [1, 2) as the double-double
    T_hi + T_lo, with T_hi split in two 26-bit halves for the two-product.
    Exact integer arithmetic and correctly rounded divisions; built on the
    first write, so that importing the module costs nothing."""
    shift, T_hi, T_lo = [], [], []
    for X in range(_X_MIN, _X_MAX + 1):
        p = 16 - X
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        s = num.bit_length() - den.bit_length()
        if num << max(-s, 0) < den << max(s, 0):
            s -= 1
        N, D = num << max(-s, 0), den << max(s, 0)
        hi = N / D
        m, d = hi.as_integer_ratio()
        shift.append(s)
        T_hi.append(hi)
        T_lo.append((N * d - m * D) / (D * d))
    T_hi = np.array(T_hi)
    T_hh = _SPLIT * T_hi - (_SPLIT * T_hi - T_hi)
    return np.array(shift, np.int32), T_hi, T_hh, T_hi - T_hh, np.array(T_lo)


def _digit_groups():
    """The ASCII of 0000 ... 9999 as uint32 words, then the same with
    trailing zeros turned to NULs."""
    groups = np.arange(10000)
    chars = np.empty((2, 10000, 4), np.uint8)
    trailing = np.ones(10000, bool)  # the digits from column k on are zeros
    for k in (3, 2, 1, 0):
        chars[:, :, k] = groups // 10 ** (3 - k) % 10 + ord("0")
        trailing &= chars[0, :, k] == ord("0")
        chars[1, trailing, k] = 0
    return chars.view(np.uint32).ravel()


_GROUPS = _digit_groups()

# columns of a digit row: constants, the 17 digits (a lead digit, then four
# groups of four that start on a uint32 word) and the exponent's characters
_NUL, _POINT, _ZERO, _LEAD, _E, _MINUS, _PLUS = 0, 1, 2, 3, 20, 21, 22
_DIGIT_ROW = np.zeros(24, np.uint8)
_DIGIT_ROW[[_POINT, _ZERO, _E, _MINUS, _PLUS]] = np.frombuffer(b".0e-+", np.uint8)

# text columns of a scientific exponent's three digits, the first NUL for
# |X| < 100
_EXP_DIGITS = 20


def _cell_layout(X):
    """Cell columns 1.._CELL-1 of a value with decimal exponent X (column 0
    holds the sign), as digit-row columns, and the index of a point that
    '%g' drops when no fraction digit follows it (or None).  The scientific
    layout (X < -4 or X > 16) leaves the exponent's digits NUL: they are
    filled per value."""
    digits = list(range(_LEAD, _LEAD + 17))
    point = None
    if 0 <= X < 17:
        cols = digits[: X + 1]
        if X < 16:
            point = len(cols)
            cols += [_POINT] + digits[X + 1 :]
    elif -4 <= X < 0:
        cols = [_ZERO, _POINT] + [_ZERO] * (-X - 1) + digits
    else:
        point = 1
        cols = [digits[0], _POINT] + digits[1:] + [_E, _MINUS if X < 0 else _PLUS]
    return np.array(cols + [_NUL] * (_CELL - 1 - len(cols)), dtype=np.intp), point


# one layout per exponent -5 (every X <= -5) to 17 (every X >= 17)
_LAYOUTS = [_cell_layout(X) for X in range(-5, 18)]


def _scale(a, X):
    """(hi, lo): hi + lo approximates a * 10^(16-X), exactly where the table
    holds 10^(16-X) as one double."""
    shift, T_hi, T_hh, T_hl, T_lo = _scaled_powers()
    i = X - _X_MIN
    b = np.ldexp(a, shift[i])
    c = _SPLIT * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    hi = b * T_hi[i]
    lo = ((b_hi * T_hh[i] - hi) + b_hi * T_hl[i] + b_lo * T_hh[i]) + b_lo * T_hl[i]
    lo += b * T_lo[i]
    return hi, lo


def _seventeen_digits(a):
    """(N, X, near) with 10^16 <= N < 10^17 and N * 10^(X-16) the normal
    double a > 0 rounded half-even to 17 significant digits, except where
    ``near`` is set: there the scaled value lies within _TIE_BOUND of a
    half-integer and its rounding is not certain."""
    X = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scale(a, X)
    # log10 can miss by one next to a power of ten: then hi + lo leaves
    # [1e16, 1e17) and the value is scaled again
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        X[fix] += np.where(high[fix], 1, -1)
        hi[fix], lo[fix] = _scale(a[fix], X[fix])
    # hi >= 1e16 > 2^53 is an even integer, so rint (half-even) of lo rounds
    # hi + lo half-even
    rounded = np.rint(lo)
    # outside -6 <= X <= 16, 10^(16-X) is no double and lo is rounded
    near = (np.abs(lo - rounded) >= 0.5 - _TIE_BOUND) & ((X < -6) | (X > 16))
    N = hi.astype(np.int64) + rounded.astype(np.int64)
    # a carry to the next power of ten (the doubles nearest below 1e-14 and
    # 1e98 have one)
    carry = N == 10**17
    N[carry] = 10**16
    X += carry
    return N, X, near


def _lay_out(N, X):
    """(order, text): row i of the uint8 array ``text`` is the '%.17g' text
    of the value with digits N[order[i]] and exponent X[order[i]],
    NUL-padded to _CELL - 1 bytes."""
    key = np.clip(X + 5, 0, len(_LAYOUTS) - 1).astype(np.int8)
    order = np.argsort(key, kind="stable")
    N = N[order]
    rows = np.empty((N.size, _DIGIT_ROW.size), np.uint8)
    rows[:] = _DIGIT_ROW
    rows[:, _LEAD] = N // 10**16 + ord("0")
    low8 = N % 10**8
    groups = [N % 10**16 // 10**12, N % 10**12 // 10**8, low8 // 10**4, low8 % 10**4]
    # a group takes the stripped table when every later group is zero
    zero_after = np.ones(N.size, bool)
    words = rows.view(np.uint32)
    for k in (3, 2, 1, 0):
        words[:, 1 + k] = _GROUPS[groups[k] + 10000 * zero_after]
        zero_after &= groups[k] == 0
    # the values are sorted by layout
    text = np.empty((N.size, _CELL - 1), np.uint8)
    start = 0
    for exp, count in enumerate(np.bincount(key, minlength=len(_LAYOUTS)).tolist(), start=-5):
        if not count:
            continue
        cols, point = _LAYOUTS[exp + 5]
        part = text[start : start + count]
        np.take(rows[start : start + count], cols, axis=1, out=part)
        if 0 < exp < 17:
            # the stripped table must not strip integer digits
            ints = part[:, 1 : exp + 1]
            np.maximum(ints, ord("0"), out=ints)
        if point is not None:
            part[:, point] = np.where(part[:, point + 1], ord("."), 0)
        if not -5 < exp < 17:
            e = np.abs(X[order[start : start + count]])
            part[:, _EXP_DIGITS] = np.where(e >= 100, e // 100 + ord("0"), 0)
            part[:, _EXP_DIGITS + 1] = e // 10 % 10 + ord("0")
            part[:, _EXP_DIGITS + 2] = e % 10 + ord("0")
        start += count
    return order, text


def _format_block(values, start, n1) -> bytes:
    """The bytes of '%.17g' % v for each value, followed by a space, or by
    a newline when it ends a row of n1 values; ``values`` starts at flat
    index ``start`` of the grid."""
    cells = np.zeros((values.size, _CELL + 1), np.uint8)
    cells[:, 0] = np.signbit(values) * ord("-")
    cells[:, 1] = ord("0")  # zeros are written directly: '0' or '-0'
    cells[:, _CELL] = ord(" ")
    cells[(n1 - 1 - start) % n1 :: n1, _CELL] = ord("\n")
    mag = np.abs(values)
    each = mag < _MIN_NORMAL  # zeros and subnormals
    rows = np.flatnonzero(~each)
    if rows.size:
        N, X, near = _seventeen_digits(mag[rows])
        if near.any():
            each[rows[near]] = True
            rows, N, X = rows[~near], N[~near], X[~near]
        order, text = _lay_out(N, X)
        cells[rows[order], 1:_CELL] = text
    rows = np.flatnonzero(each & (mag != 0))
    if rows.size:
        cells[rows, :_CELL] = _format_each(values[rows])
    return cells.tobytes().translate(None, b"\0")


def _format_each(values) -> np.ndarray:
    """The fallback: '%.17g' % v of each value on its own, as rows of _CELL
    bytes padded with NULs."""
    text = (f"%-{_CELL}.17g" * values.size % tuple(values.tolist())).encode()
    text = np.frombuffer(text, np.uint8).reshape(values.size, _CELL)
    return np.where(text == ord(" "), 0, text)


def save_grid(grid: GridFunction3D, path) -> None:
    n1, n2, n3 = grid.dims
    flat = grid.values.ravel(order="F")  # x1 fastest, then x2, then y
    with open(path, "wb") as fh:
        fh.write(f"{GRID_MAGIC}\n{n1} {n2} {n3}\n{_format_row(grid.bbox.ravel())}".encode())
        for start in range(0, flat.size, _BLOCK_VALUES):
            fh.write(_format_block(flat[start : start + _BLOCK_VALUES], start, n1))


def load_grid(path) -> GridFunction3D:
    loaded = _load_bulk(path)
    if loaded is None:
        lines = _read_lines(path)
        bbox, dims = _parse_header(lines)
        vals = _parse_body(lines, math.prod(dims))
    else:
        bbox, dims, vals = loaded
    return GridFunction3D(bbox, np.ascontiguousarray(vals.reshape(dims, order="F")))


def _read_lines(path) -> list:
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridFormatError(f"cannot read {path}: {exc}") from exc


def _parse_header(lines):
    """(bbox, dims) from the first three of ``lines``; raises
    GridFormatError at line 1, 2 or 3."""
    if not lines or lines[0].strip() != GRID_MAGIC:
        raise GridFormatError(f"expected header {GRID_MAGIC!r}", line=1)
    if len(lines) < 3:
        raise GridFormatError("missing dimensions / bbox lines", line=len(lines))
    try:
        dims = tuple(int(tok) for tok in lines[1].split())
    except ValueError:
        raise GridFormatError("dimensions must be integers", line=2) from None
    try:
        dims = _grid_dims(dims)
    except DomainError as exc:
        raise GridFormatError(str(exc), line=2) from None
    try:
        bvals = [float(tok) for tok in lines[2].split()]
    except ValueError:
        raise GridFormatError("bbox entries must be numbers", line=3) from None
    if len(bvals) != 6:
        raise GridFormatError("bbox needs six numbers", line=3)
    bbox = np.array(bvals).reshape(3, 2)
    fault = _bbox_fault(bbox)
    if fault:
        raise GridFormatError(fault, line=3)
    return bbox, dims


def _load_bulk(path):
    """(bbox, dims, values) with the body parsed by one C-level ``loadtxt``
    that reads the file itself, or None: then the reference route decides.
    The header must be three lines that ``str.splitlines`` splits where
    file iteration does, so that the body starts at the reference's line
    4, and it must parse; the body must be exactly n1*n2*n3 finite numbers
    in a layout ``loadtxt`` reads."""
    try:
        with open(path) as fh:
            head = [fh.readline() for _ in range(3)]
        if "".join(head).splitlines(keepends=True) != head:
            return None
        bbox, dims = _parse_header(head)
    except (OSError, ValueError):  # GridFormatError and UnicodeDecodeError too
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty body warns
            # comments=None: a '#' must be a malformed value, as in _parse_body
            vals = np.loadtxt(path, dtype=float, comments=None, ndmin=2, skiprows=3)
    except Exception:
        return None
    if vals.size != math.prod(dims) or not np.all(np.isfinite(vals)):
        return None
    return bbox, dims, vals.ravel()


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
