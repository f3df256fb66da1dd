"""Counts are plain integers everywhere: one check, the same at every entry point.

Every count the package takes (patch nodes per axis, grid dims, levels,
copy counts, grid resolutions, a corpus size and a sector index) goes
through ``grids._count``: a bool, a float (2.0 included), a string, None
or a count out of range raises DomainError before any work, and no count
is rounded.  A numpy integer gives the bits of the same int.
"""

import importlib
import inspect

import numpy as np
import pytest

import grushin3d
from grushin3d import DomainError
from grushin3d.fields import radial_field, random_bump_corpus
from grushin3d.geometry import (
    MAX_SURFACE_RESOLUTION,
    isoperimetric_deficit,
    isoperimetric_quotient,
    measure,
)
from grushin3d.grids import MAX_CELLS, CellGrid, GridFunction3D, check_grid
from grushin3d.rearrangement import MAX_LEVELS, distribution_function, polya_szego_gap, rearrange
from grushin3d.shapes import ball, ball_sector
from grushin3d.sobolev import MAX_RESOLUTION, SectorExtremalFamily, minimize_rayleigh, rayleigh_quotient
from grushin3d.solver import Domain
from grushin3d.transform import pushforward_checks
from test_alpha import _bits

FIELD = random_bump_corpus(1, resolution=8, seed=3)[0]
BOX = np.array([(-1.0, 1.0)] * 3)
SMALL_BALL = ball(0.2, center=(0.7, 0.3, 0.0))


def _bump(X1, X2, Y):
    return np.cos(X1) * np.cos(X2) * np.cos(Y)


# every public count parameter, as "module.name:parameter", with a valid
# value, the largest valid value and a call with that one count varied
ENTRY_POINTS = {
    "geometry.measure:surface_resolution": (8, MAX_SURFACE_RESOLUTION, lambda m: measure(SMALL_BALL, 1.0, m)),
    "geometry.isoperimetric_quotient:surface_resolution": (
        8, MAX_SURFACE_RESOLUTION, lambda m: isoperimetric_quotient(SMALL_BALL, 1.0, m)
    ),
    "geometry.isoperimetric_deficit:surface_resolution": (
        8, MAX_SURFACE_RESOLUTION, lambda m: isoperimetric_deficit(SMALL_BALL, 1.0, m)
    ),
    "transform.pushforward_checks:surface_resolution": (
        8, MAX_SURFACE_RESOLUTION, lambda m: pushforward_checks(SMALL_BALL, 1.0, m)
    ),
    "grids.check_grid:dims": (4, MAX_CELLS, lambda n: check_grid(BOX, (1, n, 1))[1]),
    "grids.CellGrid:dims": (4, MAX_CELLS, lambda n: CellGrid(BOX, (n, 1, 1)).centers()),
    "grids.GridFunction3D.from_callable:dims": (
        4, MAX_CELLS, lambda n: GridFunction3D.from_callable(_bump, BOX, (1, 1, n)).values
    ),
    "solver.Domain:dims": (4, MAX_CELLS, lambda n: Domain(BOX, (2, 2, n)).centers()),
    "solver.Domain.cube:n": (8, MAX_RESOLUTION, lambda n: Domain.cube(1.0, n).centers()),
    "rearrangement.distribution_function:levels": (16, MAX_LEVELS, lambda k: distribution_function(FIELD, 1.0, k)),
    "rearrangement.rearrange:levels": (16, MAX_LEVELS, lambda k: rearrange(FIELD, 1.0, k)),
    "rearrangement.polya_szego_gap:levels": (16, MAX_LEVELS, lambda k: polya_szego_gap(FIELD, 1.0, k)),
    "sobolev.rayleigh_quotient:copies": (2, 2**53, lambda k: rayleigh_quotient(FIELD, 6, 1.0, copies=k)),
    "sobolev.SectorExtremalFamily:resolution": (6, MAX_RESOLUTION, lambda n: SectorExtremalFamily(1.0, n).quotient()),
    "sobolev.minimize_rayleigh:resolution": (6, MAX_RESOLUTION, lambda n: minimize_rayleigh(1.0, resolution=n)),
    "fields.radial_field:resolution": (4, MAX_RESOLUTION, lambda n: radial_field(np.cos, 1.0, 1.0, resolution=n).values),
    "fields.random_bump_corpus:resolution": (
        8, MAX_RESOLUTION, lambda n: [u.values for u in random_bump_corpus(1, resolution=n, seed=3)]
    ),
    # a corpus holds at most MAX_CELLS cells, as one grid does
    "fields.random_bump_corpus:count": (
        2, MAX_CELLS // 8**3, lambda k: [u.values for u in random_bump_corpus(k, resolution=8, seed=3)]
    ),
    "shapes.ball_sector:j": (3, 4, lambda j: [ball_sector(1.0, j).bbox, ball_sector(1.0, j).sector]),
}

# the full grid a family builds; ``quotient`` at an even resolution reads
# only the half grid, so the full grid is checked on its own
GRID_PARTS = {
    "sobolev.SectorExtremalFamily.__call__:resolution": (
        6, MAX_RESOLUTION, lambda n: SectorExtremalFamily(1.0, n)().values
    ),
}
CASES = {**ENTRY_POINTS, **GRID_PARTS}

# the parameters that hold a count
COUNT_PARAMETERS = {"surface_resolution", "dims", "n", "levels", "copies", "resolution", "count", "j"}
# a result record: its levels are the level values, not a count
NOT_COUNTS = {"rearrangement.DistributionFunction:levels"}

BAD = {"2.5": 2.5, "2.0": 2.0, "str": "8", "None": None, "True": True, "0": 0, "-1": -1, "hi+1": "hi+1"}


def _count_parameters(obj):
    try:
        return COUNT_PARAMETERS & set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def _public_count_parameters():
    found = set()
    for short in grushin3d._EXPORTS:
        module = importlib.import_module(f"grushin3d.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                found |= {f"{short}.{name}:{p}" for p in _count_parameters(obj)}
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, classmethod):
                        found |= {f"{short}.{name}.{attr}:{p}" for p in _count_parameters(member.__func__)}
    return found


def test_table_covers_every_public_count_parameter():
    assert set(ENTRY_POINTS) == _public_count_parameters() - NOT_COUNTS


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(CASES))
def test_bad_count_raises_domain_error(entry, bad):
    _, hi, call = CASES[entry]
    with pytest.raises(DomainError):
        call(hi + 1 if bad == "hi+1" else BAD[bad])


@pytest.mark.parametrize("entry", sorted(CASES))
def test_numpy_integer_count_gives_the_int_bits(entry):
    good, _, call = CASES[entry]
    assert _bits(call(np.int64(good))) == _bits(call(good))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: measure(SMALL_BALL, 1.0, 2.0), "surface_resolution must be an integer count, got 2.0"),
        (lambda: measure(SMALL_BALL, 1.0, 0), "surface_resolution must be at least 1, got 0"),
        (lambda: ball_sector(1.0, j=1.5), "sector index must be an integer count, got 1.5"),
        (lambda: CellGrid(BOX, (True, 4, 4)), "grid dims must be an integer count, got True"),
    ],
    ids=["float", "below", "sector", "bool"],
)
def test_the_message_names_the_count(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
