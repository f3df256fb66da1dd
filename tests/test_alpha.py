"""alpha is a plain float everywhere: one check, the same at every entry point.

Every public function and constructor that takes alpha converts it with
``float`` and checks it with ``sector_count``, so a bad alpha raises the
same DomainError everywhere, and 1, np.float64(1.0) and 1.0 give the same
bits.
"""

import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest

import grushin3d
from grushin3d import DomainError
from grushin3d.fields import radial_field, random_bump_corpus
from grushin3d.geometry import (
    isoperimetric_deficit,
    isoperimetric_quotient,
    measure,
    reference_ball_values,
    reference_quotient,
    sector_count,
    sector_index,
)
from grushin3d.pohozaev import (
    pohozaev_coefficient,
    pohozaev_lhs,
    pohozaev_residual,
    pohozaev_rhs,
    star_shaped_check,
)
from grushin3d.rearrangement import (
    RadialProfile,
    anisotropic_radius,
    distribution_function,
    grushin_energy,
    polya_szego_gap,
    radius_from_measure,
    rearrange,
    sector_measure_of_radius,
    weighted_lq_norm,
)
from grushin3d.shapes import ball, ball_sector, corpus_shapes
from grushin3d.sobolev import (
    SectorExtremalFamily,
    minimize_rayleigh,
    rayleigh_quotient,
    scaling_exponent,
    sobolev_lower_bound,
)
from grushin3d.solver import Domain, GrushinOperator, Problem, poincare_constant, solve_ground_state
from grushin3d.transform import pushforward_checks

RESOLUTION = 8
FIELD = random_bump_corpus(1, resolution=8, seed=3)[0]
CUBE = Domain.cube(1.0, 8)
U = np.random.default_rng(4).uniform(size=CUBE.dims)
SOLUTION = CUBE.grid_function(np.cos(np.pi * CUBE.centers()[0] / 2))
# strictly inside the first sector for every alpha >= 1
SMALL_BALL = ball(0.2, center=(0.7, 0.3, 0.0))
POINTS = np.array([[0.6, 0.2, 0.1], [0.3, 0.05, -0.4]])
RADII, VALUES = np.array([0.5, 1.0]), np.array([1.0, 0.5])


def _shape_bits(shape):
    """What a shape computes: its bbox, its level at sample points, and its
    patch points and cross products at sample parameters."""
    out = [shape.bbox, shape.level(POINTS)]
    for patch in shape.patches:
        (s0, s1), (t0, t1) = patch.s_range, patch.t_range
        s, t = np.array([s0 + 0.3 * (s1 - s0)]), np.array([t0 + 0.6 * (t1 - t0)])
        out += [patch.param(s, t), patch.cross(s, t)]
    return out


# every public function and constructor that takes alpha, by module.name,
# each called with the one alpha argument varied
ENTRY_POINTS = {
    "fields.radial_field": lambda a: radial_field(np.cos, a, 1.0, resolution=4).values,
    "geometry.sector_count": sector_count,
    "geometry.sector_index": lambda a: sector_index(POINTS, a),
    "geometry.measure": lambda a: measure(SMALL_BALL, a, RESOLUTION),
    "geometry.reference_ball_values": reference_ball_values,
    "geometry.reference_quotient": reference_quotient,
    "geometry.isoperimetric_quotient": lambda a: isoperimetric_quotient(SMALL_BALL, a, RESOLUTION),
    "geometry.isoperimetric_deficit": lambda a: isoperimetric_deficit(SMALL_BALL, a, RESOLUTION),
    "pohozaev.pohozaev_coefficient": lambda a: pohozaev_coefficient(3.0, a),
    "pohozaev.star_shaped_check": lambda a: star_shaped_check(CUBE, a),
    "pohozaev.pohozaev_lhs": lambda a: pohozaev_lhs(SOLUTION, 3.0, a),
    "pohozaev.pohozaev_rhs": lambda a: pohozaev_rhs(SOLUTION, a),
    "pohozaev.pohozaev_residual": lambda a: pohozaev_residual(SOLUTION, 3.0, a),
    "rearrangement.anisotropic_radius": lambda a: anisotropic_radius(*POINTS.T, a),
    "rearrangement.sector_measure_of_radius": lambda a: sector_measure_of_radius(1.5, a),
    "rearrangement.radius_from_measure": lambda a: radius_from_measure(0.7, a),
    "rearrangement.distribution_function": lambda a: distribution_function(FIELD, a, 16),
    "rearrangement.RadialProfile": lambda a: RadialProfile(RADII, VALUES, a).lq_norm(2),
    "rearrangement.RadialProfile.from_distribution": lambda a: RadialProfile.from_distribution(
        distribution_function(FIELD, 1.0, 16), a
    ),
    "rearrangement.rearrange": lambda a: rearrange(FIELD, a, 16),
    "rearrangement.grushin_energy": lambda a: grushin_energy(FIELD, a),
    "rearrangement.weighted_lq_norm": lambda a: weighted_lq_norm(FIELD, 6, a),
    "rearrangement.polya_szego_gap": lambda a: polya_szego_gap(FIELD, a, 16),
    "shapes.ball_sector": lambda a: _shape_bits(ball_sector(a)),
    "shapes.corpus_shapes": lambda a: [_shape_bits(s) for s in corpus_shapes(a)],
    "sobolev.sobolev_lower_bound": sobolev_lower_bound,
    "sobolev.scaling_exponent": lambda a: scaling_exponent(4.0, a),
    "sobolev.rayleigh_quotient": lambda a: rayleigh_quotient(FIELD, 6, a),
    "sobolev.SectorExtremalFamily": lambda a: SectorExtremalFamily(a, 6).quotient(4.0),
    "sobolev.minimize_rayleigh": lambda a: minimize_rayleigh(a, resolution=6),
    "solver.GrushinOperator": lambda a: GrushinOperator(CUBE, a)(U),
    "solver.Problem": lambda a: Problem(CUBE, a, 4.0).evaluate(U),
    "solver.solve_ground_state": lambda a: solve_ground_state(CUBE, 4.0, a, 1e-4).u.values,
    "solver.poincare_constant": lambda a: poincare_constant(CUBE, a),
    "transform.pushforward_checks": lambda a: pushforward_checks(SMALL_BALL, a, RESOLUTION),
}


def _perimeters(a):
    m = measure(SMALL_BALL, a, RESOLUTION)
    return m.perimeter, m.sectors


# each measure that ``measure`` and ``pushforward_checks`` compute in one
# sweep, read from its part of the result and checked on its own
MEASURE_PARTS = {
    "geometry.weighted_volume": lambda a: measure(SMALL_BALL, a, RESOLUTION).volume,
    "geometry.perimeters": _perimeters,
    "transform.pushforward_volume_check": lambda a: pushforward_checks(SMALL_BALL, a, RESOLUTION)[0],
    "transform.pushforward_perimeter_check": lambda a: pushforward_checks(SMALL_BALL, a, RESOLUTION)[1],
}
# the full grid a family builds; ``quotient`` at an even resolution reads
# only the half grid, so the full grid is checked on its own
GRID_PARTS = {"sobolev.SectorExtremalFamily.__call__": lambda a: SectorExtremalFamily(a, 6)(4.0).values}
CASES = {**ENTRY_POINTS, **MEASURE_PARTS, **GRID_PARTS}


def _takes_alpha(obj):
    try:
        return "alpha" in inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return False


def _public_alpha_callables():
    found = set()
    for short in grushin3d._EXPORTS:
        module = importlib.import_module(f"grushin3d.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and _takes_alpha(obj):
                found.add(f"{short}.{name}")
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, classmethod) and _takes_alpha(member.__func__):
                        found.add(f"{short}.{name}.{attr}")
    return found


def _bits(x):
    """A comparable image of a result, exact to the bit."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return repr(x)


def test_table_covers_every_public_alpha_callable():
    assert set(ENTRY_POINTS) == _public_alpha_callables()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 16383.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(CASES))
def test_bad_alpha_raises_domain_error(entry, bad):
    with pytest.raises(DomainError, match="alpha must be"):
        CASES[entry](bad)


@pytest.mark.parametrize("entry", sorted(CASES))
def test_int_and_numpy_alpha_give_the_float_bits(entry):
    call = CASES[entry]
    ref = _bits(call(1.0))
    assert _bits(call(1)) == ref
    assert _bits(call(np.float64(1.0))) == ref


@pytest.mark.parametrize(
    "make",
    [
        lambda a: RadialProfile(RADII, VALUES, a),
        lambda a: Problem(CUBE, a, 4.0),
        lambda a: GrushinOperator(CUBE, a),
        lambda a: SectorExtremalFamily(a, 6),
    ],
    ids=["RadialProfile", "Problem", "GrushinOperator", "SectorExtremalFamily"],
)
def test_objects_hold_a_float(make):
    assert type(make(1).alpha) is float
    assert type(make(np.float64(1.0)).alpha) is float


def test_radial_profile_with_a_float_alpha():
    # phi = 1 - r on [0, 1]: int r^2 phi^2 = 1/30, and for alpha = 1 the
    # sector prefactor is 2 pi / (n (a+1)^2) = pi / 4
    norm = RadialProfile(RADII, VALUES, 1.0).lq_norm(2)
    assert norm == pytest.approx(math.sqrt(math.pi / 120.0), rel=1e-14)
    with pytest.raises(DomainError):
        RadialProfile(RADII, VALUES, -3.0)
