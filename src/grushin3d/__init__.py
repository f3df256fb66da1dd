"""grushin3d: weighted isoperimetry, symmetrization, sharp Sobolev bounds
and a finite-difference solver for the degenerate operator
-Delta_x - |x|^{2*alpha} d2/dy2 on R^3.

The package namespace is lazy (PEP 562): a public name, or a submodule
that defines public names, imports its module on first access.  Importing
the package or the CLI therefore loads no scipy; only the solver does.

``_EXPORTS`` is the package API and the one list of public names; no
submodule defines ``__all__``.  A name is in it only when a CLI command,
an acceptance criterion or a benchmark operation calls it directly, or
when it is an exception or a return type of such a call.  Other
module-level names are helpers that the package itself uses; code that
only tests call lives in ``tests/``.

Parameters are plain values: alpha is a float wherever it is taken, checked
in one place (a bad alpha raises the same DomainError everywhere), and the
sector count n(alpha) is ``sector_count(alpha)``, never a second argument.
Counts are ints, checked in one place too: a bool, a float such as 2.0 or
a count out of range raises the same DomainError, and none is rounded.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "errors": ("ComputationError", "DegeneracyError", "DomainError", "GridFormatError", "IterationError"),
    "fields": ("cosine_bump", "radial_field", "random_bump_corpus"),
    "geometry": (
        "ImplicitShape",
        "Measures",
        "SurfacePatch",
        "anisotropic_scale",
        "isoperimetric_deficit",
        "isoperimetric_quotient",
        "measure",
        "reference_quotient",
        "sector_count",
    ),
    "grids": ("CellGrid", "GridFunction3D", "load_grid", "save_grid"),
    "pohozaev": ("PohozaevReport", "nonexistence_classify", "pohozaev_coefficient", "pohozaev_residual"),
    "rearrangement": (
        "DistributionFunction",
        "RadialProfile",
        "distribution_function",
        "grushin_energy",
        "polya_szego_gap",
        "rearrange",
        "weighted_lq_norm",
    ),
    "shapes": ("ball", "ball_sector", "box", "corpus_shapes", "cylinder", "ellipsoid", "make_shape"),
    "sobolev": (
        "RayleighReport",
        "SectorExtremalFamily",
        "minimize_rayleigh",
        "rayleigh_quotient",
        "scaling_exponent",
        "sobolev_lower_bound",
        "talenti_constant_general",
        "talenti_radial_constant",
    ),
    "solver": (
        "Domain",
        "GrushinOperator",
        "Problem",
        "SolutionReport",
        "linear_solve",
        "poincare_constant",
        "solve_ground_state",
    ),
    "transform": ("pushforward_checks",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
