"""grushin3d: weighted isoperimetry, symmetrization, sharp Sobolev bounds
and a finite-difference solver for the degenerate operator
-Delta_x - |x|^{2*alpha} d2/dy2 on R^3."""

__version__ = "0.1.0"

from .errors import (
    ComputationError,
    DegeneracyError,
    DomainError,
    GridFormatError,
    IterationError,
)
from .geometry import (
    AlphaParam,
    ImplicitShape,
    Perimeters,
    QuadratureConfig,
    SurfacePatch,
    anisotropic_scale,
    isoperimetric_deficit,
    isoperimetric_quotient,
    perimeters,
    reference_ball,
    reference_quotient,
    sector_count,
    sector_of_point,
    weighted_volume,
)
from .grids import CellGrid, GridFunction3D, load_grid, save_grid
from .pohozaev import (
    PohozaevReport,
    nonexistence_classify,
    pohozaev_coefficient,
    pohozaev_lhs,
    pohozaev_residual,
    pohozaev_rhs,
    star_shaped_check,
)
from .rearrangement import (
    DistributionFunction,
    RadialProfile,
    coarea_derivative_compare,
    distribution_function,
    grushin_energy,
    polya_szego_gap,
    radius_from_measure,
    rearrange,
    weighted_lq_norm,
)
from .shapes import ball, ball_sector, box, corpus_shapes, cylinder, ellipsoid, make_shape
from .sobolev import (
    ExtremalProfile,
    RayleighReport,
    critical_exponent,
    minimize_rayleigh,
    rayleigh_quotient,
    scaling_exponent,
    sobolev_lower_bound,
    sobolev_lower_bound_alt,
    talenti_constant_general,
    talenti_radial_constant,
)
from .solver import (
    Domain,
    GrushinOperator,
    Problem,
    SolutionReport,
    linear_solve,
    poincare_constant,
    solve_ground_state,
)
from .transform import (
    PolarTriple,
    flatten_point,
    flatten_shape,
    polar_to_flat_point,
    polar_to_point,
    pushforward_perimeter_check,
    pushforward_volume_check,
    unflatten_point,
)
