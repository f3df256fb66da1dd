"""Command-line front end.

Subcommands: geometry, transform-check, rearrange, sobolev, solve,
pohozaev.  Every run emits a RunReport as JSON (stdout, and --output FILE
when given); table-like results are additionally written as CSV.  Exit
codes: 0 success (all checks passed), 1 a check failed, 2 usage error
(also an output path or a stdout that cannot be written), 3 input-file
error, 4 numerical failure (any unexpected exception too, as one stderr
line).
"""

from __future__ import annotations

import argparse
import inspect
import io
import math
import os
import sys
import time
from contextlib import contextmanager, redirect_stdout, suppress

import numpy as np

# the CLI loads every module its commands use except the solver, so no
# command pays for an import while it runs; the solver loads scipy and is
# imported only where a command solves
from . import __version__, geometry, pohozaev, rearrangement, sobolev
from .errors import ComputationError, DomainError, GridFormatError
from .geometry import _alpha, _quotient, _quotient_perimeter, measure, reference_quotient, sector_count
from .grids import _count, load_grid, save_grid
from .pohozaev import CRITICAL_POWER, nonexistence_classify, pohozaev_coefficient, pohozaev_residual
from .rearrangement import (
    MAX_LEVELS,
    RadialProfile,
    distribution_function,
    grushin_energy,
    weighted_lq_norm,
)
from .report import RunReport, write_csv
from .shapes import SHAPE_BUILDERS, ball, ball_sector, make_shape
from .sobolev import (
    MAX_RESOLUTION,
    minimize_rayleigh,
    sobolev_lower_bound,
    talenti_constant_general,
    talenti_radial_constant,
)
from .transform import _gap, pushforward_checks

USAGE_EXIT, INPUT_EXIT, NUMERICAL_EXIT = 2, 3, 4


@contextmanager
def _writing(path):
    """An output path that cannot be written is a usage error, not a crash."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


# CLI option -> builder parameter; each builder gets the options it takes
_SHAPE_OPTIONS = {"radius": "radius", "halfheight": "half_height", "semiaxes": "semiaxes",
                  "half_widths": "half_widths", "center": "center", "alpha": "alpha", "sector": "j"}


def _shape_from_args(args):
    """The --shape, built from the shape options given; one that the shape
    does not take is a usage error, except --alpha, which every run gives."""
    builder = SHAPE_BUILDERS.get(args.shape)
    takes = inspect.signature(builder).parameters if builder else {}
    params = {}
    for option, name in _SHAPE_OPTIONS.items():
        value = getattr(args, option)
        if value is not None and builder and name not in takes and option != "alpha":
            raise DomainError(f"--{option.replace('_', '-')} does not apply to --shape {args.shape}")
        if value is not None and name in takes:
            params[name] = tuple(value) if isinstance(value, list) else value
    return make_shape(args.shape, **params)


def _rel_change(fine, coarse) -> float:
    """Quadrature error indicator: the largest relative change of the
    weighted volume, the perimeter and the quotient per^{3/2} / vol from a
    coarse sweep's (volume, perimeter) to a fine one's.  A zero volume
    leaves the quotient out; the volume's change is then 1 unless both
    volumes are 0."""
    pairs = list(zip(fine, coarse))
    if 0.0 not in (fine[0], coarse[0]):
        pairs.append(tuple(per**1.5 / vol for vol, per in (fine, coarse)))
    return max(_gap(f, c) for f, c in pairs)


def cmd_geometry(args, rep: RunReport) -> None:
    a = _alpha(args.alpha)
    shape = _shape_from_args(args)
    m = args.surface_resolution
    rep.resolutions = {"surface_resolution": m}
    measures = measure(shape, a, m)
    rep.results["weighted_volume"] = measures.volume
    rep.results["weighted_perimeter"] = measures.perimeter
    for j, part in enumerate(measures.sectors, start=1):
        rep.results[f"sector_perimeter_{j}"] = part
    q = _quotient(shape, measures)
    q_ref = reference_quotient(a)
    deficit = q - q_ref
    rep.results["isoperimetric_quotient"] = q
    rep.results["reference_quotient"] = q_ref
    rep.results["isoperimetric_deficit"] = deficit
    coarse = measure(shape, a, -(-m // 2))
    rep.results["quadrature_rel_change"] = _rel_change(
        *((ms.volume, _quotient_perimeter(shape, ms)) for ms in (measures, coarse))
    )
    rep.add_check("deficit_nonnegative", deficit, -0.01 * q_ref, ">=")


def cmd_transform_check(args, rep: RunReport) -> None:
    a = _alpha(args.alpha)
    if args.shape == "ball-sector":
        shape = ball_sector(a, j=1)
    elif args.shape == "small-ball":
        half = math.pi / sector_count(a) / 2
        shape = ball(0.35 * np.sin(half), center=(np.cos(half), np.sin(half), 0.0))
    else:
        raise DomainError(f"transform-check shape must be ball-sector or small-ball, got {args.shape!r}")
    m = args.surface_resolution
    rep.resolutions = {"surface_resolution": m}
    volchk, perchk = pushforward_checks(shape, a, m)
    rep.results["volume_weighted"] = volchk.weighted
    rep.results["volume_euclidean"] = volchk.euclidean
    rep.results["volume_rel_gap"] = volchk.rel_gap
    rep.add_check("volume_pushforward_gap", volchk.rel_gap, 1e-3, "<=")
    rep.results["perimeter_weighted"] = perchk.weighted
    rep.results["perimeter_euclidean"] = perchk.euclidean
    rep.results["perimeter_rel_gap"] = perchk.rel_gap
    rep.add_check("perimeter_pushforward_gap", perchk.rel_gap, 1e-2, "<=")
    # the weighted sides are measure's volume and sector-1 perimeter
    coarse = measure(shape, a, -(-m // 2))
    rep.results["quadrature_rel_change"] = _rel_change(
        (volchk.weighted, perchk.weighted), (coarse.volume, coarse.sectors[0])
    )


def cmd_rearrange(args, rep: RunReport) -> None:
    a = _alpha(args.alpha)
    _count(args.levels, "levels", 2, MAX_LEVELS)  # a bad count exits 2 before the grid is read
    grid = load_grid(args.input)
    # the grid energies need two cells on each axis; the file is at fault
    if min(grid.dims) < 2:
        raise GridFormatError(f"rearrangement needs at least 2 cells per axis, got dims {grid.dims}", line=2)
    if np.any(grid.values < 0):
        raise GridFormatError("rearrangement input must be nonnegative")
    rep.resolutions = {"dims": list(grid.dims), "levels": args.levels}
    # one count of the cells into levels serves both the profile and the
    # equimeasurability check
    dist = distribution_function(grid, a, args.levels)
    profile = RadialProfile.from_distribution(dist, a)
    top = dist.top
    rep.results["max_input"] = top
    rep.results["max_profile"] = profile.max_value
    rep.add_check("max_preserved", abs(rep.results["max_profile"] - top), 0.0, "<=")

    support = float(dist.measures[0])
    gap = float(np.max(np.abs(dist.measures - profile.measure_above(dist.levels))))
    rep.results["support_measure"] = support
    rep.results["equimeasurability_gap"] = gap
    rep.add_check("equimeasurability", gap, 0.01 * max(support, 1e-300), "<=")

    for q in (2, 4, 6):
        n_u = weighted_lq_norm(grid, q, a)
        n_p = profile.lq_norm(q)
        rep.results[f"l{q}_norm_input"] = n_u
        rep.results[f"l{q}_norm_profile"] = n_p
        if n_u > 0:
            rep.add_check(f"l{q}_norm_preserved", abs(n_p - n_u) / n_u, 0.01, "<=")

    e_u = grushin_energy(grid, a)
    e_p = profile.dirichlet_energy()
    gap_e = e_u - e_p
    rep.results["energy_input"] = e_u
    rep.results["energy_profile"] = e_p
    rep.results["polya_szego_gap"] = gap_e
    rep.add_check("polya_szego", gap_e, -0.02 * max(e_u, 1e-300), ">=")

    if args.profile_csv:
        s, v = profile.nodes() if top > 0 else (np.zeros(1), np.zeros(1))
        with _writing(args.profile_csv):
            write_csv(args.profile_csv, ["r", "phi"], list(zip(map(float, s), map(float, v))))
        rep.results["profile_csv_rows"] = float(len(s))


def cmd_sobolev(args, rep: RunReport) -> None:
    # equal keys (--alphas 1 1, or 0.5 0.5000001) would overwrite each other's results
    keys = [f"alpha_{a:g}" for a in args.alphas]
    if len(set(keys)) < len(keys):
        raise DomainError(f"--alphas must give distinct report keys, got {' '.join(keys)}")
    _count(args.resolution, "resolution", 2, MAX_RESOLUTION)  # checked with --minimize or without
    rep.resolutions = {"rayleigh_resolution": args.resolution}
    D = talenti_radial_constant()
    rep.results["talenti_closed_form"] = D
    quad_vals = [talenti_constant_general(a_, b_) for a_ in (0.5, 1.0, 2.0) for b_ in (0.5, 1.0, 2.0)]
    spread = max(quad_vals) - min(quad_vals)
    rep.results["talenti_quadrature_mean"] = float(np.mean(quad_vals))
    rep.results["talenti_quadrature_spread"] = spread
    rep.add_check("talenti_family_spread", spread, 1e-5, "<=")
    rep.add_check("talenti_matches_closed_form", abs(quad_vals[4] - D), 1e-9, "<=")

    rows = []
    for alpha, key in zip(args.alphas, keys):
        a = _alpha(alpha)
        n = sector_count(a)
        L = sobolev_lower_bound(a)
        rep.results[f"{key}_n"] = float(n)
        rep.results[f"{key}_lower_bound"] = L
        ray = float("nan")
        if args.minimize:
            ray = minimize_rayleigh(a, resolution=args.resolution).estimate
            rep.results[f"{key}_rayleigh_min"] = ray
            rep.add_check(f"{key}_rayleigh_above_bound", ray, L * 0.97, ">=")
        rows.append([a, n, D, L, ray])
    if args.csv:
        with _writing(args.csv):
            write_csv(args.csv, ["alpha", "n_alpha", "D", "L_derived", "rayleigh_min"], rows)


def cmd_solve(args, rep: RunReport) -> None:
    from .solver import Domain, solve_ground_state

    a = _alpha(args.alpha)
    domain = Domain.cube(args.half_width, args.grid)
    rep.resolutions = {"grid": args.grid}
    sol = solve_ground_state(domain, args.q, a, args.tol)
    unorm = float(np.sqrt(np.sum(sol.u.values**2) * domain.cell_volume))
    rep.results["energy"] = sol.energy
    rep.results["weak_residual"] = sol.gradient_norm
    rep.results["nehari_residual"] = sol.nehari_residual
    rep.results["solution_l2_norm"] = unorm
    rep.results["solution_max"] = float(np.max(np.abs(sol.u.values)))
    rep.results["mountain_pass_level"] = sol.mountain_pass_level
    rep.results["iterations"] = float(sol.iterations)
    rep.results["newton_steps"] = float(sol.newton_steps)
    rep.add_check("weak_residual", sol.gradient_norm, args.tol, "<=")
    rep.add_check("nontrivial", unorm, 1e-8, ">=")
    rep.add_check("positive_energy", sol.energy, 0.0, ">=")
    if args.solution_out:
        with _writing(args.solution_out):
            save_grid(sol.u, args.solution_out)


def cmd_pohozaev(args, rep: RunReport) -> None:
    a = _alpha(args.alpha)
    coef = pohozaev_coefficient(args.p, a)
    rep.results["coefficient"] = coef
    rep.results["classification"] = nonexistence_classify(args.p)
    if args.solve:
        from .solver import Domain, solve_ground_state

        # the solver's exponent q = p + 1 needs 2 < q, the identity p < 5
        if not 1.0 < args.p < CRITICAL_POWER:
            raise DomainError(f"identity runs need 1 < --p < 5, got --p {args.p!r}")
        sol = solve_ground_state(Domain.cube(args.half_width, args.grid), args.p + 1.0, a, args.tol)
        por = pohozaev_residual(sol.u, args.p, a)
        rep.resolutions = {"grid": args.grid}
        rep.results["lhs"] = por.lhs
        rep.results["rhs"] = por.rhs
        rep.results["identity_residual"] = por.residual
        rep.results["star_shaped_min"] = por.star_shaped
        rep.add_check("identity_residual", por.residual, 0.10, "<=")
        rep.add_check("star_shaped", por.star_shaped, -1e-10, ">=")


def _add_quad_args(p):
    # every CLI shape and its flattened image carry analytic patches, so
    # patch quadrature alone sets the accuracy
    p.add_argument(
        "--surface-resolution",
        type=int,
        default=geometry.DEFAULT_SURFACE_RESOLUTION,
        help=f"Gauss nodes per patch axis, 1 to {geometry.MAX_SURFACE_RESOLUTION}; each panel between sector walls and "
        "axis points takes ceil(m / panels) of them",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grushin3d",
        description="Weighted isoperimetry, symmetrization, Sobolev constants and the degenerate semilinear solver",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="weighted measures and isoperimetric deficit of a corpus shape")
    g.add_argument("--shape", required=True)
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--radius", type=float, default=None)
    g.add_argument("--halfheight", type=float, default=None)
    g.add_argument("--semiaxes", type=float, nargs=3, default=None)
    g.add_argument("--half-widths", type=float, nargs=3, default=None)
    g.add_argument("--center", type=float, nargs=3, default=None)
    g.add_argument("--sector", type=int, default=None)
    _add_quad_args(g)
    g.set_defaults(func=cmd_geometry)

    t = sub.add_parser("transform-check", help="flattening-map pushforward identities")
    t.add_argument("--alpha", type=float, required=True)
    t.add_argument("--shape", default="ball-sector", help="ball-sector or small-ball")
    _add_quad_args(t)
    t.set_defaults(func=cmd_transform_check)

    r = sub.add_parser("rearrange", help="weighted decreasing rearrangement of a grid function")
    r.add_argument("--input", required=True, help="grid function file (grushin-grid v1)")
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--levels", type=int, default=rearrangement.DEFAULT_LEVELS)
    r.add_argument("--profile-csv", default=None)
    r.set_defaults(func=cmd_rearrange)

    s = sub.add_parser("sobolev", help="radial constant, lower bounds, Rayleigh minimisation")
    s.add_argument("--alphas", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    s.add_argument("--resolution", type=int, default=sobolev.DEFAULT_RAYLEIGH_RESOLUTION)
    s.add_argument("--minimize", action="store_true")
    s.add_argument("--csv", default=None)
    s.set_defaults(func=cmd_sobolev)

    so = sub.add_parser("solve", help="ground state of the subcritical power problem")
    so.add_argument("--alpha", type=float, required=True)
    so.add_argument("--q", type=float, required=True)
    so.add_argument("--grid", type=int, default=48)
    so.add_argument("--half-width", type=float, default=1.0)
    so.add_argument("--tol", type=float, default=pohozaev.DEFAULT_GROUND_STATE_TOL)
    so.add_argument("--solution-out", default=None)
    so.set_defaults(func=cmd_solve)

    po = sub.add_parser("pohozaev", help="dilation identity coefficient / residual")
    po.add_argument("--p", type=float, required=True)
    po.add_argument("--alpha", type=float, required=True)
    po.add_argument("--solve", action="store_true")
    po.add_argument("--grid", type=int, default=64)
    po.add_argument("--half-width", type=float, default=1.0)
    po.add_argument("--tol", type=float, default=pohozaev.DEFAULT_GROUND_STATE_TOL)
    po.set_defaults(func=cmd_pohozaev)

    for p in (g, t, r, s, so, po):
        p.add_argument("--output", default=None, help="write the JSON report here as well")
    return parser


def _non_finite(items):
    """Key of the first value that is, or holds, a NaN or an infinity."""
    for key, value in items:
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            return key
    return None


def _write_stdout(text: str) -> int:
    """Write ``text`` to stdout and flush: 0, or the usage-error exit code
    when stdout cannot be written (a pipe whose reader has closed)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except OSError as exc:
        # the interpreter flushes stdout again at exit; that goes to devnull
        with suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"usage error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    # argparse drops a failed write of --help or --version; they print here
    # and end like a report does
    shown = io.StringIO()
    try:
        with redirect_stdout(shown):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        exc.code = _write_stdout(shown.getvalue()) or exc.code
        raise
    t0 = time.perf_counter()
    try:
        bad = _non_finite(vars(args).items())
        if bad is not None:
            raise DomainError(f"--{bad.replace('_', '-')} must be finite")
        rep = RunReport(args.command, {k: v for k, v in vars(args).items() if k != "func"})
        # a NaN or overflow shows as the one line below, not as numpy warnings
        with np.errstate(all="ignore"):
            args.func(args, rep)
        checks = ((f"check {c.name}", [c.value, c.threshold, c.margin]) for c in rep.checks)
        bad = _non_finite([*rep.results.items(), *checks])
        if bad is not None:
            raise ComputationError(f"{bad} is not finite")
        rep.wall_time_s = time.perf_counter() - t0
        text = rep.to_json()
        if args.output:
            with _writing(args.output), open(args.output, "w") as fh:
                fh.write(text + "\n")
    except GridFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_EXIT
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ComputationError as exc:
        last = getattr(exc, "last_residual", None)
        tail = "" if last is None else f" (last residual {last:.3e})"
        print(f"numerical failure: {exc}{tail}", file=sys.stderr)
        return NUMERICAL_EXIT
    except Exception as exc:  # an unforeseen failure, MemoryError included
        print(f"numerical failure: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return NUMERICAL_EXIT
    return _write_stdout(text + "\n") or (0 if rep.all_passed else 1)


if __name__ == "__main__":
    sys.exit(main())
