"""Workload definitions: the operations of one pass, their inputs and checks.

A workload is a fixed list of operations run in order by one client that
starts each operation only after the previous one has finished (a closed
loop with one client).  Operations call the public CLI in-process through
``grushin3d.cli.main`` or a public library function.  Each operation is
checked against a closed-form or independent reference; the relative
errors it reports feed ``max_rel_err`` and a missed tolerance counts the
operation as failed.

Why each workload:

* ``solve``: the ``solver`` layer does nearly all of the work.  Two box
  domains (the case a fast exact box solver would serve) sit beside a
  ball-masked domain that only the CG layer can serve.
* ``geometry``: voxel and patch quadrature do nearly all of the work.  The
  ball sector has closed-form measures; ``transform-check`` integrates a
  flattened image without patches, so it keeps the voxel route whatever
  happens to patch-first geometry.
* ``fields``: grid text I/O, rearrangement, grid energies and the
  ``fields``/``sobolev`` grid builders do the work; ``solver`` and
  ``geometry`` do none.  Grid writes sit beside grid reads.

Only ``fields`` depends on the seed: it draws its bump fields from it.
``solve`` and ``geometry`` are fixed problem definitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("solve", "geometry", "fields")

# bump fields per pass of the `fields` workload, and their grid size
FIELD_COUNT = 4
FIELD_N = 96

# Smallest eigenvalue of the discrete operator (alpha = 1, n = 32, ball of
# radius 0.95 masked out of [-1, 1]^3).  Computed independently of the
# library by poincare_reference.py: the stencil is assembled as a sparse
# matrix and its lowest eigenvalue found by shift-invert Lanczos.
POINCARE_BALL_REF = 7.9010105684458765


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``run`` returns whatever ``check`` needs.  ``check`` returns the
    operation's failure reasons, its relative errors against references
    and a digest of its deterministic output.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], "Verdict"]
    seeded: bool = False


@dataclass
class Verdict:
    reasons: list = field(default_factory=list)
    rel_errs: dict = field(default_factory=dict)
    digest: str = ""

    def err(self, name, err, tol=None):
        """Record a relative error; fail when it exceeds tol (if given)."""
        self.rel_errs[name] = err
        if tol is not None and not err <= tol:
            self.reasons.append(f"{name}: relative error {err:.3e} > {tol:g}")

    def rel(self, name, value, ref, tol=None):
        self.err(name, abs(value - ref) / abs(ref), tol)

    def at_least(self, name, value, bound):
        if not value >= bound:
            self.reasons.append(f"{name}: {value!r} < {bound!r}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli_op(name, argv, expect, seeded=False) -> Op:
    """An in-process ``grushin3d.cli.main`` call, checked by ``expect``.

    The report printed on stdout is captured and parsed; exit code and
    ``all_passed`` are checked for every CLI operation, then ``expect``
    adds its reference comparisons on the parsed report.
    """
    from grushin3d import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def check(out):
        code, text = out
        v = Verdict()
        if code != 0:
            v.reasons.append(f"exit code {code}")
        try:
            rep = json.loads(text)
        except json.JSONDecodeError:
            v.reasons.append("stdout is not a JSON report")
            return v
        if rep.get("all_passed") is not True:
            failed = [c["name"] for c in rep.get("checks", []) if not c.get("passed")]
            v.reasons.append(f"all_passed is false: {failed}")
        v.digest = _sha(
            json.dumps({"results": rep["results"], "checks": rep["checks"]}, sort_keys=True).encode()
        )
        expect(rep["results"], v)
        return v

    return Op(name, run, check, seeded)


# ---------------------------------------------------------------------------
# closed forms


def _sector_count(a):
    return math.ceil(a + 1.0)


def ball_sector_volume(a):
    return 2.0 * math.pi * (a + 1.0) / (3.0 * _sector_count(a))


def ball_sector_perimeter(a):
    return 2.0 * (a + 1.0) * math.pi / _sector_count(a)


def reference_quotient(a):
    return ball_sector_perimeter(a) ** 1.5 / ball_sector_volume(a)


def ellipsoid_volume_half(a1, a2, a3):
    """Weighted volume of an ellipsoid for alpha = 1/2 (weight |x|).

    Scaling to the unit ball and integrating in spherical coordinates gives
    (pi/2) a1^2 a2 a3 E(1 - a2^2/a1^2), E the complete elliptic integral of
    the second kind.
    """
    from scipy.special import ellipe

    return math.pi / 2.0 * a1 * a1 * a2 * a3 * float(ellipe(1.0 - a2 * a2 / (a1 * a1)))


# sharp radial constant for (p, m, q) = (2, 3, 6)
TALENTI = math.sqrt(3.0) * (math.pi / 16.0) ** (1.0 / 3.0)


def sobolev_lower_bound(a):
    return (2.0 * math.pi / _sector_count(a)) ** (1.0 / 3.0) * (a + 1.0) ** (1.0 / 3.0) * TALENTI


# ---------------------------------------------------------------------------
# workloads


def _read_grid_values(path):
    """Values of a grushin-grid v1 file, parsed without the library."""
    with open(path) as fh:
        lines = fh.read().split("\n", 3)
    return np.array(lines[3].split(), dtype=float)


def solve_ops(workdir) -> list[Op]:
    from grushin3d import solver

    sol_path = os.path.join(workdir, "solution.grid")

    def expect_solve(res, v):
        # on the Nehari set <Au,u> = b and energy = (1/2 - 1/q) <Au,u>
        v.err("nehari_identity", res["nehari_residual"] / (4.0 * res["energy"]), 1e-9)
        v.rel("mountain_pass_level", res["mountain_pass_level"], res["energy"], 1e-9)
        vals = _read_grid_values(sol_path)
        l2 = math.sqrt(float(np.sum(vals**2)) * (2.0 / 32) ** 3)
        v.rel("solution_file_l2", l2, res["solution_l2_norm"], 1e-12)

    def expect_pohozaev(res, v):
        v.rel("pohozaev_coefficient", res["coefficient"], 6.0 / 4.0 - 1.0, 1e-12)
        # identity_residual is the relative defect of the dilation identity
        v.err("pohozaev_identity", res["identity_residual"])

    n = 32
    cube = solver.Domain.cube(1.0, n)
    X1, X2, Y = cube.centers()
    ball = solver.Domain(cube.bbox, cube.dims, (X1**2 + X2**2 + Y**2) < 0.95**2)

    def check_poincare(lam):
        v = Verdict(digest=_sha(repr(lam).encode()))
        v.rel("poincare_ball", lam, POINCARE_BALL_REF, 1e-7)
        return v

    return [
        cli_op(
            "solve",
            ["solve", "--alpha", "1", "--q", "4", "--grid", "32", "--solution-out", sol_path],
            expect_solve,
        ),
        cli_op("pohozaev", ["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "24"], expect_pohozaev),
        # looked up at call time, so a traced run sees the wrapped function
        Op("poincare_ball", lambda: solver.poincare_constant(ball, 1.0), check_poincare),
    ]


def _expect_geometry(a, volume_ref):
    def expect(res, v):
        v.rel("weighted_volume", res["weighted_volume"], volume_ref, 1e-3)
        q_ref = reference_quotient(a)
        v.rel("reference_quotient", res["reference_quotient"], q_ref, 1e-12)
        v.rel("deficit_identity", res["isoperimetric_deficit"] + q_ref, res["isoperimetric_quotient"], 1e-12)

    return expect


def geometry_ops(workdir) -> list[Op]:
    def expect_ellipsoid(res, v):
        _expect_geometry(0.5, ellipsoid_volume_half(1.3, 0.8, 0.6))(res, v)
        # a shape outside any single sector: all four sectors make up the perimeter
        sectors = sum(res[f"sector_perimeter_{j}"] for j in range(1, 5))
        v.rel("sector_sum", sectors, res["weighted_perimeter"], 1e-9)
        q = res["weighted_perimeter"] ** 1.5 / res["weighted_volume"]
        v.rel("quotient_identity", res["isoperimetric_quotient"], q, 1e-9)

    def expect_sector(res, v):
        _expect_geometry(1.0, ball_sector_volume(1.0))(res, v)
        v.rel("sector_perimeter_1", res["sector_perimeter_1"], ball_sector_perimeter(1.0), 1e-3)
        v.rel("isoperimetric_quotient", res["isoperimetric_quotient"], reference_quotient(1.0), 1e-3)
        # a sector shape: the relative (wall-free) perimeter enters the quotient
        q = res["sector_perimeter_1"] ** 1.5 / res["weighted_volume"]
        v.rel("quotient_identity", res["isoperimetric_quotient"], q, 1e-9)

    def expect_transform(res, v):
        v.err("volume_rel_gap", res["volume_rel_gap"])
        v.err("perimeter_rel_gap", res["perimeter_rel_gap"])
        v.rel("volume_weighted", res["volume_weighted"], ball_sector_volume(1.0), 1e-3)
        v.rel("perimeter_weighted", res["perimeter_weighted"], ball_sector_perimeter(1.0), 1e-3)

    return [
        cli_op(
            "geometry_ellipsoid",
            ["geometry", "--shape", "ellipsoid", "--alpha", "0.5", "--semiaxes", "1.3", "0.8", "0.6"],
            expect_ellipsoid,
        ),
        cli_op("geometry_ball_sector", ["geometry", "--shape", "ball-sector", "--alpha", "1"], expect_sector),
        cli_op("transform_check", ["transform-check", "--alpha", "1"], expect_transform),
    ]


def bump_fields(seed, count=FIELD_COUNT, n=FIELD_N):
    """``count`` nonnegative smooth fields on n^3 grids, drawn from ``seed``.

    Each is a sum of three compactly supported bumps exp(-r^2/(1-r^2)) with
    random centres, widths and amplitudes, in a box of random half-widths.
    Returns (bbox, values) pairs.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        half = rng.uniform(0.9, 1.2, size=3)
        axes = [((np.arange(n) + 0.5) / n * 2.0 - 1.0) * h for h in half]
        X1, X2, Y = np.meshgrid(*axes, indexing="ij", sparse=True)
        u = np.zeros((n, n, n))
        for _ in range(3):
            ctr = rng.uniform(-0.35, 0.35, size=3) * half
            width = rng.uniform(0.8, 1.1) * float(half.min())
            rho2 = ((X1 - ctr[0]) ** 2 + (X2 - ctr[1]) ** 2 + (Y - ctr[2]) ** 2) / width**2
            inside = rho2 < 1.0
            u += rng.uniform(0.3, 1.0) * np.where(inside, np.exp(-rho2 / np.where(inside, 1.0 - rho2, 1.0)), 0.0)
        out.append((np.column_stack([-half, half]), u))
    return out


def fields_ops(workdir, seed) -> list[Op]:
    from grushin3d import grids

    ops = []
    for i, (bbox, values) in enumerate(bump_fields(seed)):
        grid = grids.GridFunction3D(bbox, values)
        path = os.path.join(workdir, f"field{i}.grid")
        csv = os.path.join(workdir, f"profile{i}.csv")
        top = float(values.max())

        def check_save(_, path=path):
            with open(path, "rb") as fh:
                return Verdict(digest=_sha(fh.read()))

        def expect_rearrange(res, v, top=top, csv=csv):
            # the text format round-trips bit for bit
            if res["max_input"] != top:
                v.reasons.append(f"max_input {res['max_input']!r} != written max {top!r}")
            v.rel("max_preserved", res["max_profile"], top)
            v.err("equimeasurability", res["equimeasurability_gap"] / res["support_measure"])
            for q in (2, 4, 6):
                v.rel(f"l{q}_norm_preserved", res[f"l{q}_norm_profile"], res[f"l{q}_norm_input"])
            with open(csv) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != res["profile_csv_rows"]:
                v.reasons.append(f"profile CSV has {rows} rows, report says {res['profile_csv_rows']}")

        ops.append(Op(f"save_grid{i}", lambda grid=grid, path=path: grids.save_grid(grid, path), check_save, seeded=True))
        ops.append(
            cli_op(
                f"rearrange{i}",
                ["rearrange", "--input", path, "--alpha", "1", "--profile-csv", csv],
                expect_rearrange,
                seeded=True,
            )
        )

    def expect_sobolev(res, v):
        v.rel("talenti_quadrature", res["talenti_quadrature_mean"], TALENTI, 1e-9)
        for a in (0.5, 1.0, 2.0):
            key = f"alpha_{a:g}"
            L = sobolev_lower_bound(a)
            v.rel("lower_bound_" + key, res[f"{key}_lower_bound"], L, 1e-12)
            v.at_least("rayleigh_" + key, res[f"{key}_rayleigh_min"], 0.97 * L)
            v.rel("rayleigh_" + key, res[f"{key}_rayleigh_min"], L)

    ops.append(cli_op("sobolev_minimize", ["sobolev", "--minimize"], expect_sobolev))
    return ops


def build(workload: str, workdir: str, seed: int) -> list[Op]:
    """The operations of one pass; inputs are made here, outside any timing."""
    if workload == "solve":
        return solve_ops(workdir)
    if workload == "geometry":
        return geometry_ops(workdir)
    if workload == "fields":
        return fields_ops(workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")
