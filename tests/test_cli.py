import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushin3d import cli, geometry, rearrangement, shapes
from grushin3d.cli import main
from grushin3d.fields import cosine_bump, radial_field
from grushin3d.grids import GRID_MAGIC, load_grid, save_grid
from grushin3d.rearrangement import distribution_function, polya_szego_gap, rearrange


def subprocess_env(**extra):
    """The environment of a child process that imports this package's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


FAST_GEO = ["--surface-resolution", "96"]


def count_calls(monkeypatch, name, original, wrap=None):
    """The argument tuples of every call to ``original``, spied under
    ``name`` in each package module that holds it; ``wrap``, if given,
    maps them to the arguments that ``original`` receives."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*(wrap(*args) if wrap else args), **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("grushin3d.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


class TestGeometryCommand:
    def test_ball_sector_reference(self, capsys):
        code, rep = run_cli(
            ["geometry", "--shape", "ball-sector", "--alpha", "1", *FAST_GEO], capsys
        )
        assert code == 0
        res = rep["results"]
        assert res["isoperimetric_quotient"] == pytest.approx(7.51988, rel=2e-2)
        assert abs(res["isoperimetric_deficit"]) <= 0.01 * res["reference_quotient"]
        assert rep["all_passed"]

    def test_cylinder_volume(self, capsys):
        code, rep = run_cli(
            [
                "geometry", "--shape", "cylinder", "--alpha", "1",
                "--radius", "1", "--halfheight", "1", *FAST_GEO,
            ],
            capsys,
        )
        assert code == 0
        assert rep["results"]["weighted_volume"] == pytest.approx(math.pi, rel=1e-2)

    def test_unknown_shape_is_usage_error(self, capsys):
        code, _ = run_cli(["geometry", "--shape", "torus", "--alpha", "1"], capsys)
        assert code == 2

    def test_missing_alpha_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["geometry", "--shape", "ball"])
        assert err.value.code == 2

    def test_deterministic_rerun(self, capsys):
        args = ["geometry", "--shape", "ellipsoid", "--alpha", "0.5", *FAST_GEO]
        _, rep1 = run_cli(args, capsys)
        _, rep2 = run_cli(args, capsys)
        assert rep1["results"] == rep2["results"]
        assert rep1["checks"] == rep2["checks"]

    def test_checks_recomputable(self, capsys):
        _, rep = run_cli(["geometry", "--shape", "box", "--alpha", "2", *FAST_GEO], capsys)
        for chk in rep["checks"]:
            recomputed = (
                chk["value"] <= chk["threshold"]
                if chk["op"] == "<="
                else chk["value"] >= chk["threshold"]
            )
            assert recomputed == chk["passed"]
            margin = (
                chk["threshold"] - chk["value"]
                if chk["op"] == "<="
                else chk["value"] - chk["threshold"]
            )
            assert margin == pytest.approx(chk["margin"], abs=0)

    @pytest.mark.parametrize(
        "shape_args, num_sectors",
        [
            (["--shape", "ellipsoid", "--alpha", "0.5", "--semiaxes", "1.3", "0.8", "0.6"], 4),
            (["--shape", "ball-sector", "--alpha", "1"], 4),
            (["--shape", "ball-sector", "--alpha", "2.5", "--sector", "3"], 8),
        ],
    )
    def test_each_measure_computed_once(self, shape_args, num_sectors, monkeypatch, capsys):
        sweeps = count_calls(monkeypatch, "_patch_blocks", geometry._patch_blocks)
        code, rep = run_cli(["geometry", *shape_args, *FAST_GEO], capsys)
        assert code == 0
        # one sweep of the patch nodes gives the volume and every perimeter,
        # and one at half the resolution the quadrature error indicator
        assert [args[1:] for args in sweeps] == [(96, num_sectors // 2), (48, num_sectors // 2)]
        res = rep["results"]
        assert sorted(k for k in res if k.startswith("sector_perimeter_")) == sorted(
            f"sector_perimeter_{j}" for j in range(1, num_sectors + 1)
        )
        # a ball sector without --sector is sector 1, ball_sector's default
        sector = rep["params"]["sector"] or 1 if "ball-sector" in shape_args else None
        per = res["weighted_perimeter"] if sector is None else res[f"sector_perimeter_{sector}"]
        assert res["isoperimetric_quotient"] == per**1.5 / res["weighted_volume"]

    @pytest.mark.parametrize(
        "shape_args, shape",
        [
            (
                ["--shape", "ellipsoid", "--alpha", "0.5", "--semiaxes", "1.3", "0.8", "0.6"],
                shapes.ellipsoid((1.3, 0.8, 0.6)),
            ),
            (["--shape", "ball-sector", "--alpha", "2.5", "--sector", "3"], shapes.ball_sector(2.5, 3)),
        ],
        ids=["ellipsoid", "sector-3"],
    )
    @pytest.mark.parametrize("m", [7, 64])
    def test_quadrature_rel_change(self, shape_args, shape, m, capsys):
        # the largest relative change of the volume, the perimeter that
        # enters the quotient and the quotient from ceil(m / 2) to m; a
        # report value, not a check
        code, rep = run_cli(["geometry", *shape_args, "--surface-resolution", str(m)], capsys)
        assert code == 0
        alpha = rep["params"]["alpha"]
        pairs = []
        for ms in (geometry.measure(shape, alpha, m), geometry.measure(shape, alpha, -(-m // 2))):
            per = ms.perimeter if shape.sector is None else ms.sectors[shape.sector - 1]
            pairs.append((ms.volume, per, per**1.5 / ms.volume))
        want = max(abs(f - c) / max(abs(f), abs(c)) for f, c in zip(*pairs))
        assert rep["results"]["quadrature_rel_change"] == want
        assert want > 0.0 and "quadrature_rel_change" not in {c["name"] for c in rep["checks"]}

    def test_quadrature_rel_change_without_a_volume(self):
        # a zero volume leaves the quotient out: the volume's change is 1
        assert cli._rel_change((1.0, 2.0), (0.0, 1.0)) == 1.0
        assert cli._rel_change((0.0, 2.0), (0.0, 1.0)) == 0.5

    def test_zero_volume_is_usage_error(self, capsys):
        # |x|^2 underflows to 0 on a ball of radius 1e-200
        code, rep = run_cli(
            ["geometry", "--shape", "ball", "--alpha", "1", "--radius", "1e-200", *FAST_GEO], capsys
        )
        assert code == 2
        assert rep is None


class TestTransformCheckCommand:
    def test_ball_sector(self, capsys):
        code, rep = run_cli(
            ["transform-check", "--alpha", "1", "--surface-resolution", "128"],
            capsys,
        )
        assert code == 0
        assert rep["results"]["volume_rel_gap"] <= 1e-3
        assert rep["results"]["perimeter_rel_gap"] <= 1e-2

    @pytest.mark.parametrize("shape", ["ball-sector", "small-ball"])
    def test_default_resolution_at_rounding(self, shape, capsys):
        # neither shape has a kink inside a panel: the volume gap and the
        # change from m = 32 to 64 are rounding
        code, rep = run_cli(["transform-check", "--alpha", "1", "--shape", shape], capsys)
        assert code == 0
        assert rep["results"]["volume_rel_gap"] <= 1e-13
        assert rep["results"]["quadrature_rel_change"] <= 1e-13
        assert "quadrature_rel_change" not in {c["name"] for c in rep["checks"]}

    @pytest.mark.parametrize(
        "alpha, shape, values",
        [
            ("0.5", "ball-sector", (1.5707963267948988, 1.5707963267948988, 4.712388980384696, 4.712388980384696)),
            ("0.5", "small-ball", (0.06388597581771563, 0.0638859758177157, 0.7730717472009682, 0.7730717472009683)),
            ("1", "ball-sector", (2.0943951023931984, 2.0943951023931984, 6.2831853071795845, 6.2831853071795845)),
            ("1", "small-ball", (0.06505185893996378, 0.06505185893996382, 0.783182680451228, 0.7831826804512283)),
            ("2.5", "ball-sector", (1.8325957145940484, 1.8325957145940484, 5.497787143782118, 5.497787143782118)),
            ("2.5", "small-ball", (0.010518962001760486, 0.0105189620017605, 0.23270151557566587, 0.2327015155756659)),
            ("400", "ball-sector", (2.0943951023931824, 2.094395102393186, 6.2831853071795605, 6.283185307179558)),
            (
                "400",
                "small-ball",
                (1.2150205412327078e-08, 1.2150205412327157e-08, 2.573811192227678e-05, 2.5738111922276802e-05),
            ),
        ],
    )
    def test_own_shapes_accepted_with_their_values(self, alpha, shape, values, capsys):
        # both shapes lie in sector 1 at every alpha; their values are
        # pinned to the bit
        code, rep = run_cli(["transform-check", "--alpha", alpha, "--shape", shape], capsys)
        assert code == 0
        keys = ("volume_weighted", "volume_euclidean", "perimeter_weighted", "perimeter_euclidean")
        assert tuple(rep["results"][k] for k in keys) == values

    def test_large_alpha(self, capsys):
        # the image of the ball sector spans ~1e11 at alpha = 400; its
        # patches still see the unit half-ball
        code, rep = run_cli(["transform-check", "--alpha", "400"], capsys)
        assert code == 0
        assert rep["results"]["volume_rel_gap"] <= 1e-3
        assert rep["results"]["volume_euclidean"] == pytest.approx(2 * math.pi / 3, rel=1e-3)

    def test_largest_alpha(self, capsys):
        # the image of the ball sector spans r^{16384} at alpha = 16383; both
        # image measures and the containment check come from the source
        # nodes
        code, rep = run_cli(["transform-check", "--alpha", "16383", "--surface-resolution", "32"], capsys)
        assert code == 0
        assert rep["results"]["perimeter_rel_gap"] <= 1e-12

    @pytest.mark.parametrize("shape", ["ball-sector", "small-ball"])
    def test_source_and_image_swept_once(self, shape, monkeypatch, capsys):
        calls = []

        def counted(patch, k):
            def param(s, t):
                calls.append(("param", k))
                return patch.param(s, t)

            def cross(s, t):
                calls.append(("cross", k))
                return patch.cross(s, t)

            return dataclasses.replace(patch, param=param, cross=cross)

        def with_counted_patches(shape_, m, n):
            patches = [counted(p, k) for k, p in enumerate(shape_.patches)]
            return dataclasses.replace(shape_, patches=patches), m, n

        sweeps = count_calls(monkeypatch, "_patch_blocks", geometry._patch_blocks, wrap=with_counted_patches)
        reductions = count_calls(monkeypatch, "_sweep", geometry._sweep)
        # 300^2 nodes per patch: three blocks of whole rows, and one block of
        # 150^2 in the sweep at half the resolution (neither shape has a break)
        code, _ = run_cli(["transform-check", "--alpha", "1", "--shape", shape, "--surface-resolution", "300"], capsys)
        assert code == 0
        # two sweeps in all: the sector-1 containment check rides on the
        # fine one, pushforward_checks', and takes no samples of its own
        assert [args[2].__qualname__.partition(".")[0] for args in reductions] == ["pushforward_checks", "measure"]
        # one sweep of the source patches gives both weighted sides and both
        # image measures, and one measure sweep at half the resolution the
        # quadrature error indicator; each block evaluates its patch once
        assert [args[1:] for args in sweeps] == [(300, 2), (150, 2)]
        assert not any(args[0].name.startswith("flat(") for args in sweeps)
        patches = len(sweeps[0][0].patches)
        evaluations = [(f, k) for blocks in (3, 1) for k in range(patches) for _ in range(blocks) for f in ("param", "cross")]
        assert calls == evaluations


class TestPatchOnlyCli:
    """Patch quadrature sets the accuracy of every geometric CLI result."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["geometry", "--shape", "ellipsoid", "--alpha", "0.5", "--semiaxes", "1.3", "0.8", "0.6", *FAST_GEO],
            ["geometry", "--shape", "cylinder", "--alpha", "1", *FAST_GEO],
            ["geometry", "--shape", "ball-sector", "--alpha", "2", *FAST_GEO],
            ["transform-check", "--alpha", "1", *FAST_GEO],
            ["transform-check", "--alpha", "1", "--shape", "small-ball", *FAST_GEO],
        ],
    )
    def test_no_voxel_or_triangulation_calls(self, argv, capsys):
        code, rep = run_cli(argv, capsys)
        assert code == 0
        assert rep["resolutions"] == {"surface_resolution": 96}

    @pytest.mark.parametrize("flag", ["--resolution", "--refine-depth"])
    @pytest.mark.parametrize(
        "argv", [["geometry", "--shape", "ball", "--alpha", "1"], ["transform-check", "--alpha", "1"]]
    )
    def test_voxel_flags_are_rejected(self, argv, flag):
        with pytest.raises(SystemExit) as err:
            main([*argv, flag, "2"])
        assert err.value.code == 2


# each shape flag, by the builder parameter it sets
SHAPE_FLAGS = {
    "radius": ["--radius", "0.8"], "half_height": ["--halfheight", "1.4"], "semiaxes": ["--semiaxes", "1.3", "0.8", "0.6"],
    "half_widths": ["--half-widths", "1.2", "0.7", "0.9"], "center": ["--center", "0.5", "0.1", "-0.2"],
    "j": ["--sector", "3"],
}


class TestDefaults:
    def test_options_and_signatures_read_one_constant(self):
        # each default a CLI option shares with a library signature is one
        # named constant of the module that owns it
        import inspect

        from grushin3d import pohozaev, solver, sobolev, transform

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        parse = cli.build_parser().parse_args
        surface = geometry.DEFAULT_SURFACE_RESOLUTION
        assert parse(["geometry", "--shape", "ball", "--alpha", "1"]).surface_resolution == surface
        assert parse(["transform-check", "--alpha", "1"]).surface_resolution == surface
        for fn in (geometry.measure, geometry.isoperimetric_quotient, geometry.isoperimetric_deficit):
            assert default(fn, "surface_resolution") == surface
        assert default(transform.pushforward_checks, "surface_resolution") == surface
        levels = rearrangement.DEFAULT_LEVELS
        assert parse(["rearrange", "--input", "x", "--alpha", "1"]).levels == levels
        for fn in (rearrangement.distribution_function, rearrangement.rearrange, rearrangement.polya_szego_gap):
            assert default(fn, "levels") == levels
        resolution = sobolev.DEFAULT_RAYLEIGH_RESOLUTION
        assert parse(["sobolev"]).resolution == default(sobolev.minimize_rayleigh, "resolution") == resolution
        tol = pohozaev.DEFAULT_GROUND_STATE_TOL
        assert parse(["solve", "--alpha", "1", "--q", "4"]).tol == tol
        assert parse(["pohozaev", "--p", "3", "--alpha", "1"]).tol == tol
        assert default(solver.solve_ground_state, "tol") == tol


class TestShapeFromArgs:
    @pytest.mark.parametrize(
        "name, builder, params",
        [
            ("ball", shapes.ball, dict(radius=0.8, center=(0.5, 0.1, -0.2))),
            ("ellipsoid", shapes.ellipsoid, dict(semiaxes=(1.3, 0.8, 0.6), center=(0.5, 0.1, -0.2))),
            ("cylinder", shapes.cylinder, dict(radius=0.8, half_height=1.4, center=(0.5, 0.1, -0.2))),
            ("box", shapes.box, dict(half_widths=(1.2, 0.7, 0.9), center=(0.5, 0.1, -0.2))),
            ("ball-sector", shapes.ball_sector, dict(alpha=1.5, j=3, radius=0.8)),
        ],
    )
    def test_cli_flags_build_the_direct_shape(self, name, builder, params):
        flags = [flag for param in params if param != "alpha" for flag in SHAPE_FLAGS[param]]
        args = cli.build_parser().parse_args(["geometry", "--shape", name, "--alpha", "1.5", *flags])
        via_cli, direct = cli._shape_from_args(args), builder(**params)
        assert via_cli.name == direct.name == name
        assert np.array_equal(via_cli.bbox, direct.bbox)
        pts = np.random.default_rng(3).uniform(-2.0, 2.0, (2000, 3))
        assert np.array_equal(via_cli.level(pts), direct.level(pts))

    @pytest.mark.parametrize("name", ["ball", "ellipsoid", "cylinder", "box", "ball-sector"])
    def test_defaults_without_flags(self, name):
        args = cli.build_parser().parse_args(["geometry", "--shape", name, "--alpha", "1"])
        direct = shapes.ball_sector(1.0) if name == "ball-sector" else shapes.SHAPE_BUILDERS[name]()
        assert np.array_equal(cli._shape_from_args(args).bbox, direct.bbox)


class TestRearrangeCommand:
    def test_radial_bump_energy_ratio(self, tmp_path, capsys):
        grid = radial_field(cosine_bump, 1.0, 1.0, resolution=64)
        path = tmp_path / "bump.grid"
        save_grid(grid, path)
        csv_path = tmp_path / "profile.csv"
        code, rep = run_cli(
            ["rearrange", "--input", str(path), "--alpha", "1", "--profile-csv", str(csv_path)],
            capsys,
        )
        assert code == 0
        res = rep["results"]
        ratio = res["energy_profile"] / res["energy_input"]
        assert ratio == pytest.approx(4.0 ** (-2 / 3), abs=0.02)
        assert rep["all_passed"]
        header = csv_path.read_text().splitlines()[0]
        assert header == "r,phi"

    def test_polya_szego_gap_matches_library(self, tmp_path, capsys):
        grid = radial_field(cosine_bump, 1.0, 1.0, resolution=24)
        path = tmp_path / "bump.grid"
        save_grid(grid, path)
        code, rep = run_cli(["rearrange", "--input", str(path), "--alpha", "1", "--levels", "64"], capsys)
        assert code == 0
        gap = polya_szego_gap(load_grid(path), 1.0, 64)
        assert rep["results"]["polya_szego_gap"] == pytest.approx(gap, abs=1e-12 * max(abs(gap), 1.0))

    def test_one_distribution_per_run(self, tmp_path, capsys, monkeypatch):
        grid = radial_field(cosine_bump, 1.0, 1.0, resolution=24)
        path = tmp_path / "bump.grid"
        save_grid(grid, path)
        calls = []
        real = rearrangement.distribution_function
        # the CLI's own name and the library's, which rearrange() calls
        for module in (cli, rearrangement):
            monkeypatch.setattr(module, "distribution_function", lambda *a, **k: calls.append(a) or real(*a, **k))
        code, rep = run_cli(["rearrange", "--input", str(path), "--alpha", "1", "--levels", "64"], capsys)
        assert code == 0
        assert len(calls) == 1
        # the same numbers as the library's rearrange and distribution_function called apart
        u, alpha = load_grid(path), 1.0
        prof, dist = rearrange(u, alpha, 64), distribution_function(u, alpha, 64)
        res = rep["results"]
        assert res["max_profile"] == prof.max_value
        assert res["support_measure"] == float(dist.measures[0])
        assert res["equimeasurability_gap"] == float(np.max(np.abs(dist.measures - prof.measure_above(dist.levels))))
        assert res["energy_profile"] == prof.dirichlet_energy()
        for q in (2, 4, 6):
            assert res[f"l{q}_norm_profile"] == prof.lq_norm(q)

    def test_zero_field(self, tmp_path, capsys):
        from grushin3d.grids import GridFunction3D

        grid = GridFunction3D(np.array([(-1.0, 1.0)] * 3), np.zeros((8, 8, 8)))
        path, csv = tmp_path / "zero.grid", tmp_path / "zero.csv"
        save_grid(grid, path)
        code, rep = run_cli(["rearrange", "--input", str(path), "--alpha", "1", "--profile-csv", str(csv)], capsys)
        assert code == 0
        # the zero profile gives 0.0 for every value, none of them -0.0, and
        # one CSV row where its nodes() would give two
        keys = ["energy", "l2_norm", "l4_norm", "l6_norm", "max"]
        zeros = {f"{k}_{side}": 0.0 for k in keys for side in ("input", "profile")}
        zeros.update(equimeasurability_gap=0.0, polya_szego_gap=0.0, support_measure=0.0)
        assert json.dumps(rep["results"], sort_keys=True) == json.dumps({**zeros, "profile_csv_rows": 1.0}, sort_keys=True)
        assert [c["value"] for c in rep["checks"]] == [0.0, 0.0, 0.0]
        assert csv.read_text() == "r,phi\n0,0\n"

    def test_maximum_on_the_axis_is_a_null_set(self, tmp_path, capsys):
        # 3^3 cells of [-1.5, 1.5]^3: the 1.0 on the centre column sits on
        # the y-axis, where the weight is 0, so the weighted essential
        # supremum is 0.5 and the profile keeps it
        from grushin3d.grids import GridFunction3D

        values = np.full((3, 3, 3), 0.5)
        values[1, 1, :] = 1.0
        path = tmp_path / "centre.grid"
        save_grid(GridFunction3D(np.array([(-1.5, 1.5)] * 3), values), path)
        _, rep = run_cli(["rearrange", "--input", str(path), "--alpha", "1", "--levels", "4"], capsys)
        assert rep["results"]["max_input"] == rep["results"]["max_profile"] == 0.5
        passed = {c["name"]: c["passed"] for c in rep["checks"]}
        assert passed["max_preserved"] and passed["equimeasurability"] and passed["polya_szego"]

    def test_spike_on_the_axis_passes_every_check(self, tmp_path, capsys):
        # a smooth bump on an odd grid with 2.0 on the centre column, which
        # lies on the y-axis: the spike weighs nothing, so every check,
        # max_preserved included, compares the bump alone
        from grushin3d.grids import CellGrid, GridFunction3D

        n = 49
        cells = CellGrid(np.array([(-1.5, 1.5)] * 3), (n, n, n))
        r2 = sum(c**2 for c in cells.centers(sparse=True))
        values = np.where(r2 < 1.0, np.cos(0.5 * np.pi * np.sqrt(r2)) ** 2, 0.0)
        values[n // 2, n // 2, :] = 2.0
        path = tmp_path / "spike.grid"
        save_grid(GridFunction3D(cells.bbox, values), path)
        code, rep = run_cli(["rearrange", "--input", str(path), "--alpha", "1"], capsys)
        assert code == 0 and all(c["passed"] for c in rep["checks"])
        assert rep["results"]["max_input"] == float(np.max(values[values < 2.0]))

    def test_nan_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.grid"
        path.write_text(f"{GRID_MAGIC}\n2 2 2\n0 1 0 1 0 1\n1 2 3 4\nnan 6 7 8\n")
        code, _ = run_cli(["rearrange", "--input", str(path), "--alpha", "1"], capsys)
        assert code == 3

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (1, 3, 2)])
    def test_axis_of_one_cell_is_input_error(self, dims, tmp_path, capsys, monkeypatch):
        # the grid energies need 2 cells per axis: the file is refused at its
        # dimensions line before any level is counted
        from grushin3d.grids import GridFunction3D

        path = tmp_path / "thin.grid"
        save_grid(GridFunction3D(np.array([(-1.0, 1.0)] * 3), np.ones(dims)), path)
        calls = count_calls(monkeypatch, "distribution_function", distribution_function)
        assert main(["rearrange", "--input", str(path), "--alpha", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        assert captured.err == f"input error: line 2: rearrangement needs at least 2 cells per axis, got dims {dims}\n"

    def test_negative_field_is_input_error(self, tmp_path, capsys):
        from grushin3d.grids import GridFunction3D

        grid = GridFunction3D(np.array([(-1.0, 1.0)] * 3), -np.ones((4, 4, 4)))
        path = tmp_path / "neg.grid"
        save_grid(grid, path)
        code, _ = run_cli(["rearrange", "--input", str(path), "--alpha", "1"], capsys)
        assert code == 3


class TestSobolevCommand:
    def test_constants_table(self, tmp_path, capsys):
        csv_path = tmp_path / "constants.csv"
        code, rep = run_cli(
            ["sobolev", "--alphas", "0.5", "1", "2", "--csv", str(csv_path)], capsys
        )
        assert code == 0
        res = rep["results"]
        assert res["talenti_closed_form"] == pytest.approx(1.0067089, abs=1e-6)
        assert res["alpha_1_lower_bound"] == pytest.approx(1.857650, abs=1e-5)
        assert not [key for key in res if key.endswith("_lower_bound_alt")]
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "alpha,n_alpha,D,L_derived,rayleigh_min"
        assert len(rows) == 4


class TestSolveCommand:
    @pytest.mark.parametrize(
        "limit, message",
        [("_CG_MAX_ITER", "CG did not reach 1e-06 in 1 iterations"), ("_OUTER_MAX_ITER", "ground-state iteration stalled")],
    )
    def test_failure_line_shows_the_last_residual(self, limit, message, capsys, monkeypatch):
        # the residual an IterationError carries is printed once, after the message
        from grushin3d import solver

        monkeypatch.setattr(solver, limit, 1)
        assert main(["solve", "--alpha", "0.5", "--q", "3", "--grid", "8"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"numerical failure: {message} \(last residual \d\.\d{{3}}e[+-]\d+\)\n", captured.err)
        assert captured.err.count("residual") == 1

    def test_small_ground_state(self, tmp_path, capsys):
        out = tmp_path / "solution.grid"
        code, rep = run_cli(
            ["solve", "--alpha", "1", "--q", "4", "--grid", "24", "--tol", "1e-6",
             "--solution-out", str(out)],
            capsys,
        )
        assert code == 0
        res = rep["results"]
        assert res["weak_residual"] <= 1e-6
        assert res["solution_l2_norm"] > 0
        assert res["energy"] > 0
        assert out.exists()

    def test_converges_where_descent_stalls(self, capsys):
        code, rep = run_cli(["solve", "--alpha", "0.5", "--q", "3", "--grid", "16"], capsys)
        assert code == 0
        res = rep["results"]
        assert res["weak_residual"] <= 1e-6
        assert 0 < res["newton_steps"] <= res["iterations"]

    def test_bad_q_usage_error(self, capsys):
        code, _ = run_cli(["solve", "--alpha", "1", "--q", "6", "--grid", "16"], capsys)
        assert code == 2

    def test_config_option_is_gone(self, tmp_path, capsys):
        # the solver's one setting is --tol; argparse rejects anything else
        with pytest.raises(SystemExit) as exc:
            main([*SOLVE, "--config", str(tmp_path / "solver.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


class TestPohozaevCommand:
    def test_critical_power(self, capsys):
        code, rep = run_cli(["pohozaev", "--p", "5", "--alpha", "2"], capsys)
        assert code == 0
        assert rep["results"]["coefficient"] == 0.0
        assert rep["results"]["classification"] == "critical"

    def test_supercritical_requires_no_solve(self, capsys):
        code, rep = run_cli(["pohozaev", "--p", "7", "--alpha", "1"], capsys)
        assert code == 0
        assert rep["results"]["classification"] == "supercritical"
        assert rep["results"]["coefficient"] < 0

    def test_solve_with_supercritical_rejected(self, capsys):
        code, _ = run_cli(["pohozaev", "--p", "6", "--alpha", "1", "--solve"], capsys)
        assert code == 2

    def test_subcritical_solve_satisfies_identity(self, capsys):
        from grushin3d.pohozaev import star_shaped_check
        from grushin3d.solver import Domain

        code, rep = run_cli(["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "24"], capsys)
        assert code == 0
        assert rep["all_passed"]
        res = rep["results"]
        assert res["identity_residual"] <= 0.10
        assert res["star_shaped_min"] == 1.0
        assert res["lhs"] > 0 and res["rhs"] > 0
        assert rep["resolutions"] == {"grid": 24}
        # the check reads the margin of the solution's box, the one -1e-10 threshold
        check = {c["name"]: c for c in rep["checks"]}["star_shaped"]
        assert check["value"] == star_shaped_check(Domain.cube(1.0, 24), 1.0)
        assert check["threshold"] == -1e-10


SOLVE = ["solve", "--alpha", "1", "--q", "4", "--grid", "8"]
SMALL_GRID = f"{GRID_MAGIC}\n2 2 2\n-1 1 -1 1 -1 1\n0 0 0 0 0 1 0 0\n".encode()
# a header one cell over the cap, and a body that is never parsed
OVER_CAP_GRID = f"{GRID_MAGIC}\n257 256 256\n-1 1 -1 1 -1 1\n0\n".encode()
# bbox lines with an infinite entry, and with an extent that overflows
INFINITE_BBOX_GRID = f"{GRID_MAGIC}\n2 2 2\n-inf inf -1 1 -1 1\n0 0 0 0 0 1 0 0\n".encode()
HUGE_BBOX_GRID = f"{GRID_MAGIC}\n2 2 2\n-1e308 1e308 -1 1 -1 1\n0 0 0 0 0 1 0 0\n".encode()


# the stderr line of bad-input cases whose diagnosis is not a file or a non-finite result
BAD_INPUT_LINES = {
    "geometry --shape ball --alpha 1 --surface-resolution 10000000":
        "usage error: surface_resolution must be at most 1024, got 10000000\n",
    "solve --alpha 1 --q 4 --grid 8 --half-width 1e300":
        "numerical failure: OverflowError: (34, 'Numerical result out of range')\n",
    "geometry --shape ball --alpha 1e300": "usage error: alpha must be at most 16383, got 1e+300\n",
    "geometry --shape ball --alpha 16383.5": "usage error: alpha must be at most 16383, got 16383.5\n",
    "solve --alpha 1 --q 4 --grid 8 --tol 0": "usage error: tolerance must be positive and finite, got 0.0\n",
    "solve --alpha 1 --q 4 --grid 100000":
        "usage error: grid (100000, 100000, 100000) has more than 16777216 = 256^3 cells\n",
    "sobolev --alphas 1 --minimize --resolution 257": "usage error: resolution must be at most 256, got 257\n",
    "rearrange --alpha 1 --input FILE --levels 1048577": "usage error: levels must be at most 1048576, got 1048577\n",
    "rearrange --alpha 1 --input FILE --levels 1": "usage error: levels must be at least 2, got 1\n",
    "sobolev --alphas 0.5 0.5000001":
        "usage error: --alphas must give distinct report keys, got alpha_0.5 alpha_0.5\n",
    "sobolev --alphas 1 1": "usage error: --alphas must give distinct report keys, got alpha_1 alpha_1\n",
    "solve --alpha 1 --q 4 --grid 8 --half-width 1e-300":
        "usage error: cell spacing 2.5e-301 is too small: 1/h^2 is not finite\n",
    "solve --alpha 1 --q 4 --grid 8 --half-width 1e308": "usage error: bbox entries and extents must be finite\n",
    "pohozaev --p 3 --alpha 1 --solve --grid 8 --half-width 1e-300":
        "usage error: cell spacing 2.5e-301 is too small: 1/h^2 is not finite\n",
    "pohozaev --p 1 --alpha 1 --solve": "usage error: identity runs need 1 < --p < 5, got --p 1.0\n",
    "geometry --shape ball --alpha 1 --semiaxes 1 2 3": "usage error: --semiaxes does not apply to --shape ball\n",
    "geometry --shape ellipsoid --alpha 1 --radius 5": "usage error: --radius does not apply to --shape ellipsoid\n",
    "geometry --shape box --alpha 1 --sector 7": "usage error: --sector does not apply to --shape box\n",
    "geometry --shape ball-sector --alpha 1 --center 0 0 0":
        "usage error: --center does not apply to --shape ball-sector\n",
    "sobolev --alphas 1 --resolution -5": "usage error: resolution must be at least 2, got -5\n",
    "geometry --shape ball --alpha 1 --surface-resolution 0": "usage error: surface_resolution must be at least 1, got 0\n",
    "geometry --shape ball-sector --alpha 1 --sector 5": "usage error: sector index must be at most 4, got 5\n",
}


class TestBadInput:
    """Bad grids, files and options end in their documented exit code with a
    one-line diagnosis, never in a traceback (exit 1 means a failed check)."""

    @pytest.mark.parametrize(
        "argv, file_bytes, code",
        [
            (["solve", "--alpha", "1", "--q", "4", "--grid", "0"], None, 2),
            (["solve", "--alpha", "1", "--q", "4", "--grid", "-2"], None, 2),
            (["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "0"], None, 2),
            (["sobolev", "--alphas", "1", "--minimize", "--resolution", "0"], None, 2),
            (["sobolev", "--alphas", "1", "--minimize", "--resolution", "1"], None, 2),
            (["rearrange", "--alpha", "1", "--input", "FILE"], None, 3),
            (["rearrange", "--alpha", "1", "--input", "FILE"], b"\xff\xfe\x00binary", 3),
            # tolerances, grids and alphas out of range, rejected before any work
            ([*SOLVE, "--tol", "0"], None, 2),
            ([*SOLVE, "--tol", "-1"], None, 2),
            (["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "8", "--tol", "0"], None, 2),
            (["solve", "--alpha", "1", "--q", "4", "--grid", "100000"], None, 2),
            (["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "100000"], None, 2),
            (["solve", "--alpha", "1", "--q", "4", "--grid", "258"], None, 2),
            (["solve", "--alpha", "1", "--q", "4", "--grid", "7"], None, 2),
            (["solve", "--alpha", "1", "--q", "2", "--grid", "8"], None, 2),
            (["geometry", "--shape", "ball", "--alpha", "16383.5"], None, 2),
            (["transform-check", "--alpha", "1e300"], None, 2),
            (["sobolev", "--alphas", "1e300"], None, 2),
            (["solve", "--alpha", "1e300", "--q", "4", "--grid", "8"], None, 2),
            (["pohozaev", "--p", "3", "--alpha", "1e300"], None, 2),
            (["rearrange", "--alpha", "1e300", "--input", "FILE"], SMALL_GRID, 2),
            # output paths in a directory that does not exist
            ([*SOLVE, "--solution-out", "NOWHERE"], None, 2),
            (["rearrange", "--alpha", "1", "--input", "FILE", "--profile-csv", "NOWHERE"], SMALL_GRID, 2),
            (["pohozaev", "--p", "3", "--alpha", "1", "--output", "NOWHERE"], None, 2),
            (["sobolev", "--alphas", "1", "--csv", "NOWHERE"], None, 2),
            # level counts and exponents out of range
            (["rearrange", "--alpha", "1", "--input", "FILE", "--levels", "0"], SMALL_GRID, 2),
            (["rearrange", "--alpha", "1", "--input", "FILE", "--levels", "-3"], SMALL_GRID, 2),
            (["geometry", "--shape", "ball-sector", "--alpha", "inf"], None, 2),
            (["pohozaev", "--p", "nan", "--alpha", "1"], None, 2),
            # a non-finite flag is a usage error even where the shape ignores it
            (["geometry", "--shape", "ball", "--alpha", "1", "--halfheight", "inf"], None, 2),
            # finite inputs whose measures overflow: no NaN report, exit 4
            (["geometry", "--shape", "ellipsoid", "--alpha", "1", "--semiaxes", "1e200", "1", "1"], None, 4),
            (["geometry", "--shape", "ball-sector", "--alpha", "1", "--radius", "1e300"], None, 4),
            # 10^14 Gauss nodes per patch: above the resolution cap
            (["geometry", "--shape", "ball", "--alpha", "1", "--surface-resolution", "10000000"], None, 2),
            # failures no check foresees: one line naming the exception, exit 4
            (["solve", "--alpha", "1", "--q", "4", "--grid", "8", "--half-width", "1e300"], None, 4),
            # 2 (1e300 + 1) sectors: above the sector cap
            (["geometry", "--shape", "ball", "--alpha", "1e300"], None, 2),
            # one cell more than the 256^3 cap, on every grid
            (["sobolev", "--alphas", "1", "--minimize", "--resolution", "257"], None, 2),
            (["rearrange", "--alpha", "1", "--input", "FILE"], OVER_CAP_GRID, 3),
            # one level more than the cap; refused before the grid is read
            (["rearrange", "--alpha", "1", "--input", "FILE", "--levels", str(2**20 + 1)], OVER_CAP_GRID, 2),
            # alphas that share a report key would overwrite each other's results
            (["sobolev", "--alphas", "0.5", "0.5000001"], None, 2),
            (["sobolev", "--alphas", "1", "1"], None, 2),
            # a half-width so small that the couplings 1/h^2 overflow
            (["solve", "--alpha", "1", "--q", "4", "--grid", "8", "--half-width", "1e-300"], None, 2),
            (["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "8", "--half-width", "1e-300"], None, 2),
            # a bbox that is not finite, or whose extent is not: refused at line 3
            (["rearrange", "--alpha", "1", "--input", "FILE"], INFINITE_BBOX_GRID, 3),
            (["rearrange", "--alpha", "1", "--input", "FILE"], HUGE_BBOX_GRID, 3),
            # the cube [-1e308, 1e308]^3 has an extent that overflows
            (["solve", "--alpha", "1", "--q", "4", "--grid", "8", "--half-width", "1e308"], None, 2),
            # the solver's q = p + 1 needs p > 1; the message names --p, not q
            (["pohozaev", "--p", "1", "--alpha", "1", "--solve"], None, 2),
            # a finite shape whose bbox extent overflows is refused when it is
            # built (at 1e200 the bbox is finite and only the measures overflow)
            (["geometry", "--shape", "ellipsoid", "--alpha", "1", "--semiaxes", "1e308", "1", "1"], None, 2),
            # a shape option that the shape does not take; --alpha is every run's
            (["geometry", "--shape", "ball", "--alpha", "1", "--semiaxes", "1", "2", "3"], None, 2),
            (["geometry", "--shape", "ellipsoid", "--alpha", "1", "--radius", "5"], None, 2),
            (["geometry", "--shape", "box", "--alpha", "1", "--sector", "7"], None, 2),
            (["geometry", "--shape", "ball-sector", "--alpha", "1", "--center", "0", "0", "0"], None, 2),
            # counts out of range, with --minimize or without
            (["sobolev", "--alphas", "1", "--resolution", "-5"], None, 2),
            (["geometry", "--shape", "ball", "--alpha", "1", "--surface-resolution", "0"], None, 2),
            (["geometry", "--shape", "ball-sector", "--alpha", "1", "--sector", "5"], None, 2),
            # a single level, whose profile would be zero; refused before the grid is read
            (["rearrange", "--alpha", "1", "--input", "FILE", "--levels", "1"], OVER_CAP_GRID, 2),
        ],
    )
    def test_exit_code_without_traceback(self, argv, file_bytes, code, tmp_path, capsys):
        path = tmp_path / "input"  # missing unless file_bytes is given
        if file_bytes is not None:
            path.write_bytes(file_bytes)
        nowhere = tmp_path / "missing-dir" / "out"
        assert main([{"FILE": str(path), "NOWHERE": str(nowhere)}.get(a, a) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        prefix = {2: "usage error: ", 3: "input error: ", 4: "numerical failure: "}[code]
        assert captured.err.startswith(prefix)
        assert captured.err.count("\n") == 1
        exact = BAD_INPUT_LINES.get(" ".join(argv))
        if exact is not None:
            assert captured.err == exact
        elif code == 4:
            assert captured.err == "numerical failure: weighted_volume is not finite\n"
        if "NOWHERE" in argv:
            assert captured.err == f"usage error: cannot write {nowhere}: No such file or directory\n"

    def test_closed_stdout_is_usage_error(self):
        # the reader of the pipe has closed its end before the report, the
        # help or the version is printed, with stdout buffered or not;
        # argparse itself would drop the failed write and exit 0
        for argv in (["pohozaev", "--p", "3", "--alpha", "1"], ["--help"], ["--version"]):
            for unbuffered in ("", "1"):
                read_end, write_end = os.pipe()
                os.close(read_end)
                try:
                    done = subprocess.run(
                        [sys.executable, "-m", "grushin3d.cli", *argv], stdin=subprocess.DEVNULL,
                        stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(PYTHONUNBUFFERED=unbuffered),
                        text=True,
                    )
                finally:
                    os.close(write_end)
                assert done.returncode == 2, (argv, unbuffered)
                assert done.stderr == "usage error: cannot write stdout: Broken pipe\n", (argv, unbuffered)

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: grushin3d" if argv == ["--help"] else "grushin3d 0.1.0")


# values a user might type, half of them in range and half small, junk,
# non-finite or out of range; counts stay at most 8 or go past their caps,
# so no drawn run does much work
FUZZ_REALS = st.one_of(
    st.sampled_from(["0.5", "1", "2.5", "3", "4"]),
    st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "x", ""]),
)
FUZZ_COUNTS = st.one_of(st.sampled_from(["2", "8"]), st.sampled_from(["-2", "0", "1", "7", "1.5", "x", "20000"]))
FUZZ_FLAG = st.just([])


def _values(strategy, low=1, high=1):
    return st.lists(strategy, min_size=low, max_size=high)


# per subcommand: options always given (the required ones, and the
# resolutions, so that no run falls back to a costly default) and options
# given or left out
FUZZ_COMMANDS = {
    "geometry": (
        {
            "--shape": _values(st.sampled_from(["ball", "ellipsoid", "cylinder", "box", "ball-sector", "torus", ""])),
            "--alpha": _values(FUZZ_REALS),
            "--surface-resolution": _values(FUZZ_COUNTS),
        },
        {
            "--radius": _values(FUZZ_REALS),
            "--halfheight": _values(FUZZ_REALS),
            "--semiaxes": _values(FUZZ_REALS, 2, 3),
            "--half-widths": _values(FUZZ_REALS, 3, 3),
            "--center": _values(FUZZ_REALS, 3, 3),
            "--sector": _values(FUZZ_COUNTS),
        },
    ),
    "transform-check": (
        {"--alpha": _values(FUZZ_REALS), "--surface-resolution": _values(FUZZ_COUNTS)},
        {"--shape": _values(st.sampled_from(["ball-sector", "small-ball", "ball"]))},
    ),
    "rearrange": (
        {"--input": _values(st.sampled_from(["GRID", "JUNK", "MISSING"])), "--alpha": _values(FUZZ_REALS)},
        {"--levels": _values(FUZZ_COUNTS)},
    ),
    "sobolev": (
        {"--resolution": _values(FUZZ_COUNTS)},
        {"--alphas": _values(FUZZ_REALS, 1, 3), "--minimize": FUZZ_FLAG},
    ),
    "solve": (
        {"--alpha": _values(FUZZ_REALS), "--q": _values(FUZZ_REALS), "--grid": _values(FUZZ_COUNTS)},
        {"--half-width": _values(FUZZ_REALS), "--tol": _values(FUZZ_REALS)},
    ),
    "pohozaev": (
        {"--p": _values(FUZZ_REALS), "--alpha": _values(FUZZ_REALS), "--grid": _values(FUZZ_COUNTS)},
        {"--solve": FUZZ_FLAG, "--half-width": _values(FUZZ_REALS), "--tol": _values(FUZZ_REALS)},
    ),
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    always, optional = FUZZ_COMMANDS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=len(optional)))
    argv = [command]
    for option in [*always, *chosen]:
        argv += [option, *draw({**always, **optional}[option])]
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The files a fuzzed --input names: a valid grid, junk bytes, a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "grid").write_bytes(SMALL_GRID)
    (root / "junk").write_bytes(b"\xff\xfe\x00junk")
    return {"GRID": str(root / "grid"), "JUNK": str(root / "junk"), "MISSING": str(root / "missing")}


def run_fuzzed(argv):
    """(exit code, stdout, stderr) of one in-process run; an exception that
    escapes main, which a shell would show as a traceback, fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCliFuzz:
    @settings(max_examples=40)
    @given(cli_argvs())
    def test_documented_exit_and_valid_json(self, fuzz_inputs, argv):
        code, out, err = run_fuzzed([fuzz_inputs.get(a, a) for a in argv])
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err
        if code in (0, 1):
            strict = lambda c: pytest.fail(f"non-finite {c} in the report")  # noqa: E731
            assert isinstance(json.loads(out, parse_constant=strict), dict)
            assert err == ""
        else:
            assert out == ""
            assert err


class TestReportPlumbing:
    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, rep = run_cli(
            ["pohozaev", "--p", "3", "--alpha", "1", "--output", str(out)], capsys
        )
        assert code == 0
        on_disk = json.loads(out.read_text())
        assert on_disk["results"] == rep["results"]

    def test_sorted_keys(self, capsys):
        _, _ = run_cli(["pohozaev", "--p", "3", "--alpha", "1"], capsys)

    def test_non_finite_report_does_not_serialise(self):
        from grushin3d.report import RunReport

        rep = RunReport("geometry", {})
        rep.results["weighted_volume"] = math.nan
        with pytest.raises(ValueError):
            rep.to_json()
