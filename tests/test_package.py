"""The lazy package namespace, start-up without scipy, and no test-only
code in the package."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import grushin3d
from test_cli import subprocess_env

# In a fresh process: import the CLI and build its parser, then run each
# command in-process, and record the scipy modules loaded after each step.
# Importing the solver comes last and must load scipy, which shows that the
# probe sees what it looks for.
NO_SCIPY_PROBE = r"""
import contextlib, io, json, os, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

import grushin3d.cli as cli
cli.build_parser()
steps = [["import", 0, scipy_modules()]]

from grushin3d.fields import cosine_bump, radial_field
from grushin3d.grids import save_grid
grid = os.path.join(tempfile.mkdtemp(), "bump.grid")
save_grid(radial_field(cosine_bump, 1.0, 1.0, resolution=24), grid)

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([grid if a == "GRID" else a for a in argv])
    steps.append([" ".join(argv), code, scipy_modules()])

import grushin3d.solver
steps.append(["import grushin3d.solver", 0, scipy_modules()])
print(json.dumps(steps))
"""

SCIPY_FREE_RUNS = [
    ["geometry", "--shape", "ball-sector", "--alpha", "1", "--surface-resolution", "32"],
    ["transform-check", "--alpha", "1", "--surface-resolution", "32"],
    ["rearrange", "--input", "GRID", "--alpha", "1", "--levels", "64"],
    ["sobolev", "--minimize", "--resolution", "16"],
    ["pohozaev", "--p", "3", "--alpha", "1"],
]


class TestStartupWithoutScipy:
    def test_cli_and_paper_commands_load_no_scipy(self):
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(SCIPY_FREE_RUNS)],
            stdin=subprocess.DEVNULL, capture_output=True, env=subprocess_env(), text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        steps = json.loads(done.stdout)
        *runs, (_, _, after_solver) = steps
        assert len(runs) == 1 + len(SCIPY_FREE_RUNS)
        for step, code, scipy in runs:
            assert code == 0, step
            assert scipy == [], step
        assert "scipy.fft" in after_solver and "scipy.linalg" in after_solver


# In a fresh process: import FIRST, then the CLI, build its parser and run
# `sobolev --minimize` in-process; print whether grushin3d.fields is loaded.
IMPORT_ORDER_PROBE = r"""
import contextlib, importlib, io, sys

importlib.import_module(sys.argv[1])
import grushin3d.cli as cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sobolev", "--minimize", "--resolution", "8"])
print(code, "grushin3d.fields" in sys.modules)
"""


class TestNoImportCycle:
    """``sobolev`` holds the whole Rayleigh search, so neither it nor the CLI
    needs ``fields``, and every import order works."""

    @pytest.mark.parametrize("first", ["grushin3d.cli", "grushin3d.fields", "grushin3d.sobolev"])
    def test_sobolev_command_without_fields(self, first):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_ORDER_PROBE, first],
            stdin=subprocess.DEVNULL, capture_output=True, env=subprocess_env(), text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        code, fields_loaded = done.stdout.split()
        assert code == "0"
        assert fields_loaded == str(first == "grushin3d.fields")


class TestLazyNamespace:
    def test_every_public_name_resolves(self):
        assert len(set(grushin3d.__all__)) == len(grushin3d.__all__)
        for module_name, names in grushin3d._EXPORTS.items():
            module = importlib.import_module(f"grushin3d.{module_name}")
            for name in names:
                obj = getattr(grushin3d, name)
                # defined in the module it is listed under, not merely imported there
                assert obj.__module__ == module.__name__, name
                assert getattr(module, name) is obj

    def test_no_submodule_defines_all(self):
        for path in pathlib.Path(grushin3d.__file__).parent.glob("*.py"):
            if path.name != "__init__.py":
                assert "__all__" not in path.read_text(), path.name

    def test_dir_lists_public_names_and_submodules(self):
        listed = dir(grushin3d)
        assert set(grushin3d.__all__) <= set(listed)
        assert {*grushin3d._EXPORTS, "__version__"} <= set(listed)

    @pytest.mark.parametrize("name", ["solver", "sobolev", "errors"])
    def test_submodule_attribute(self, name):
        assert getattr(grushin3d, name) is importlib.import_module(f"grushin3d.{name}")

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            grushin3d.no_such_name  # noqa: B018

    def test_star_import(self):
        namespace = {}
        exec("from grushin3d import *", namespace)
        assert set(grushin3d.__all__) <= set(namespace)


SOURCES = {path.name: ast.parse(path.read_text()) for path in pathlib.Path(grushin3d.__file__).parent.glob("*.py")}

# the references that only tests call, by the module that held them
MOVED_TO_TESTS = {
    "transform.py": [
        "flatten_point",
        "unflatten_point",
        "_split_polar",
        "_cofactor",
        "_image_patch",
        "flatten_shape",
        "_euclidean_flux",
    ],
    "geometry.py": ["_volume_flux", "_area_integrand", "patch_surface_integral"],
    "grids.py": ["resample"],
}


def _unused(sources):
    """module:name of each module-level function or class that is neither
    exported nor used by the modules in ``sources``; dunders are exempt."""
    exported = {name for names in grushin3d._EXPORTS.values() for name in names}
    used = set()
    for tree in sources.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [
        f"{module}:{node.name}"
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported | used
    ]


def _scipy_importers(sources):
    """The modules in ``sources`` with an ``import scipy...`` or
    ``from scipy... import`` statement."""
    importers = set()
    for module, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names):
                importers.add(module)
    return importers


def _with_source(module, code):
    """SOURCES with ``code`` appended to ``module``."""
    path = pathlib.Path(grushin3d.__file__).parent / module
    return {**SOURCES, module: ast.parse(path.read_text() + "\n\n" + code)}


class TestNoTestOnlyCode:
    """Every module-level function and class of the package is public API or
    is used by the package itself; references that only tests call live in
    ``tests/``."""

    def test_every_definition_is_exported_or_used(self):
        assert _unused(SOURCES) == []

    def test_only_the_solver_imports_scipy(self):
        assert _scipy_importers(SOURCES) == {"solver.py"}

    @pytest.mark.parametrize(
        "module, name", [(module, name) for module, names in MOVED_TO_TESTS.items() for name in names]
    )
    def test_a_reference_put_back_is_caught(self, module, name):
        sources = _with_source(module, f"def {name}(points, alpha):\n    return points\n")
        assert _unused(sources) == [f"{module}:{name}"]

    @pytest.mark.parametrize("module", sorted(set(SOURCES) - {"solver.py"}))
    def test_a_scipy_import_elsewhere_is_caught(self, module):
        sources = _with_source(module, "from scipy.interpolate import RegularGridInterpolator\n")
        assert _scipy_importers(sources) == {"solver.py", module}
