"""Spans around grushin3d's public functions and methods, installed from outside.

``Tracer.install`` wraps every public function and every public method
(plus ``__call__``) defined in the traced modules, and rebinds each name in
every loaded ``grushin3d`` module that imported it, so calls made through
``from .geometry import weighted_volume`` are seen too.  Each call records
a span (name, start, end, parent span, operation id).  Spans stay in memory
until the pass ends.  A few wrappers also count work: stencil cells, points
passed to shape level functions, grid-file bytes and outer iterations.

Only a traced pass imports this module; untraced passes run the program
untouched.  The tracer assumes one thread, which the workloads keep
(``--threads`` stays at its default of 1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("cli", "report", "solver", "geometry", "transform", "grids", "rearrangement", "fields", "sobolev", "pohozaev")

# Computed stencil traffic per cell and application: one float64 read of u
# and one float64 write of A u, plus one mask byte on masked domains.  A
# lower bound from array sizes, not a measurement of memory traffic.
STENCIL_BYTES_PER_CELL = 16
MASK_BYTES_PER_CELL = 1

OP_APPLY = "solver.GrushinOperator.__call__"


class Tracer:
    def __init__(self):
        # spans[i] = [name, start, end, parent index or -1, op id, extra dict or None]
        self.spans = []
        self._stack = []
        self.op = None

    # -- installation ------------------------------------------------------

    def install(self):
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"grushin3d.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{short}.{name}", obj)
                    originals[obj] = wrapped
                    setattr(mod, name, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        # rebind names other modules imported before the wrappers existed
        for mod in [m for k, m in sys.modules.items() if k == "grushin3d" or k.startswith("grushin3d.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, name, originals[obj])

    def _wrap_class(self, short, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            label = f"{short}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(label, attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(label, attr.__func__)))

    def _wrap(self, label, fn):
        hook = _HOOKS.get(label)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                extra = {}
                spans[idx][5] = extra
                call = signature.bind(*args, **kwargs)
                return hook(fn, call, call.arguments, extra)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return wrapper


# -- work counters: hook(fn, bound call, its arguments by name, span counters)


def _op_apply(fn, call, arg, extra):
    masked = arg["self"].domain.mask is not None
    extra["bytes"] = arg["u"].size * (STENCIL_BYTES_PER_CELL + (MASK_BYTES_PER_CELL if masked else 0))
    return fn(*call.args, **call.kwargs)


def _solve_ground_state(fn, call, arg, extra):
    sol = fn(*call.args, **call.kwargs)
    extra["outer_iters"] = sol.iterations
    return sol


def _save_grid(fn, call, arg, extra):
    out = fn(*call.args, **call.kwargs)
    extra["bytes"] = os.path.getsize(arg["path"])
    return out


def _load_grid(fn, call, arg, extra):
    extra["bytes"] = os.path.getsize(arg["path"])
    return fn(*call.args, **call.kwargs)


def _voxel_integral(fn, call, arg, extra):
    level, weight = arg["level"], arg["weight"]
    extra["level_points"] = 0
    # one volume is one (region, box, weight, quadrature) combination; the
    # weight closures differ per call, so compare their code and captures
    captured = tuple(c.cell_contents for c in (weight.__closure__ or ()))
    extra["volume_key"] = (id(level), repr(arg["bbox"]), weight.__code__, repr(captured), repr(arg["cfg"]))

    def counting_level(pts):
        extra["level_points"] += pts.size // 3
        return level(pts)

    arg["level"] = counting_level
    return fn(*call.args, **call.kwargs)


_HOOKS = {
    OP_APPLY: _op_apply,
    "solver.solve_ground_state": _solve_ground_state,
    "grids.save_grid": _save_grid,
    "grids.load_grid": _load_grid,
    "geometry.voxel_integral": _voxel_integral,
}


# -- metrics ----------------------------------------------------------------


def rebase(spans, first):
    """The spans from index ``first`` on, with parent indices made local.

    The spans of one operation are contiguous and their parents lie among
    them, so this cuts one operation out of a pass.
    """
    return [[n, t0, t1, p - first if p >= first else -1, op, ex] for n, t0, t1, p, op, ex in spans[first:]]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _within(spans, idx, label):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == label:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans):
    """Per-layer metrics of a list of spans, named as in BENCHMARK.json."""
    count = defaultdict(int)
    secs = defaultdict(float)
    extra = defaultdict(float)
    volumes = set()
    for name, t0, t1, _, op, ex in spans:
        count[name] += 1
        secs[name] += t1 - t0
        for key, val in (ex or {}).items():
            if key == "volume_key":
                volumes.add((op, val))
            else:
                extra[f"{name}:{key}"] += val
    selfs = self_times(spans)
    in_cg = sum(1 for i, s in enumerate(spans) if s[0] == OP_APPLY and _within(spans, i, "solver.linear_solve"))

    def rate(label):
        return extra[f"{label}:bytes"] / 1e6 / secs[label] if secs[label] > 0 else 0.0

    m = {
        "solver.op_apply.count": count[OP_APPLY],
        "solver.op_apply.s": secs[OP_APPLY],
        "solver.op_apply_in_cg.count": in_cg,
        "solver.op_apply.bytes_computed": extra[f"{OP_APPLY}:bytes"],
        "solver.linear_solve.count": count["solver.linear_solve"],
        "solver.linear_solve.s": secs["solver.linear_solve"],
        "solver.quadratic_form.count": count["solver.GrushinOperator.quadratic_form"],
        "solver.outer_iters": extra["solver.solve_ground_state:outer_iters"],
        "solver.solve_ground_state.s": secs["solver.solve_ground_state"],
        "solver.poincare_constant.s": secs["solver.poincare_constant"],
        "geometry.voxel_integral.count": count["geometry.voxel_integral"],
        "geometry.voxel_integral.s": secs["geometry.voxel_integral"],
        "geometry.patch_surface_integral.count": count["geometry.patch_surface_integral"],
        "geometry.patch_surface_integral.s": secs["geometry.patch_surface_integral"],
        "geometry.level_points": extra["geometry.voxel_integral:level_points"],
        "geometry.volume_dup_ratio": count["geometry.voxel_integral"] / len(volumes) if volumes else 0.0,
        "transform.pushforward_volume_check.s": secs["transform.pushforward_volume_check"],
        "transform.pushforward_perimeter_check.s": secs["transform.pushforward_perimeter_check"],
        "grids.save_grid.s": secs["grids.save_grid"],
        "grids.save_grid.bytes": extra["grids.save_grid:bytes"],
        "grids.save_grid.mb_per_s": rate("grids.save_grid"),
        "grids.load_grid.s": secs["grids.load_grid"],
        "grids.load_grid.bytes": extra["grids.load_grid:bytes"],
        "grids.load_grid.mb_per_s": rate("grids.load_grid"),
        "rearrangement.rearrange.count": count["rearrangement.rearrange"],
        "rearrangement.rearrange.s": secs["rearrangement.rearrange"],
        "rearrangement.distribution_function.count": count["rearrangement.distribution_function"],
        "rearrangement.grushin_energy.count": count["rearrangement.grushin_energy"],
        "rearrangement.grushin_energy.s": secs["rearrangement.grushin_energy"],
        "rearrangement.polya_szego_gap.count": count["rearrangement.polya_szego_gap"],
        "fields.sector_extremal_grid.count": count["fields.sector_extremal_grid"],
        "fields.sector_extremal_grid.s": secs["fields.sector_extremal_grid"],
        "sobolev.minimize_rayleigh.s": secs["sobolev.minimize_rayleigh"],
        "sobolev.rayleigh_quotient.count": count["sobolev.rayleigh_quotient"],
        "pohozaev.pohozaev_residual.s": secs["pohozaev.pohozaev_residual"],
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s[0] == "cli.main"),
        "report.to_json.s": secs["report.RunReport.to_json"],
        "report.write_csv.s": secs["report.write_csv"],
    }
    return {k: float(v) for k, v in m.items()}


# metrics that count work; they must repeat exactly between runs of one commit
COUNTS = tuple(
    k
    for k in layer_metrics([])
    if k.endswith((".count", ".bytes", ".bytes_computed")) or k in ("solver.outer_iters", "geometry.level_points")
)


def dump(spans, path):
    """Write the spans with their self times, and a per-name summary."""
    selfs = self_times(spans)
    summary = defaultdict(lambda: {"count": 0, "s": 0.0, "self_s": 0.0})
    rows = []
    for (name, t0, t1, parent, op, ex), self_s in zip(spans, selfs):
        row = summary[name]
        row["count"] += 1
        row["s"] += t1 - t0
        row["self_s"] += self_s
        counters = {k: v for k, v in (ex or {}).items() if k != "volume_key"}
        rows.append([name, t0, t1, parent, op, self_s, counters])
    fields = ["name", "start", "end", "parent", "op", "self_s", "counters"]
    with open(path, "w") as fh:
        json.dump({"summary": dict(sorted(summary.items())), "fields": fields, "spans": rows}, fh)
