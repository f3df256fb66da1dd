"""grushin3d benchmark: closed-loop passes of one workload, each in a fresh process.

    python3 bench/run.py --workload {solve,geometry,fields,all} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  One
client runs the workload's operations in order, each only after the
previous one finished (see workloads.py for the operations and why each
workload was chosen).  Every pass runs in a fresh subprocess, so set-up
time and peak memory are per pass; passes repeat until S seconds have
been spent, at least one.  Before the passes, a few probe processes only
import ``grushin3d.cli`` and build its parser, so that the set-up time is
a median of several samples.

With --trace 0 the last line of stdout reports the end-to-end metrics:

    wall_s       wall time of one pass of the operations (median over passes)
    cpu_s        user + sys CPU time of that pass (median)
    setup_s      process start until grushin3d.cli is imported and the parser
                 built (median over probes and passes)
    peak_rss_mb  peak resident memory of a pass's process (median)
    ok_frac      operations that passed every check / operations attempted
    max_rel_err  largest relative error against a reference, over all operations

With --trace 1, untraced and traced passes alternate; the last line reports
the per-layer metrics of the traced passes (medians) and trace.overhead_s,
the traced minus the untraced median wall time.  Spans go to
.bench_out/trace-*.json.  --workload all runs the three workloads in turn
and prefixes each metric of its last line with the workload name.

An operation fails when it raises, exits non-zero, reports all_passed
false or misses a reference tolerance, and also when its results/checks
digest or (traced) work counts differ from an earlier pass or run of the
same sources: the store of digests is .bench_out/state.json, keyed by a
hash of src/grushin3d and of the benchmark's own files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "max_rel_err": "ratio",
}
PROBES = 3
# a run must end well inside 180 s: no pass starts that would cross this
RUN_BUDGET_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".bench_out"


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def source_digest(src):
    """Hash of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for folder in (os.path.join(src, "grushin3d"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed, workload, digest, versions, env):
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        **versions,
        "git_commit": commit,
        "source_sha256": digest,
        "thread_caps": {v: env[v] for v in THREAD_VARS},
    }


class WorkerError(RuntimeError):
    pass


def spawn(argv, env, timeout):
    """Run a worker; return its record and its set-up time."""
    start = time.perf_counter()
    try:
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from None
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {res.returncode}: {res.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    return record, record["ready"] - start


def load_state(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_state(path, state):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def judge(passes, state, key_prefix, seed):
    """Fail operations whose digest or counts differ from an earlier pass or run.

    Returns (attempted, failed); records first-seen digests in ``state``.
    """
    attempted = failed = 0
    for rec in passes:
        for row in rec["ops"]:
            attempted += 1
            key = f"{key_prefix}|{row['op']}|{seed if row['seeded'] else '-'}"
            checks = [("digest", row["digest"])] if row["digest"] else []
            if "counts" in row:
                checks.append(("counts", row["counts"]))
            for kind, value in checks:
                seen = state.setdefault(f"{key}|{kind}", value)
                if seen != value:
                    row["reasons"].append(f"{kind} differs from an earlier pass or run of these sources")
            if row["reasons"]:
                failed += 1
                print(f"FAILED {row['op']}: {'; '.join(row['reasons'])}", file=sys.stderr)
    return attempted, failed


def high_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    k = n - 11  # index of the sample with ten above it
    return p, sorted(samples)[k]


def describe(name, samples, unit):
    med = statistics.median(samples)
    hp = high_percentile(samples)
    tail = f"p{hp[0]:.0f} {hp[1]:.6g}" if hp else "no percentile (fewer than 11 samples)"
    return f"  {name:<13} median {med:.6g} {unit:<6} {tail}, n={len(samples)}"


def run_workload(workload, seed, seconds, trace, env, digest):
    """Run the passes of one workload, print its summary, return its result."""
    t_begin = time.perf_counter()
    tag = f"{workload}-seed{seed}"
    setups = [spawn(["probe"], env, RUN_BUDGET_S)[1] for _ in range(PROBES)]
    passes = []
    t_measure = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        workdir = os.path.join(OUT, f"work-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        trace_out = os.path.join(OUT, f"trace-{tag}-pass{len(passes)}.json")
        t0 = time.perf_counter()
        left = RUN_BUDGET_S + 25.0 - (t0 - t_begin)
        try:
            rec, setup = spawn(["pass", workload, str(seed), str(int(traced)), workdir, trace_out], env, left)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        rec["traced"] = traced
        passes.append(rec)
        setups.append(setup)
        now = time.perf_counter()
        kinds = {p["traced"] for p in passes}
        if now - t_measure >= seconds and len(kinds) == 1 + trace:
            break
        if now + (now - t0) - t_begin > RUN_BUDGET_S:
            if len(kinds) < 1 + trace:
                raise WorkerError("run budget spent before a traced pass")
            break

    state_path = os.path.join(OUT, "state.json")
    state = load_state(state_path)
    attempted, failed = judge(passes, state, f"{digest}|{workload}", seed)
    save_state(state_path, state)

    plain = [p for p in passes if not p["traced"]]
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    errs = [e for p in passes for row in p["ops"] for e in row["rel_errs"].values()]
    env_record = environment(seed, workload, digest, passes[0]["versions"], env)
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print(f"workload {workload}: {len(passes)} passes, {attempted} operations, {failed} failed")
    for name, vals in samples.items():
        print(describe(name, vals, E2E_UNITS[name]))

    if trace:
        traced = [p for p in passes if p["traced"]]
        layer = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layer["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
            samples["wall_s"]
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["ok_frac"] = 1.0 - failed / attempted
        values["max_rel_err"] = max(errs) if errs else 0.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for k, m in metrics.items():
        if k not in samples:
            print(f"  {k:<42} {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}-trace{trace}.json"), "w") as fh:
        json.dump({"environment": env_record, "result": result, "samples": samples, "passes": passes}, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "grushin3d", "cli.py")):
        print("bench: no src/grushin3d here; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env(src)
    digest = source_digest(src)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, env, digest) for w in names}
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        # --workload all: one line for every workload, metrics prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    units = {"s": "s", "self_s": "s", "overhead_s": "s", "mb_per_s": "MB/s", "bytes": "B", "bytes_computed": "B"}
    return units.get(last, "ratio" if last.endswith("ratio") else "count")


if __name__ == "__main__":
    sys.exit(main())
