"""One pass of a workload in a fresh process, or a set-up probe.

    python3 worker.py probe
    python3 worker.py pass WORKLOAD SEED TRACE WORKDIR TRACE_OUT

Both modes first import ``grushin3d.cli`` and build its parser, and report
the clock reading at that moment; the parent subtracts the time it started
the process to get the set-up time.  A pass then builds the workload's
inputs (untimed), runs its operations in order, checks each one (untimed)
and prints one JSON line with timings, peak memory and verdicts.  A traced
pass installs the span wrappers after the inputs are built and writes its
spans to TRACE_OUT.
"""

import time

# set-up ends when the CLI is imported and its parser built; nothing else is
# imported before, so the set-up time holds only the program's own cost
import grushin3d.cli

grushin3d.cli.build_parser()
READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_pass(workload, seed, traced, workdir, trace_out):
    import numpy
    import scipy

    import tracing
    import workloads

    ops = workloads.build(workload, workdir, seed)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.op = op.name
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed operation
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if error is None:
            verdict = op.check(out)
            reasons, rel_errs, digest = verdict.reasons, verdict.rel_errs, verdict.digest
        else:
            reasons, rel_errs, digest = [error], {}, ""
        row = {
            "op": op.name,
            "seeded": op.seeded,
            "wall_s": wall,
            "cpu_s": cpu,
            "reasons": reasons,
            "rel_errs": rel_errs,
            "digest": digest,
        }
        if tracer:
            op_metrics = tracing.layer_metrics(tracing.rebase(tracer.spans, first))
            row["counts"] = {k: op_metrics[k] for k in tracing.COUNTS}
        results.append(row)
    record = {
        "ready": READY,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer.spans)
        tracing.dump(tracer.spans, trace_out)
    return record


def main(argv):
    if argv[0] == "probe":
        record = {"ready": READY}
    else:
        workload, seed, traced, workdir, trace_out = argv[1:6]
        record = run_pass(workload, int(seed), traced == "1", workdir, trace_out)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
