"""Process-side half of the benchmark; runs with the checkout's src/ on the path.

    child.py setup <workload> <seed> [<meta.json>]
        import dynswitch.cli and build the workload's problem instances
        (and optionally write the environment's metadata)
    child.py import-deps
        import numpy and scipy.optimize, then print "ready": the set-up
        calibration
    child.py round <workload> <seed> <outdir> <result.json>
        set up as above, print "ready", then run each part of one unit,
        timing a fixed calibration loop in as many processes as the
        workload has jobs before each part
    child.py trace <workload> <seed> <seconds> <outdir> <result.json>
        one warm-up unit, then untraced and traced units in turn until
        <seconds> have passed
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _import_cli():
    import dynswitch
    import dynswitch.cli

    src = Path("src").resolve()
    if Path(dynswitch.__file__).resolve().parent.parent != src:
        sys.exit(f"dynswitch imported from {dynswitch.__file__}, not {src}")
    return dynswitch.cli


def _blas_versions():
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError):
            out[mod.__name__] = "unknown"
    return out


def metadata():
    import platform

    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_versions(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(workload, seed, meta_path=None):
    from workloads import WORKLOADS

    cli = _import_cli()
    from dynswitch.problems import ProblemId, instantiate

    w = WORKLOADS[workload]
    for f in w.functions:
        for i in w.instances:
            instantiate(ProblemId(f, w.dim, i), int(seed))
    if meta_path:
        Path(meta_path).write_text(json.dumps(metadata(), indent=2) + "\n")
    return cli


CALIBRATION_COMM = "bench-calib"   # process name of calibration helpers


def calibrate_once():
    """Wall ns of a fixed loop of interpreted arithmetic and small numpy calls.

    The loop does not call dynswitch, so its time moves only with the
    speed the host gives this process.  Like the workloads, it mixes
    interpreted bookkeeping with numpy calls on 5-element vectors.
    """
    import numpy as np

    start = time.perf_counter_ns()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    x = np.ones(5)
    for _ in range(1_500):
        np.sum((x * 1.0001 - 0.3) ** 2) + np.cos(x).sum()
    return time.perf_counter_ns() - start


def calibrate(jobs):
    """Time the calibration loop in ``jobs`` processes at once.

    A workload with two jobs runs on two CPUs, and the host may slow the
    second one more than the first, so the loop runs on as many.  The
    helpers are forks named CALIBRATION_COMM, so that the memory poll
    can leave them out.  Returns the ns of each process.
    """
    import ctypes

    helpers = []
    for _ in range(jobs - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            ctypes.CDLL(None).prctl(15, CALIBRATION_COMM.encode(), 0, 0, 0)
            os.write(w, str(calibrate_once()).encode())
            os._exit(0)
        os.close(w)
        helpers.append((pid, r))
    times = [calibrate_once()]
    for pid, r in helpers:
        with os.fdopen(r, "rb") as fh:
            times.append(int(fh.read()))
        os.waitpid(pid, 0)
    return times


def round_(workload, seed, outdir, result_path):
    """Set up, signal it on stdout, then run each part of one unit once."""
    from workloads import WORKLOADS, unit_commands

    cli = setup(workload, seed)
    os.write(1, b"ready\n")
    os.dup2(2, 1)   # the CLI's output goes to the log from here on
    w = WORKLOADS[workload]
    jobs = w.jobs or min(len(os.sched_getaffinity(0)), 4)
    parts = []
    for argvs in unit_commands(w, int(seed), outdir, jobs):
        calib_ns = calibrate(jobs)
        start = time.perf_counter_ns()
        codes = [cli.main(argv) for argv in argvs]
        parts.append({"wall_ns": time.perf_counter_ns() - start,
                      "calib_ns": calib_ns, "codes": codes})
    Path(result_path).write_text(json.dumps({
        "jobs": jobs, "parts": parts,
        "vm_hwm_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


PROBE_POINTS = 200


def _probe(w, seed):
    """Evaluate every suite function at the workload's dimension."""
    import numpy as np
    from dynswitch.problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate

    rng = np.random.default_rng(seed)
    for f in IMPLEMENTED_FUNCTIONS:
        problem = instantiate(ProblemId(f, w.dim, 1), seed)
        for x in rng.uniform(-5.0, 5.0, size=(PROBE_POINTS, w.dim)):
            problem.evaluate(x)


def _wrapper_ns(calls=100_000, repeats=5):
    """Self time in ns that an aggregated wrapper adds to its caller per call.

    A span loops over ``calls`` wrapped no-op calls; its self time, less
    the duration of the same loop over bare calls, is the wrapper's
    bookkeeping outside the callee's measured duration.  Median over
    ``repeats`` pairs.
    """
    import statistics

    from tracer import Tracer

    def noop(_):
        return None

    tracer = Tracer()
    wrapped = tracer.aggregated(noop, lambda a: "noop")

    def loop(fn):
        for _ in range(calls):
            fn(None)

    loop = tracer.spanned(loop, "wrapper-cost")
    costs = []
    for _ in range(repeats):
        loop(wrapped)
        loop(noop)
        wrapped_span, bare_span = tracer.spans[-2:]
        costs.append((wrapped_span.self_ns - (bare_span.end - bare_span.start)) / calls)
    return statistics.median(costs)


def _run_unit(main, w, seed, out):
    """Run one unit in this process; returns (wall_ns, exit codes)."""
    from workloads import unit_commands

    wall_ns, codes = 0, []
    for argv in (a for argvs in unit_commands(w, seed, out, 1) for a in argvs):
        start = time.perf_counter_ns()
        codes.append(main(argv))
        wall_ns += time.perf_counter_ns() - start
    return wall_ns, codes


def trace(workload, seed, seconds, outdir, result_path):
    import contextlib
    import io

    from derive import FUNCTIONS, layer_metrics
    from tracer import Tracer, install
    from workloads import WORKLOADS

    cli = _import_cli()
    from dynswitch.problems import IMPLEMENTED_FUNCTIONS

    if tuple(IMPLEMENTED_FUNCTIONS) != FUNCTIONS:
        sys.exit(f"suite functions {IMPLEMENTED_FUNCTIONS} != {FUNCTIONS}")
    w, seed = WORKLOADS[workload], int(seed)
    deadline = time.perf_counter() + float(seconds)
    units = []

    def run(kind, main):
        out = f"{outdir}/unit-{len(units)}"
        wall_ns, codes = _run_unit(main, w, seed, out)
        units.append({"out": out, "kind": kind, "codes": codes, "wall_ns": wall_ns})
        return units[-1]

    with contextlib.redirect_stdout(io.StringIO()):
        run("warm-up", cli.main)   # first calls and cold caches; not timed
        tracer = Tracer()
        main = tracer.spanned(cli.main, "cli.main",
                              attrs=lambda a, k, r, p: {"command": a[0][0]})
        wrapper_ns = _wrapper_ns()
        traced = 0
        while traced < 2 or time.perf_counter() < deadline:
            run("untraced", cli.main)
            tracer.reset()
            restore = install(tracer)
            try:
                unit = run("traced", main)
                calls = {k: list(v) for k, v in tracer.calls.items()}
                spans = list(tracer.spans)
                tracer.calls.clear()
                _probe(w, seed)
            finally:
                restore()
            unit["metrics"] = layer_metrics(calls, spans, tracer.calls, wrapper_ns)
            traced += 1
    with open(Path(outdir, "spans.jsonl"), "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_json()) + "\n")
    Path(result_path).write_text(json.dumps(
        {"units": units, "meta": metadata()}, indent=1))


def main():
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*args)
    elif mode == "import-deps":
        import numpy  # noqa: F401
        import scipy.optimize  # noqa: F401

        os.write(1, b"ready\n")
    elif mode == "round":
        round_(*args)
    elif mode == "trace":
        trace(*args)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
