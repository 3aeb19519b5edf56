"""dynswitch benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload static-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs rounds until
``--seconds`` have passed, each a fresh process that sets up and runs
one unit of the workload's CLI commands, and reports the end-to-end
metrics, scaled to a reference host speed by calibrations timed next to
them; ``--trace 1`` runs the unit in one process with every layer
wrapped and reports the per-layer metrics.  Every unit's outputs are
checked.  The last line of standard output is the JSON result;
everything a run writes goes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from derive import (  # noqa: E402
    END_TO_END,
    PER_LAYER_UNITS,
    SETUP_CALIBRATION_REF_S,
    combine_units,
    overhead_ratio,
    scale_to_reference,
)
from child import CALIBRATION_COMM  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

MIN_ROUNDS = 3
POLL_S = 0.1
COMMAND_TIMEOUT_S = 150
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update({k: "1" for k in THREAD_ENV})
    return env


def _descendants(pid):
    """Pids of every live descendant of ``pid``, read from /proc."""
    parent_of = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parent_of[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, pp in parent_of.items() if pp in frontier} - found
        found |= frontier
    return found


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _comm(pid):
    try:
        with open(f"/proc/{pid}/comm") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args, env, log_path, ready=None, poll=None):
    """Run child.py in its own process group and wait for it to end.

    With ``ready``, the child's first line of standard output is awaited
    and ``ready()`` is called when it arrives.  With ``poll``, ``poll(pid)``
    is called every POLL_S seconds until the exit.  A timer kills the
    group after COMMAND_TIMEOUT_S; whatever is left of it when the child
    exits is killed too.  Returns the exit code.
    """
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args], env=env,
            stdout=subprocess.PIPE if ready else log, stderr=log,
            start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc,))
        killer.start()
        try:
            if ready:
                line = proc.stdout.readline()
                proc.stdout.close()
                if line == b"ready\n":
                    ready()
            while poll:
                try:
                    return proc.wait(timeout=POLL_S)
                except subprocess.TimeoutExpired:
                    poll(proc.pid)
            return proc.wait()
        finally:
            killer.cancel()
            _kill_group(proc)
            proc.wait()


def _failed_lines(log_path):
    return sum(line.startswith("FAILED") for line in log_path.read_text().splitlines())


def time_to_ready(args, env, log):
    """Seconds from spawning child.py to its "ready" line, and the exit code."""
    start = time.perf_counter()
    ready_at = []
    rc = spawn(args, env, log, ready=lambda: ready_at.append(time.perf_counter()))
    if rc != 0 or not ready_at:
        raise RuntimeError(f"{args[0]} failed (exit {rc}):\n{log.read_text()}")
    return ready_at[0] - start


def run_round(w, seed, env, out):
    """Set up and run one unit in a fresh process.

    Returns (set-up seconds, set-up calibration seconds, the child's
    result, peak KB, outcome).  Set-up runs from the spawn to the child's
    "ready" line; the set-up calibration is the same for a process that
    imports only numpy and scipy.optimize, spawned just before.  The peak
    is the largest sum, over the polls, of the peak resident sets of the
    child and its live descendants, such as pool workers, but not the
    calibration helpers.
    """
    out.mkdir(parents=True)
    result_path, log = out / "round.json", out / "round.log"
    setup_calib = time_to_ready(["import-deps"], env, out / "import-deps.log")
    start = time.perf_counter()
    ready_at, peak_kb = [], [0]

    def poll(pid):
        tree = {p for p in {pid} | _descendants(pid) if _comm(p) != CALIBRATION_COMM}
        peak_kb[0] = max(peak_kb[0], sum(_vm_hwm_kb(p) for p in tree))

    rc = spawn(["round", w.name, str(seed), str(out), str(result_path)], env,
               log, ready=lambda: ready_at.append(time.perf_counter()), poll=poll)
    if rc != 0 or not ready_at:
        raise RuntimeError(f"round failed (exit {rc}):\n{log.read_text()}")
    result = json.loads(result_path.read_text())
    outcome = check(w, out)
    if any(c != 0 for part in result["parts"] for c in part["codes"]):
        outcome.failed = outcome.attempted
    outcome.failed = max(outcome.failed, _failed_lines(log))
    # the child reports its own final peak, which polling may miss
    peak_kb = max(peak_kb[0], result["vm_hwm_kb"])
    return ready_at[0] - start, setup_calib, result, peak_kb, outcome


def run_untraced(w, seed, seconds, env, out):
    """Rounds until ``seconds`` have passed; times scaled by the calibration."""
    meta = out / "meta.json"
    if spawn(["setup", w.name, str(seed), str(meta)], env, out / "setup.log"):
        raise RuntimeError(f"set-up failed:\n{(out / 'setup.log').read_text()}")
    meta = json.loads(meta.read_text())
    setups, setup_calibs, part_walls, calibs, peaks, outcomes = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < MIN_ROUNDS or time.perf_counter() < deadline:
        round_out = out / f"round-{len(outcomes)}"
        setup, setup_calib, result, peak, outcome = run_round(w, seed, env, round_out)
        setups.append(setup)
        setup_calibs.append(setup_calib)
        part_walls.append([p["wall_ns"] for p in result["parts"]])
        calibs.extend(t for p in result["parts"] for t in p["calib_ns"])
        peaks.append(peak)
        outcomes.append(outcome)
        if len(outcomes) > 1:
            shutil.rmtree(round_out)   # keep only the first round's outputs
    scale = scale_to_reference(calibs)
    raw_wall_s = sum(statistics.median(p) for p in zip(*part_walls)) / 1e9
    wall_s = raw_wall_s * scale
    metrics = {
        "setup_s": statistics.median(setups) * scale_to_reference(
            setup_calibs, SETUP_CALIBRATION_REF_S),
        "wall_s": wall_s,
        "evals_per_s": outcomes[0].evals / wall_s,
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }
    meta.update(jobs=result["jobs"], rounds=len(outcomes), scale=scale,
                raw_wall_s=raw_wall_s, raw_setup_s=setups,
                setup_calib_s=setup_calibs,
                calib_ms_median=statistics.median(calibs) / 1e6,
                round_wall_s=[sum(p) / 1e9 for p in part_walls])
    return metrics, outcomes, meta


def run_traced(w, seed, seconds, env, out):
    result = out / "trace.json"
    rc = spawn(["trace", w.name, str(seed), str(seconds), str(out),
                str(result)], env, out / "trace.log")
    if rc != 0:
        raise RuntimeError(f"traced run failed:\n{(out / 'trace.log').read_text()}")
    data = json.loads(result.read_text())
    outcomes = []
    for unit in data["units"]:
        outcome = check(w, unit["out"])
        if any(c != 0 for c in unit["codes"]):
            outcome.failed = outcome.attempted
        outcomes.append(outcome)

    def of_kind(kind):
        return [u for u in data["units"] if u["kind"] == kind]

    metrics, unstable = combine_units([u["metrics"] for u in of_kind("traced")])
    metrics["trace.overhead_ratio"] = overhead_ratio(
        [u["wall_ns"] for u in of_kind("traced")],
        [u["wall_ns"] for u in of_kind("untraced")])
    # the tracer's own evaluation count must match the program's records
    for outcome in outcomes:
        if outcome.evals != metrics["problems.evals"]:
            unstable.append("problems.evals vs records")
            break
    if unstable:
        outcomes[-1].failed = outcomes[-1].attempted
        outcomes[-1].problems.append(f"exact metrics did not repeat: {unstable}")
    meta = data["meta"]
    meta.update(jobs=1, units=len(data["units"]),
                unit_wall_s={kind: [u["wall_ns"] / 1e9 for u in of_kind(kind)]
                             for kind in ("warm-up", "untraced", "traced")})
    return metrics, outcomes, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that every child's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not Path("src", "dynswitch", "cli.py").is_file():
        print("error: run from the root of a dynswitch checkout "
              "(src/dynswitch/cli.py not found)", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out = Path(".bench_out", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = run_traced if args.trace else run_untraced
    metrics, outcomes, meta = run(w, args.seed, args.seconds, child_env(), out)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digests = {o.digest for o in outcomes}
    if len(digests) > 1:
        failed = attempted
        print(f"outputs differ across repeats: {len(digests)} digests")
    for o in outcomes:
        for problem in o.problems[:10]:
            print(f"check failed: {problem}")
    meta.update(workload=w.name, why=w.why, seed=args.seed,
                seconds=args.seconds, trace=args.trace, digest=outcomes[0].digest)
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print("meta " + json.dumps(meta, sort_keys=True))

    units = PER_LAYER_UNITS if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:34s} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':34s} {failed / attempted:>14.6g} runs/runs "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
