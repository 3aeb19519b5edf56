"""Metric names, units and the derivations that turn traces into metrics.

Standard library only: run.py imports this module without numpy, and the
tests exercise it on hand-built inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

FUNCTIONS = (1, 2, 6, 8, 9, 10, 11, 12, 13, 14, 21, 22)
ALGORITHMS = ("BFGS", "CMA-ES", "PSO", "DE", "MLSL")

# End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Medians, on the 2-vCPU Xeon VM the bounds were set on, of the two
# calibrations: child.calibrate_once() for run time, and a process that
# imports numpy and scipy.optimize for set-up.  End-to-end times are
# scaled to the host speed at which the calibrations take this long.
CALIBRATION_REF_NS = 22_000_000
SETUP_CALIBRATION_REF_S = 0.6

# Per-layer metrics from the traced run: (name, unit, exact).  An exact
# metric is a count, or a ratio of counts, that must repeat bit for bit
# across runs of the same code and seed; it is never treated as a timing.
PER_LAYER = (
    *((f"problems.eval_us.F{f}", "us", False) for f in FUNCTIONS),
    ("problems.busy_frac", "s/s", False),
    ("problems.evals", "count", True),
    ("problems.instantiate_ms", "ms", False),
    ("tracing.overhead_us", "us", False),
    ("tracing.busy_frac", "s/s", False),
    ("tracing.serialize_us", "us", False),
    ("tracing.load_records_ms", "ms", False),
    *((f"optimizers.{a}.overhead_us", "us", False) for a in ALGORITHMS),
    *((f"optimizers.{a}.evals", "count", True) for a in ALGORITHMS),
    *((f"optimizers.{a}.success_frac", "count/count", True) for a in ALGORITHMS),
    ("optimizers.runs", "count", True),
    ("optimizers.run_ms_p50", "ms", False),
    ("optimizers.run_ms_tail", "ms", False),
    ("optimizers.run_tail_pct", "%", True),
    ("warmstart.extract_us", "us", False),
    ("warmstart.apply_us", "us", False),
    ("warmstart.transfers", "count", True),
    ("switching.phase1_frac", "s/s", False),
    ("switching.phase1_evals", "count", True),
    ("switching.phase2_evals", "count", True),
    ("switching.switch_frac", "count/count", True),
    ("switching.phase1_rerun_frac", "count/count", True),
    ("analysis.ert_tables_ms", "ms", False),
    ("analysis.vbs_reports_ms", "ms", False),
    ("cli.self_ms", "ms", False),
    ("trace.wall_s", "s", False),
    ("trace.overhead_ratio", "s/s", False),
    ("trace.wrapper_us", "us", False),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
EXACT = frozenset(name for name, _, exact in PER_LAYER if exact)

# Candidate percentiles in tenths of a percent, lowest first.
_PERCENTILES_PERMILLE = (500, 750, 900, 950, 990, 999)
MIN_BEYOND_TAIL = 10


def percentile(values, pct):
    """Linearly interpolated percentile of ``values`` (pct in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    rank = pct / 100.0 * (len(data) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least ten of ``n`` samples beyond.

    Falls back to the median when there are fewer than twenty samples.
    """
    best = _PERCENTILES_PERMILLE[0]
    for q in _PERCENTILES_PERMILLE:
        if n * (1000 - q) >= MIN_BEYOND_TAIL * 1000:
            best = q
    return best / 10.0


def phase1_rerun_frac(rows):
    """Share of phase-1 evaluations that one A1 pass per run would avoid.

    ``rows`` holds ``(group, phase1_evals)`` pairs, one per switch run; a
    group is one (A1, A2, function, dimension, instance, run) cell swept
    over several tau.  Per group the largest phase-1 prefix is needed once
    and every other one is a rerun.
    """
    groups = defaultdict(list)
    for key, evals in rows:
        groups[key].append(evals)
    total = sum(sum(v) for v in groups.values())
    rerun = sum(sum(v) - max(v) for v in groups.values())
    return rerun / total if total else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(calls, spans, probe_calls, wrapper_ns):
    """Per-layer metrics of one traced workload unit.

    ``calls`` maps an aggregated call key to ``[count, total_ns, self_ns,
    agg_calls]`` for the workload's commands and ``probe_calls`` the same
    for the kernel probe; ``spans`` are :class:`tracer.Span` records.
    ``wrapper_ns`` is the cost of one call through an aggregated wrapper;
    it is taken off the self time of the caller once per aggregated call
    it made, so self times report the program's own cost.  Timing means
    over no calls read 0, as do ratios over an empty base.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start)

    def total_ns(name):
        return sum(s.end - s.start for s in by_name[name])

    def mean_us(name):
        return _ratio(total_ns(name), len(by_name[name])) / 1e3

    def agg(key, table=calls):
        return table.get(key, (0, 0, 0, 0))

    def own_ns(self_ns, agg_calls):
        return self_ns - wrapper_ns * agg_calls

    m = {}
    wall_ns = total_ns("cli.main")
    evals = eval_ns = 0
    for f in FUNCTIONS:
        key = f"problems.evaluate.F{f}"
        n, ns, _, _ = agg(key)
        pn, pns, _, _ = agg(key, probe_calls)
        evals += n
        eval_ns += ns
        m[f"problems.eval_us.F{f}"] = _ratio(ns + pns, n + pn) / 1e3
    m["problems.busy_frac"] = _ratio(eval_ns, wall_ns)
    m["problems.evals"] = evals
    m["problems.instantiate_ms"] = total_ns("problems.instantiate") / 1e6

    ev_self = own_ns(*agg("tracing.evaluator")[2:])
    m["tracing.overhead_us"] = _ratio(ev_self, evals) / 1e3
    m["tracing.busy_frac"] = _ratio(ev_self, wall_ns)
    n, ns, _, _ = agg("tracing.record_to_json")
    m["tracing.serialize_us"] = _ratio(ns, n) / 1e3
    m["tracing.load_records_ms"] = total_ns("tracing.load_records") / 1e6

    # a drive ends its run at phi when it is the static run's only drive
    # or the second (A2) drive of a switch run
    runs = by_name["optimizers.run_single"] + by_name["switching.run_switch"]
    final_drives, phase1, phase2 = [], [], []
    for run in runs:
        drives = [c for c in children[run.id] if c.name == "optimizers.drive"]
        if run.name == "optimizers.run_single":
            final_drives.extend(drives)
        else:
            phase1.extend(drives[:1])
            phase2.extend(drives[1:2])
            final_drives.extend(drives[1:2])
    per_alg = {a: [0, 0, 0, 0] for a in ALGORITHMS}  # self_ns, evals, hits, finals
    for d in by_name["optimizers.drive"]:
        acc = per_alg[d.attrs["algorithm"]]
        acc[0] += own_ns(d.self_ns, d.agg_calls)
        acc[1] += d.attrs["evals"]
    for d in final_drives:
        acc = per_alg[d.attrs["algorithm"]]
        acc[2] += d.attrs["reason"] == "target_hit"
        acc[3] += 1
    for a, (self_ns, n, hits, finals) in per_alg.items():
        m[f"optimizers.{a}.overhead_us"] = _ratio(self_ns, n) / 1e3
        m[f"optimizers.{a}.evals"] = n
        m[f"optimizers.{a}.success_frac"] = _ratio(hits, finals)

    run_ms = [(s.end - s.start) / 1e6 for s in runs]
    tail = tail_percentile(len(run_ms))
    m["optimizers.runs"] = len(run_ms)
    m["optimizers.run_ms_p50"] = percentile(run_ms, 50) if run_ms else 0.0
    m["optimizers.run_ms_tail"] = percentile(run_ms, tail) if run_ms else 0.0
    m["optimizers.run_tail_pct"] = tail

    m["warmstart.extract_us"] = mean_us("warmstart.extract")
    m["warmstart.apply_us"] = mean_us("warmstart.apply_warmstart")
    m["warmstart.transfers"] = len(by_name["warmstart.apply_warmstart"])

    switch_runs = by_name["switching.run_switch"]
    m["switching.phase1_frac"] = _ratio(
        sum(d.end - d.start for d in phase1), total_ns("switching.run_switch"))
    m["switching.phase1_evals"] = sum(d.attrs["evals"] for d in phase1)
    m["switching.phase2_evals"] = sum(d.attrs["evals"] for d in phase2)
    m["switching.switch_frac"] = _ratio(
        sum(1 for s in switch_runs if s.attrs["switched"]), len(switch_runs))
    parent_of = {s.id: s for s in switch_runs}
    m["switching.phase1_rerun_frac"] = phase1_rerun_frac(
        (parent_of[d.parent].attrs["cell"], d.attrs["evals"]) for d in phase1)

    m["analysis.ert_tables_ms"] = total_ns("analysis.build_ert_tables") / 1e6
    m["analysis.vbs_reports_ms"] = total_ns("analysis.build_vbs_reports") / 1e6
    m["cli.self_ms"] = sum(own_ns(s.self_ns, s.agg_calls)
                           for s in by_name["cli.main"]) / 1e6
    m["trace.wall_s"] = wall_ns / 1e9
    m["trace.wrapper_us"] = wrapper_ns / 1e3
    return m


def scale_to_reference(calib, ref=CALIBRATION_REF_NS):
    """Factor that turns times measured next to ``calib`` into reference times.

    The host's speed drifts by tens of percent over minutes.  A
    calibration runs next to the workload, so the ratio of its reference
    time ``ref`` to its median time here undoes that drift.
    """
    return ref / statistics.median(calib)


def overhead_ratio(traced_ns, untraced_ns):
    """Median traced unit wall time over median untraced unit wall time."""
    return statistics.median(traced_ns) / statistics.median(untraced_ns)


def combine_units(units):
    """Merge the per-layer metrics of repeated traced units.

    Timings take the median; exact metrics must agree across units.
    Returns (metrics, names of exact metrics that did not repeat).
    """
    merged, unstable = {}, []
    for name in units[0]:
        values = [u[name] for u in units]
        if name in EXACT:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
        else:
            merged[name] = statistics.median(values)
    return merged, unstable
