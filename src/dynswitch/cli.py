"""Command-line driver: bench, analyze, switch, and sweep-tau subcommands.

Runs fan out deterministically from a master seed, so reruns with the same
settings produce byte-identical log payloads.  Exit codes: 0 success, 1 usage
error or failed sweep run, 2 partial failures of bench or switch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    build_ert_tables,
    build_vbs_reports,
    gains,
    heatmap_data,
    theoretical_performance,
    use_case_table,
)
from .optimizers import OptimizerConfig, canonical_algorithm, run_single
from .problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
# run_switch stays bound here: the benchmark's tracer patches it by this name
from .switching import (SwitchPlan, cell_seed, run_switch, run_switch_tasks,
                        run_tasks, sweep_tau)
from .tracing import (
    DEFAULT_BUDGET_MULTIPLIER,
    DEFAULT_FINAL_TARGET,
    DEFAULT_GRID,
    load_records,
    record_to_json,
)
from .warmstart import MODE_FULL, MODE_POINT_ONLY, WarmStartPolicy

DEFAULT_ALGORITHMS = ("BFGS", "MLSL", "PSO", "CMA-ES", "DE")
DEFAULT_DIMENSIONS = (2, 3, 5, 10, 20)


def _count(text, minimum=1):
    """An int of at least ``minimum``: a count, an instance or a dimension."""
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _parse_int_list(text, what, minimum=1, valid=None):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk and not chunk.startswith("-"):
            lo, hi = chunk.split("-", 1)
            out.extend(range(_count(lo, minimum), int(hi) + 1))
        else:
            out.append(_count(chunk, minimum))
    if valid is not None:
        bad = [v for v in out if v not in valid]
        if bad:
            raise argparse.ArgumentTypeError(f"invalid {what}(s): {bad}")
    return _unique(out, what)


def _parse_algorithms(text):
    try:
        names = [canonical_algorithm(a) for a in text.split(",")]
    except ValueError as exc:  # argparse would print only "invalid value"
        raise argparse.ArgumentTypeError(str(exc)) from None
    return _unique(names, "algorithm")


def _unique(values, what):
    """``values``, refused if one repeats: it would pool copies of runs."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(
            f"duplicate {what}(s): {', '.join(map(str, repeated))}")
    return values


def _grid_target(text):
    """--phi: the grid target nearest to the precision given."""
    try:
        return DEFAULT_GRID.snap(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _optimizer_configs(args, algorithms):
    """OptimizerConfig per algorithm, with the --config overrides applied."""
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = {canonical_algorithm(name): dict(values)
                         for name, values in json.load(fh).items()}
    return {a: OptimizerConfig(a, overrides.get(a, {})) for a in algorithms}


def _instances_and_runs(args):
    """--quick means 3 runs on each of the first 2 instances."""
    return (args.instances[:2], 3) if args.quick else (args.instances, args.runs)


def _policy_from_args(args):
    return WarmStartPolicy(
        mode=args.warmstart_mode,
        step_size_window=args.step_window,
        hyperbox_radius=args.eta,
        hessian_scale=args.beta,
    )


def _bench_cell(args, configs, cell):
    """Worker: one static run.  Top level so it pickles for the pool."""
    algorithm, function_id, dim, instance, run = cell
    problem = instantiate(ProblemId(function_id, dim, instance), args.suite_seed)
    trace = run_single(
        configs[algorithm], problem, budget=args.budget_mult * dim,
        final_target=args.phi, seed=cell_seed(args.seed, *cell), run_index=run,
    )
    return trace.to_record()


def _write_records(path, records):
    # deterministic order regardless of worker scheduling
    records = sorted(
        records,
        key=lambda r: (r["algorithm_label"], r["function_id"], r["dimension"],
                       r["instance"], r["run_index"]),
    )
    with open(path, "w") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def _write_manifest(outdir, args, extra=None):
    settings = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    settings["version"] = __version__
    if extra:
        settings.update(extra)
    (outdir / "manifest.json").write_text(json.dumps(settings, indent=2,
                                                     sort_keys=True) + "\n")


def cmd_bench(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    instances, runs = _instances_and_runs(args)
    cells = [(a, f, d, inst, run) for a in args.algorithms
             for f in args.functions for d in args.dims
             for inst in instances for run in range(runs)]
    worker = functools.partial(_bench_cell, args,
                               _optimizer_configs(args, args.algorithms))
    records, failures = run_tasks(worker, cells, args.jobs)
    _write_records(outdir / "runs.jsonl", records)
    _write_manifest(outdir, args, {"records": len(records)})

    # per-cell success summary
    summary = {}
    for rec in records:
        key = (rec["algorithm_label"], rec["function_id"], rec["dimension"])
        cell = summary.setdefault(key, [0, 0])
        cell[1] += 1
        if rec["terminated_reason"] == "target_hit":
            cell[0] += 1
    for (label, f, d), (succ, total) in sorted(summary.items()):
        print(f"{label:8s} F{f:<3d} {d:>2d}D  {succ}/{total} successes")
    for cell, message in failures:
        print(f"FAILED {cell}: {message}", file=sys.stderr)
    print(f"wrote {len(records)} records to {outdir / 'runs.jsonl'}")
    return 2 if failures else 0


def _write_table(path, header, rows):
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def resolve_log(path):
    """Path of a run log given as a file or as the bench directory holding it."""
    path = Path(path)
    return path / "runs.jsonl" if path.is_dir() else path


def _read_log(path):
    """Records of the run log at ``path``; None, with the reason on stderr,
    when it is missing or holds no parseable record."""
    log_path = resolve_log(path)
    if not log_path.exists():
        print(f"no run log at {log_path}", file=sys.stderr)
        return None
    records, skipped = load_records(log_path)
    if skipped:
        print(f"warning: skipped {skipped} malformed log lines", file=sys.stderr)
    if not records:
        print("zero parseable log records", file=sys.stderr)
        return None
    return records


def cmd_analyze(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    records = _read_log(args.logs)
    if records is None:
        return 1
    tables = build_ert_tables(records)
    phi_exp = DEFAULT_GRID.snap_exponent(args.phi)
    rows = []
    for (label, f, d), curve in sorted(tables.items()):
        for e in DEFAULT_GRID.exponents:
            value, succ, total = curve[e]
            rows.append((label, f, d, e, value, succ, total))
    _write_table(outdir / "ert_table.tsv",
                 ["algorithm", "function_id", "dimension", "target_exponent",
                  "ert", "successes", "runs"], rows)

    reports = build_vbs_reports(tables, phi_exp)
    rep_rows = [
        (r.function_id, r.dimension, r.static_algorithm, r.static_ert,
         r.dyn_a1, r.dyn_a2,
         "" if r.dyn_tau_exponent is None else r.dyn_tau_exponent,
         r.dyn_theoretical_ert, r.theoretical_gain)
        for r in reports
    ]
    _write_table(outdir / "vbs_report.tsv",
                 ["function_id", "dimension", "static_algorithm", "static_ert",
                  "dyn_a1", "dyn_a2", "dyn_tau_exponent", "dyn_theoretical_ert",
                  "theoretical_gain"], rep_rows)

    table = use_case_table(reports)
    _write_table(outdir / "use_cases.tsv",
                 ["a1", "a2", "count", "cells"],
                 [(a1, a2, entry["count"],
                   ";".join(f"F{f}/{d}D" for f, d in entry["cells"]))
                  for (a1, a2), entry in sorted(table.items())])

    cells = heatmap_data(reports)
    _write_table(outdir / "heatmap.tsv",
                 ["function_id", "dimension", "value", "negative", "infinite"],
                 [(f, d, c["value"], int(c["negative"]), int(c["infinite"]))
                  for (f, d), c in sorted(cells.items())])
    print(f"analyzed {len(records)} records -> {len(reports)} cells "
          f"({outdir})")
    return 0


def _parse_plan(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"plan must look like A1:A2:TAU, got {text!r}"
        )
    return (canonical_algorithm(parts[0]), canonical_algorithm(parts[1]),
            float(parts[2]))


def cmd_switch(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    plans = [_parse_plan(p) for p in (args.plan or [])]
    plan_cells = []  # (a1, a2, tau, f, d)
    if args.from_analysis:
        vbs_path = Path(args.from_analysis) / "vbs_report.tsv"
        if not vbs_path.exists():
            print(f"no analysis artifacts at {vbs_path}", file=sys.stderr)
            return 1
        with open(vbs_path) as fh:
            header = fh.readline().strip().split("\t")
            for line in fh:
                row = dict(zip(header, line.rstrip("\n").split("\t")))
                if row["dyn_a1"] == row["dyn_a2"] or not row["dyn_tau_exponent"]:
                    continue
                plan_cells.append((
                    row["dyn_a1"], row["dyn_a2"],
                    10.0 ** float(row["dyn_tau_exponent"]),
                    int(row["function_id"]), int(row["dimension"]),
                ))
    if plans:
        if not args.functions or not args.dims:
            print("--plan needs --functions and --dims", file=sys.stderr)
            return 1
        for a1, a2, tau in plans:
            for f in args.functions:
                for d in args.dims:
                    plan_cells.append((a1, a2, tau, f, d))
    if not plan_cells:
        print("nothing to execute: give --plan or --from-analysis",
              file=sys.stderr)
        return 1
    # the static log is read before any run, so a bad path fails at once
    static_tables = None
    if args.logs:
        static_records = _read_log(args.logs)
        if static_records is None:
            return 1
        # static and actual ERT are only comparable at the same budget
        planned = {(f, d) for *_, f, d in plan_cells}
        mismatched = sorted(
            (r["function_id"], r["dimension"], r["budget"])
            for r in static_records
            if (r["function_id"], r["dimension"]) in planned
            and r["budget"] != args.budget_mult * r["dimension"])
        if mismatched:
            f, d, budget = mismatched[0]
            print(f"static log has budget {budget} for F{f} {d}D, but "
                  f"--budget-mult {args.budget_mult} gives "
                  f"{args.budget_mult * d}", file=sys.stderr)
            return 1
        static_tables = build_ert_tables(static_records)

    configs = _optimizer_configs(
        args, {a for a1, a2, *_ in plan_cells for a in (a1, a2)})
    policy = _policy_from_args(args)
    switch_cells = [(SwitchPlan(a1=configs[a1], a2=configs[a2], tau=tau,
                                phi=args.phi, policy=policy), a1, a2, tau, f, d)
                    for a1, a2, tau, f, d in plan_cells]
    instances, runs = _instances_and_runs(args)
    problems = {(f, d, i): instantiate(ProblemId(f, d, i), args.suite_seed)
                for *_, f, d in plan_cells for i in instances}
    tasks = [(plan, problems[f, d, i], args.budget_mult * d,
              cell_seed(args.seed, "switch", a1, a2, tau, f, d, i, run), run)
             for plan, a1, a2, tau, f, d in switch_cells
             for i in instances for run in range(runs)]
    records, failures = run_switch_tasks(tasks, not args.no_early_switch,
                                         args.jobs)
    _write_records(outdir / "switch_runs.jsonl", records)
    _write_manifest(outdir, args, {"records": len(records)})

    # actual-vs-theoretical report, one row per executed plan cell
    phi_exp = DEFAULT_GRID.snap_exponent(args.phi)
    switch_tables = build_ert_tables(records)
    rows = []
    for plan, a1, a2, _, f, d in switch_cells:
        curve = switch_tables.get((plan.label(), f, d))
        actual = curve[phi_exp][0] if curve else math.inf
        static_val = theoretical = ""
        if static_tables:
            cell = {lab: c for (lab, ff, dd), c in static_tables.items()
                    if ff == f and dd == d}
            if cell:
                static_val = min(c[phi_exp][0] for c in cell.values())
                if a1 in cell and a2 in cell:
                    theoretical = theoretical_performance(
                        cell[a1], cell[a2], plan.tau_exponent, phi_exp)
        row_gains = ("", "", "")
        if static_val != "" and theoretical != "" and math.isfinite(static_val):
            row_gains = gains(static_val, theoretical, actual)
        rows.append((a1, a2, f, d, plan.tau, static_val,
                     theoretical, actual, *row_gains))
    _write_table(outdir / "switch_report.tsv",
                 ["a1", "a2", "function_id", "dimension", "tau",
                  "static_ert", "theoretical_ert", "actual_ert",
                  "theoretical_gain", "actual_gain", "actual_vs_theoretical"],
                 rows)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"executed {len(records)} switch runs -> {outdir}")
    return 2 if failures else 0


def cmd_sweep_tau(args):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    a1, a2 = canonical_algorithm(args.a1), canonical_algorithm(args.a2)
    configs = _optimizer_configs(args, (a1, a2))
    phi_exp = DEFAULT_GRID.snap_exponent(args.phi)
    if args.tau_exponents:
        exps = [float(x) for x in args.tau_exponents.split(",")]
    else:
        exps = [e for e in DEFAULT_GRID.exponents if e > phi_exp]
    instances, runs = _instances_and_runs(args)
    problems = [
        instantiate(ProblemId(args.function, args.dim, i), args.suite_seed)
        for i in instances
    ]
    records, summary = sweep_tau(
        configs[a1], configs[a2], problems, exps,
        runs_per_instance=runs, phi=args.phi,
        budget=args.budget_mult * args.dim, seed=args.seed,
        policy=_policy_from_args(args),
        early_switch=not args.no_early_switch, jobs=args.jobs,
    )
    _write_table(outdir / "sweep_runs.tsv",
                 ["tau_exponent", "instance", "run_index", "hit_phi",
                  "evals_used", "success", "switch_eval"],
                 [(DEFAULT_GRID.snap_exponent(r["tau"]), r["instance"],
                   r["run_index"], r["hit_at"].get(phi_exp, math.inf),
                   r["evals_used"], int(phi_exp in r["hit_at"]),
                   r["switch_eval"]) for r in records])
    _write_records(outdir / "sweep_runs.jsonl", records)
    header = ["tau_exponent", "mean", "std", "successes", "runs", "ert"]
    _write_table(outdir / "sweep_summary.tsv", header,
                 [[s[h] for h in header] for s in summary])
    _write_manifest(outdir, args, {"rows": len(records)})
    print(f"swept {len(exps)} switching points -> {outdir}")
    return 0


def _add_common(parser):
    parser.add_argument("--runs", type=_count, default=5)
    parser.add_argument("--instances", type=lambda s: _parse_int_list(s, "instance"),
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--budget-mult", type=_count,
                        default=DEFAULT_BUDGET_MULTIPLIER)
    parser.add_argument("--phi", type=_grid_target, default=DEFAULT_FINAL_TARGET)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite-seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="3 runs x 2 instances, for CI-scale smoke runs")
    parser.add_argument("--out", default="out")
    parser.add_argument("--config", help="JSON file of per-algorithm overrides")


def _add_warmstart(parser):
    parser.add_argument("--warmstart-mode",
                        choices=[MODE_POINT_ONLY, MODE_FULL], default=MODE_FULL)
    parser.add_argument("--step-window", type=int, default=10)
    parser.add_argument("--eta", type=float, default=0.1)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--no-early-switch", action="store_true",
                        help="do not switch when A1 converges above tau")


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (2 is reserved for partial batch failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="dynswitch",
        description="Dynamic algorithm selection benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("bench", help="run the static portfolio grid")
    p.add_argument("--algorithms", type=_parse_algorithms,
                   default=list(DEFAULT_ALGORITHMS))
    p.add_argument("--functions",
                   type=lambda s: _parse_int_list(s, "function",
                                                  valid=IMPLEMENTED_FUNCTIONS),
                   default=list(IMPLEMENTED_FUNCTIONS))
    p.add_argument("--dims", type=lambda s: _parse_int_list(s, "dimension", 2),
                   default=list(DEFAULT_DIMENSIONS))
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="compute ERT tables and VBS reports")
    p.add_argument("--logs", required=True)
    p.add_argument("--phi", type=_grid_target, default=DEFAULT_FINAL_TARGET)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("switch", help="execute dynamic switch plans")
    p.add_argument("--plan", action="append",
                   help="A1:A2:TAU, repeatable")
    p.add_argument("--from-analysis",
                   help="directory with vbs_report.tsv")
    p.add_argument("--logs", help="static run log for the comparison report")
    p.add_argument("--functions",
                   type=lambda s: _parse_int_list(s, "function",
                                                  valid=IMPLEMENTED_FUNCTIONS))
    p.add_argument("--dims", type=lambda s: _parse_int_list(s, "dimension", 2))
    _add_common(p)
    _add_warmstart(p)
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("sweep-tau", help="switching-point sensitivity sweep")
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)
    p.add_argument("--function", type=int, required=True)
    p.add_argument("--dim", type=lambda s: _count(s, 2), required=True)
    p.add_argument("--tau-exponents",
                   help="comma-separated exponents, snapped to the grid; "
                        "default: full grid")
    _add_common(p)
    _add_warmstart(p)
    p.set_defaults(func=cmd_sweep_tau)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
