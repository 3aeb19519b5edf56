"""Command-line driver: bench, analyze, switch, and sweep-tau subcommands.

Runs fan out deterministically from a master seed, so reruns with the same
settings produce byte-identical log payloads.  Exit codes: 0 success, 1 usage
error, 2 when some runs of a batch failed (the others are written).  Bad input
raises ValueError before any run or output: argparse names the flag of one
raised by a converter (see ``_arg``), ``main`` prints any other; both exit 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
# the benchmark's tracer patches build_ert_tables and build_vbs_reports here
from .analysis import (
    build_ert_tables,
    build_vbs_reports,
    ert_table,
    heatmap_table,
    sweep_run_table,
    switch_report,
    tau_summary,
    use_case_table,
    vbs_table,
)
from .optimizers import OptimizerConfig, canonical_algorithm, run_single
from .problems import IMPLEMENTED_FUNCTIONS, ProblemId, instantiate
# run_switch stays bound here: the benchmark's tracer patches it by this name
from .switching import (SwitchPlan, cell_seed, run_switch, run_switch_tasks,
                        run_tasks, sweep_tau)
from .tracing import (
    DEFAULT_FINAL_TARGET,
    DEFAULT_GRID,
    load_records,
    record_to_json,
)
from .warmstart import MODE_FULL, MODE_POINT_ONLY, WarmStartPolicy

DEFAULT_ALGORITHMS = ("BFGS", "MLSL", "PSO", "CMA-ES", "DE")
DEFAULT_DIMENSIONS = (2, 3, 5, 10, 20)
DEFAULT_BUDGET_MULTIPLIER = 10_000  # evaluations per dimension


def _arg(convert, *args):
    """An argparse ``type`` calling ``convert(text, *args)``; its ValueError
    becomes a usage error naming the flag, not "invalid <function> value"."""
    def parse(text):
        try:
            return convert(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _number(text, kind=float):
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"not {what}: {text!r}") from None


def _count(text, minimum=1):
    """An int of at least ``minimum``: a count, an instance or a dimension."""
    value = _number(text, int)
    if value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}")
    return value


def _parse_int_list(text, what, minimum=1, valid=None):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty {what} in {text!r}")
        if "-" in chunk and not chunk.startswith("-"):
            lo, hi = chunk.split("-", 1)
            lo, hi = _count(lo, minimum), _number(hi, int)
            if hi < lo:
                raise ValueError(f"reversed {what} range {chunk!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_count(chunk, minimum))
    if valid is not None:
        bad = [v for v in out if v not in valid]
        if bad:
            raise ValueError(f"invalid {what}(s): {bad}")
    return _unique(out, what)


def _parse_algorithms(text):
    return _unique([canonical_algorithm(a) for a in text.split(",")], "algorithm")


def _positive(text):
    """A finite float above zero: --eta and --beta."""
    value = _number(text)
    if not 0 < value < math.inf:
        raise ValueError(f"must be finite and positive, got {text!r}")
    return value


def _tau(exponent):
    """10 ** float(exponent); a ValueError naming ``exponent`` unless that
    is a positive, finite precision."""
    try:
        tau = 10.0 ** float(exponent)
    except OverflowError:
        tau = math.inf
    try:
        DEFAULT_GRID.snap_exponent(tau)
    except ValueError as exc:
        raise ValueError(f"tau exponent {exponent!r}: {exc}") from None
    return tau


def _tau_exponents(text):
    """--tau-exponents: each 10**e must be a positive, finite precision."""
    out = []
    for chunk in text.split(","):
        out.append(_number(chunk))
        _tau(chunk)
    return out


def _unique(values, what):
    """``values``, refused if one repeats: it would pool copies of runs."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"duplicate {what}(s): {', '.join(map(str, repeated))}")
    return values


def _grid_target(text):
    """--phi: the grid target nearest to the precision given."""
    return DEFAULT_GRID.snap(_number(text))


def _optimizer_configs(args, algorithms):
    """OptimizerConfig per algorithm, with the --config overrides applied.

    Every entry of the file is checked before any run, used or not.
    """
    loaded = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not (isinstance(loaded, dict)
                and all(isinstance(v, dict) for v in loaded.values())):
            raise ValueError(f"--config {args.config} must hold a JSON object "
                             f"of objects, one per algorithm, such as "
                             f'{{"CMA-ES": {{"population_size": 12}}}}')
    configs = {config.algorithm: config for config in (
        OptimizerConfig(name, values) for name, values in loaded.items())}
    return {a: configs.get(a, OptimizerConfig(a)) for a in algorithms}


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


def _create(path):
    """``path`` opened for writing, its directory made first: a command
    makes its output directory only once it has something to write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _run_key(rec):
    """A run's name in a log: label, cell, instance, run index (or None)."""
    return (rec["algorithm_label"], rec["function_id"], rec["dimension"],
            rec.get("instance"), rec.get("run_index"))


def _write_records(path, records):
    # deterministic order regardless of worker scheduling
    records = sorted(records, key=_run_key)
    with _create(path) as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def _write_manifest(outdir, args, records):
    settings = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    settings.update(version=__version__, records=records)
    with _create(outdir / "manifest.json") as fh:
        fh.write(json.dumps(settings, indent=2, sort_keys=True) + "\n")


def _write_table(path, header, rows):
    with _create(path) as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def _finish(args, log, records, failures, tables):
    """End a batch: write its records to ``log``, the manifest and
    ``tables`` ({file name: (header, rows)}) under --out, and name each
    failed run after FAILED on stderr.  Exits 2 if a run failed, else 0."""
    outdir = Path(args.out)
    _write_records(outdir / log, records)
    _write_manifest(outdir, args, len(records))
    for name, table in tables.items():
        _write_table(outdir / name, *table)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"wrote {len(records)} records to {outdir / log}")
    return 2 if failures else 0


def cmd_bench(args):
    cells = [(a, f, d, inst, run) for a in args.algorithms
             for f in args.functions for d in args.dims
             for inst in args.instances for run in range(args.runs)]
    worker = functools.partial(_bench_cell, args,
                               _optimizer_configs(args, args.algorithms))
    records, failures = run_tasks(worker, cells, args.jobs)
    phi_exp = DEFAULT_GRID.snap_exponent(args.phi)
    for (label, f, d), curve in sorted(build_ert_tables(records).items()):
        _, succ, total = curve[phi_exp]
        print(f"{label:8s} F{f:<3d} {d:>2d}D  {succ}/{total} successes")
    return _finish(args, "runs.jsonl", records, [
        f"{a} F{f} {d}D instance {i} run {r}: {message}"
        for (a, f, d, i, r), message in failures], {})


def _read_log(path):
    """Records of the run log at ``path``, a file or the bench directory
    holding it; a ValueError if it is missing, holds no parseable record or
    holds one run twice at one budget (two budgets: the ERT tables refuse)."""
    log_path = Path(path)
    log_path = log_path / "runs.jsonl" if log_path.is_dir() else log_path
    if not log_path.exists():
        raise ValueError(f"no run log at {log_path}")
    records, skipped = load_records(log_path)
    if skipped:
        print(f"warning: skipped {skipped} malformed log lines", file=sys.stderr)
    if not records:
        raise ValueError("zero parseable log records")
    seen = set()
    for rec in records:
        key = (*_run_key(rec), rec["budget"])
        if key in seen:
            a, f, d, i, r, budget = key
            raise ValueError(f"{log_path} holds {a} F{f} {d}D instance {i} "
                             f"run {r} at budget {budget} twice")
        seen.add(key)
    return records


def cmd_analyze(args):
    records = _read_log(args.logs)
    outdir = Path(args.out)
    tables = build_ert_tables(records)
    reports = build_vbs_reports(tables, DEFAULT_GRID.snap_exponent(args.phi))
    for name, table in (("ert_table", ert_table(tables)),
                        ("vbs_report", vbs_table(reports)),
                        ("use_cases", use_case_table(reports)),
                        ("heatmap", heatmap_table(reports))):
        _write_table(outdir / f"{name}.tsv", *table)
    _write_manifest(outdir, args, len(records))
    print(f"analyzed {len(records)} records -> {len(reports)} cells "
          f"({outdir})")
    return 0


def _parse_plan(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"plan must look like A1:A2:TAU, got {text!r}")
    return (canonical_algorithm(parts[0]), canonical_algorithm(parts[1]),
            _number(parts[2]))


def cmd_switch(args):
    plan_cells = []  # (a1, a2, tau, f, d)
    if args.from_analysis:
        vbs_path = Path(args.from_analysis) / "vbs_report.tsv"
        if not vbs_path.exists():
            raise ValueError(f"no analysis artifacts at {vbs_path}")
        # the VBS pairs and their tau were chosen for the analysis's phi
        manifest_path = vbs_path.with_name("manifest.json")
        analysis_phi = "unknown (no manifest.json)"
        if manifest_path.exists():
            analysis_phi = json.loads(manifest_path.read_text()).get("phi")
        if analysis_phi != args.phi:
            raise ValueError(f"the analysis at {args.from_analysis} is for "
                             f"phi {analysis_phi}, not {args.phi:g}: rerun "
                             f"`dynswitch analyze --phi {args.phi:g}`")
        with open(vbs_path, newline="") as fh:
            rows = csv.DictReader(fh, delimiter="\t")
            missing = [name for name in vbs_table([])[0]
                       if name not in (rows.fieldnames or ())]
            if missing:
                raise ValueError(f"{vbs_path} lacks the columns "
                                 f"{', '.join(missing)}: rerun `dynswitch analyze`")
            plan_cells.extend(
                (row["dyn_a1"], row["dyn_a2"],
                 _tau(row["dyn_tau_exponent"]),
                 int(row["function_id"]), int(row["dimension"]))
                for row in rows
                if row["dyn_a1"] != row["dyn_a2"] and row["dyn_tau_exponent"])
    if args.plan:
        if not args.functions or not args.dims:
            raise ValueError("--plan needs --functions and --dims")
        plan_cells += [(a1, a2, tau, f, d) for a1, a2, tau in args.plan
                       for f in args.functions for d in args.dims]
    # the static log is read before any run, so a bad path fails at once
    static_tables = None
    if args.logs:
        static_records = _read_log(args.logs)
        # static and actual ERT are only comparable at the same budget
        planned = {(f, d) for *_, f, d in plan_cells}
        for f, d, budget in sorted({(r["function_id"], r["dimension"],
                                     r["budget"]) for r in static_records}):
            if (f, d) in planned and budget != args.budget_mult * d:
                raise ValueError(f"static log has budget {budget} for F{f} "
                                 f"{d}D, but --budget-mult {args.budget_mult} "
                                 f"gives {args.budget_mult * d}")
        static_tables = build_ert_tables(static_records)

    configs = _optimizer_configs(
        args, {a for a1, a2, *_ in plan_cells for a in (a1, a2)})
    policy = _policy_from_args(args)
    switch_cells = [(SwitchPlan(a1=configs[a1], a2=configs[a2], tau=tau,
                                phi=args.phi, policy=policy), f, d)
                    for a1, a2, tau, f, d in plan_cells]
    problems = {(f, d, i): instantiate(ProblemId(f, d, i), args.suite_seed)
                for *_, f, d in plan_cells for i in args.instances}
    tasks = [(plan, problems[f, d, i], args.budget_mult * d, run)
             for plan, f, d in switch_cells
             for i in args.instances for run in range(args.runs)]
    records, failures = run_switch_tasks(tasks, args.seed,
                                         not args.no_early_switch, args.jobs)
    return _finish(args, "switch_runs.jsonl", records, failures, {
        "switch_report.tsv": switch_report(
            switch_cells, build_ert_tables(records), static_tables,
            DEFAULT_GRID.snap_exponent(args.phi))})


def cmd_sweep_tau(args):
    configs = _optimizer_configs(args, (args.a1, args.a2))
    phi_exp = DEFAULT_GRID.snap_exponent(args.phi)
    exps = args.tau_exponents or [e for e in DEFAULT_GRID.exponents
                                  if e > phi_exp]
    problems = [
        instantiate(ProblemId(args.function, args.dim, i), args.suite_seed)
        for i in args.instances
    ]
    records, failures = sweep_tau(
        configs[args.a1], configs[args.a2], problems, exps,
        runs_per_instance=args.runs, phi=args.phi,
        budget=args.budget_mult * args.dim, seed=args.seed,
        policy=_policy_from_args(args),
        early_switch=not args.no_early_switch, jobs=args.jobs,
    )
    return _finish(args, "sweep_runs.jsonl", records, failures, {
        "sweep_runs.tsv": sweep_run_table(records, phi_exp),
        "sweep_summary.tsv": tau_summary(records, phi_exp)})


def _add_common(parser):
    parser.add_argument("--runs", type=_arg(_count), default=5)
    parser.add_argument("--instances", type=_arg(_parse_int_list, "instance"),
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--budget-mult", type=_arg(_count),
                        default=DEFAULT_BUDGET_MULTIPLIER)
    parser.add_argument("--phi", type=_arg(_grid_target),
                        default=DEFAULT_FINAL_TARGET)
    parser.add_argument("--seed", type=_arg(_number, int), default=0)
    parser.add_argument("--suite-seed", type=_arg(_count, 0), default=0)
    parser.add_argument("--jobs", type=_arg(_count), default=1)
    parser.add_argument("--out", default="out")
    parser.add_argument("--config", help="JSON file of per-algorithm overrides")


def _add_warmstart(parser):
    parser.add_argument("--warmstart-mode",
                        choices=[MODE_POINT_ONLY, MODE_FULL], default=MODE_FULL)
    parser.add_argument("--step-window", type=_arg(_count, 2), default=10)
    parser.add_argument("--eta", type=_arg(_positive), default=0.1)
    parser.add_argument("--beta", type=_arg(_positive), default=1.0)
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
    functions = _arg(_parse_int_list, "function", 1, IMPLEMENTED_FUNCTIONS)
    dims = _arg(_parse_int_list, "dimension", 2)

    p = sub.add_parser("bench", help="run the static portfolio grid")
    p.add_argument("--algorithms", type=_arg(_parse_algorithms),
                   default=list(DEFAULT_ALGORITHMS))
    p.add_argument("--functions", type=functions,
                   default=list(IMPLEMENTED_FUNCTIONS))
    p.add_argument("--dims", type=dims, default=list(DEFAULT_DIMENSIONS))
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="compute ERT tables and VBS reports")
    p.add_argument("--logs", required=True)
    p.add_argument("--phi", type=_arg(_grid_target),
                   default=DEFAULT_FINAL_TARGET)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("switch", help="execute dynamic switch plans")
    p.add_argument("--plan", action="append", type=_arg(_parse_plan),
                   help="A1:A2:TAU, repeatable")
    p.add_argument("--from-analysis",
                   help="directory with vbs_report.tsv")
    p.add_argument("--logs", help="static run log for the comparison report")
    p.add_argument("--functions", type=functions)
    p.add_argument("--dims", type=dims)
    _add_common(p)
    _add_warmstart(p)
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("sweep-tau", help="switching-point sensitivity sweep")
    p.add_argument("--a1", type=_arg(canonical_algorithm), required=True)
    p.add_argument("--a2", type=_arg(canonical_algorithm), required=True)
    p.add_argument("--function", type=_arg(_number, int),
                   choices=IMPLEMENTED_FUNCTIONS, required=True)
    p.add_argument("--dim", type=_arg(_count, 2), required=True)
    p.add_argument("--tau-exponents", type=_arg(_tau_exponents),
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
