"""The benchmark's workloads and the checks on their outputs.

Each workload is a fixed list of ``dynswitch`` CLI commands whose inputs
derive from the benchmark seed (the CLI's ``--seed`` and ``--suite-seed``).
One execution of the list is a *unit*.  A unit is made of *parts*, each
the same commands narrowed to a share of the unit's runs and writing
under its own directory, so that a part can be timed on its own.  A run
repeats units.  Standard library only, so run.py can check outputs
without numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

from derive import ALGORITHMS, FUNCTIONS

PHI_EXPONENT = -8.0
GRID = tuple(round(2.0 - 0.2 * i, 10) for i in range(51))
TERMINATION = frozenset({"target_hit", "budget_exhausted", "algorithm_converged"})

SWEEP_TAU_EXPONENTS = (1.0, 0.0, -1.0, -2.0, -3.0, -4.0)
# (function, plans): each plan's tau is one its A1 reaches in most runs
SWITCH_PLANS = (
    (1, ("BFGS:CMA-ES:100", "CMA-ES:BFGS:1e-2", "MLSL:PSO:1", "MLSL:CMA-ES:1",
         "PSO:DE:10", "DE:CMA-ES:10")),
    (8, ("BFGS:CMA-ES:100", "CMA-ES:BFGS:100")),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    functions: tuple
    budget_mult: int
    instances: tuple = (1, 2)   # with runs=3, what the CLI's --quick selects
    runs: int = 3
    jobs: int | None = None     # None: one job per CPU the run may use
    parts: tuple = ()           # field overrides, one dict per part

    @property
    def budget(self):
        return self.budget_mult * self.dim


WORKLOADS = {w.name: w for w in (
    Workload("static-grid",
             "bench over 5 algorithms x 12 functions at 5D with a process "
             "pool, then analyze: kernels, optimizer loops, pool and analysis",
             dim=5, functions=FUNCTIONS, budget_mult=1000, instances=(1,),
             runs=1, parts=tuple({"functions": FUNCTIONS[i::3]} for i in range(3))),
    Workload("tau-sweep",
             "sweep-tau CMA-ES>BFGS on F10 5D over six tau: phase 1 is rerun "
             "from scratch for every tau, so work is shared across inputs",
             dim=5, functions=(10,), budget_mult=1000, instances=tuple(range(1, 7)),
             runs=1, jobs=1, parts=tuple({"instances": (i,)} for i in range(1, 7))),
    Workload("switch-20d",
             "switch plans covering every warm-start branch on the cheap F1 "
             "and F8 at 20D: optimizer and evaluator overhead dominate",
             dim=20, functions=(1, 8), budget_mult=200, jobs=1,
             parts=({"functions": (1,)}, {"functions": (8,)})),
)}


def parts(w):
    """The parts of one unit of ``w``, as workloads of their own."""
    return [replace(w, parts=(), **o) for o in w.parts] or [w]


def part_dir(out, index):
    return Path(out, f"part-{index}")


def unit_commands(w, seed, out, jobs):
    """CLI argument lists of each part of one unit, writing under ``out``."""
    return [commands(p, seed, part_dir(out, i), jobs)
            for i, p in enumerate(parts(w))]


def commands(w, seed, out, jobs):
    """CLI argument lists of one unit of ``w``, writing under ``out``."""
    common = ["--instances", ",".join(map(str, w.instances)), "--runs",
              str(w.runs), "--budget-mult", str(w.budget_mult), "--seed",
              str(seed), "--suite-seed", str(seed), "--jobs", str(jobs)]
    if w.name == "static-grid":
        return [
            ["bench", "--functions", ",".join(map(str, w.functions)),
             "--dims", str(w.dim), *common, "--out", f"{out}/bench"],
            ["analyze", "--logs", f"{out}/bench", "--out", f"{out}/analysis"],
        ]
    if w.name == "tau-sweep":
        return [["sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS", "--function",
                 "10", "--dim", str(w.dim), "--tau-exponents",
                 ",".join(f"{e:g}" for e in SWEEP_TAU_EXPONENTS), *common,
                 "--out", f"{out}/sweep"]]
    return [["switch", *(a for p in plans for a in ("--plan", p)),
             "--functions", str(f), "--dims", str(w.dim), *common,
             "--out", f"{out}/switch-F{f}"]
            for f, plans in SWITCH_PLANS if f in w.functions]


@dataclass
class Outcome:
    """What one unit's outputs showed."""

    attempted: int      # optimizer runs the unit asked for
    failed: int         # runs missing, failed by the CLI, or failing a check
    evals: int          # evaluations recorded in the outputs
    digest: str         # hash of the integer fields of every run
    problems: list      # human-readable reasons for failures


def _tsv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def _ert(records, budget):
    total, successes = 0.0, 0
    for rec in records:
        hit = dict(rec["hit_at"]).get(PHI_EXPONENT)
        if hit is None:
            total += min(rec["evals_used"], budget)
        else:
            total += min(hit, budget)
            successes += 1
    return total / successes if successes else math.inf


def _same(a, b):
    return a == b or math.isclose(a, b, rel_tol=1e-12)


def record_problem(rec, budget):
    """Why a run record is invalid, or None."""
    if rec["budget"] != budget or not 0 <= rec["evals_used"] <= budget:
        return f"evals_used {rec['evals_used']} over budget {rec['budget']}"
    exps = [e for e, _ in rec["hit_at"]]
    counts = [n for _, n in rec["hit_at"]]
    if tuple(exps) != GRID[:len(exps)]:
        return f"hit_at exponents {exps} are not a prefix of the target grid"
    if counts != sorted(counts) or (
            counts and not 1 <= counts[0] <= counts[-1] <= rec["evals_used"]):
        return f"hit_at counts {counts} not monotone within 1..evals_used"
    if rec["terminated_reason"] not in TERMINATION:
        return f"unknown terminated_reason {rec['terminated_reason']!r}"
    if (rec["terminated_reason"] == "target_hit") != (PHI_EXPONENT in exps):
        return "terminated_reason disagrees with the hit at phi"
    if "switch_eval" in rec:
        s = rec["switch_eval"]
        if s is not None and not 1 <= s <= rec["evals_used"]:
            return f"switch_eval {s} outside 1..evals_used"
        if rec["phase1_reason"] not in TERMINATION:
            return f"unknown phase1_reason {rec['phase1_reason']!r}"
    return None


def _digest(rows):
    text = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _check_records(path, expected, budget, problems):
    """Check a run log against the expected run keys.

    Returns (valid records by key, failed run count).
    """
    records = {}
    failed = 0
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["algorithm_label"], rec["function_id"], rec["dimension"],
                   rec["instance"], rec["run_index"])
            why = record_problem(rec, budget)
            if key not in expected or key in records:
                why = why or "unexpected or duplicate record"
            if why:
                problems.append(f"{path}: {key}: {why}")
                failed += 1
            else:
                records[key] = rec
    missing = len(expected - records.keys())
    if missing:
        problems.append(f"{path}: {missing} runs missing")
    return records, failed + missing


def _record_digest_rows(records):
    return [[*key, r["evals_used"], [[repr(e), n] for e, n in r["hit_at"]],
             r["terminated_reason"], r.get("switch_eval")]
            for key, r in records.items()]


def _check_ert(records, rows, budget, label_of, problems, what):
    """Compare the ERT at phi in a report with a recomputation."""
    groups = {}
    for (label, f, d, _, _), rec in records.items():
        groups.setdefault((label, f, d), []).append(rec)
    ok = True
    for row in rows:
        key = label_of(row)
        value = float(row[what])
        if key not in groups or not _same(value, _ert(groups[key], budget)):
            problems.append(f"{what} {value} for {key} differs from records")
            ok = False
    return ok


def _plan_label(a1, a2, tau):
    return f"{a1}>{a2}@{float(tau):.6g}"


def expected_runs(w):
    """Keys of the optimizer runs one unit of ``w`` asks for."""
    runs = tuple(product(w.instances, range(w.runs)))
    if w.name == "static-grid":
        return {(a, f, w.dim, *r) for a in ALGORITHMS for f in w.functions
                for r in runs}
    if w.name == "tau-sweep":
        return {(e, *r) for e in SWEEP_TAU_EXPONENTS for r in runs}
    return {(_plan_label(*p.split(":")), f, w.dim, *r)
            for f, plans in SWITCH_PLANS if f in w.functions
            for p in plans for r in runs}


def check_static_grid(w, out):
    expected = expected_runs(w)
    problems = []
    records, failed = _check_records(Path(out, "bench", "runs.jsonl"),
                                     expected, w.budget, problems)
    rows = [r for r in _tsv(Path(out, "analysis", "ert_table.tsv"))
            if float(r["target_exponent"]) == PHI_EXPONENT]
    ok = len(rows) == len({k[:3] for k in expected}) and _check_ert(
        records, rows, w.budget,
        lambda r: (r["algorithm"], int(r["function_id"]), int(r["dimension"])),
        problems, "ert")
    return _outcome(expected, records, failed, ok, problems)


def check_switch(w, out):
    expected_all = expected_runs(w)
    problems, records, failed, ok = [], {}, 0, True
    for f, plans in SWITCH_PLANS:
        if f not in w.functions:
            continue
        expected = {k for k in expected_all if k[1] == f}
        recs, bad = _check_records(Path(out, f"switch-F{f}", "switch_runs.jsonl"),
                                   expected, w.budget, problems)
        records.update(recs)
        failed += bad
        rows = _tsv(Path(out, f"switch-F{f}", "switch_report.tsv"))
        ok &= len(rows) == len(plans) and _check_ert(
            recs, rows, w.budget,
            lambda r: (_plan_label(r["a1"], r["a2"], r["tau"]),
                       int(r["function_id"]), int(r["dimension"])),
            problems, "actual_ert")
    return _outcome(expected_all, records, failed, ok, problems)


def check_sweep(w, out):
    expected = expected_runs(w)
    problems, rows, failed = [], {}, 0
    for r in _tsv(Path(out, "sweep", "sweep_runs.tsv")):
        key = (float(r["tau_exponent"]), int(r["instance"]), int(r["run_index"]))
        evals = int(r["evals_used"])
        hit = math.inf if r["hit_phi"] == "inf" else int(r["hit_phi"])
        switch = None if r["switch_eval"] == "None" else int(r["switch_eval"])
        why = None
        if key not in expected or key in rows:
            why = "unexpected or duplicate row"
        elif not 0 <= evals <= w.budget:
            why = f"evals_used {evals} over budget {w.budget}"
        elif int(r["success"]) != math.isfinite(hit) or hit < math.inf and hit > evals:
            why = f"hit_phi {hit} inconsistent with success/evals_used"
        elif switch is not None and not 1 <= switch <= evals:
            why = f"switch_eval {switch} outside 1..evals_used"
        if why:
            problems.append(f"sweep {key}: {why}")
            failed += 1
        else:
            rows[key] = (evals, hit, switch)
    missing = len(expected - rows.keys())
    failed += missing
    ok = True
    for s in _tsv(Path(out, "sweep", "sweep_summary.tsv")):
        cell = [v for k, v in rows.items() if k[0] == float(s["tau_exponent"])]
        costs = [h if math.isfinite(h) else e for e, h, _ in cell]
        mean = sum(costs) / len(costs) if costs else math.nan
        if not (_same(float(s["mean"]), mean) and int(s["runs"]) == len(cell)
                and int(s["successes"]) == sum(math.isfinite(h) for _, h, _ in cell)):
            problems.append(f"sweep summary for tau 10^{s['tau_exponent']} "
                            "differs from its rows")
            ok = False
    digest_rows = [[*k, e, repr(h), sw] for k, (e, h, sw) in rows.items()]
    return Outcome(len(expected), len(expected) if not ok else failed,
                   sum(e for e, _, _ in rows.values()), _digest(digest_rows),
                   problems)


def _outcome(expected, records, failed, ok, problems):
    return Outcome(
        attempted=len(expected),
        failed=failed if ok else len(expected),
        evals=sum(r["evals_used"] for r in records.values()),
        digest=_digest(_record_digest_rows(records)),
        problems=problems,
    )


CHECKS = {"static-grid": check_static_grid, "tau-sweep": check_sweep,
          "switch-20d": check_switch}


def check_part(w, out):
    """Check one part's outputs; any unreadable output fails the part."""
    try:
        return CHECKS[w.name](w, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        n = len(expected_runs(w))
        return Outcome(n, n, 0, "", [f"unreadable output: {exc!r}"])


def check(w, out):
    """Check one unit's outputs, part by part."""
    outcomes = [check_part(p, part_dir(out, i)) for i, p in enumerate(parts(w))]
    return Outcome(
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        evals=sum(o.evals for o in outcomes),
        digest=_digest([o.digest for o in outcomes]),
        problems=[p for o in outcomes for p in o.problems],
    )
