"""List digests of every output of a fixed set of dynswitch commands.

    python tools/output_digests.py [--src CHECKOUT/src] [--jobs N]

Runs bench, analyze, switch (the bench's dynamic virtual best, explicit
plans, point_only mode without early switches, point_only mode on the model
transfers and on plans into CMA-ES and MLSL, plans into each algorithm
with settings for all five from a ``--config``) and sweep-tau on small
inputs, and two bench commands whose ``--config`` names a starting state,
which bench refuses.  Each runs in a new process with ``--src`` first on
its import path, inside a temporary directory, with relative ``--out`` and
``--config`` paths so that manifests compare equal.
Prints one ``sha256  path`` line per file, the outputs and the ``--config``
files, sorted by path, then a line each for every command's stdout and
stderr digests and exit code.

Two checkouts that write the same bytes print the same listing, and so do
two ``--jobs`` values: ``manifest.json`` is digested without its ``jobs``
entry, the one setting that must change no output byte.  Compare a change
with its parent by pointing ``--src`` at each and diffing the listings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SMALL = ["--instances", "1,2", "--runs", "2", "--budget-mult", "300"]
# settings for every algorithm, written to the --config file CONFIG
CONFIG = "config.json"
SETTINGS = {
    "BFGS": {"gradient_tolerance": 1e-6},
    "CMA-ES": {"population_size": 8, "sigma": 1.0},
    "DE": {"population_size": 12, "crossover_rate": 0.7},
    "PSO": {"swarm_size": 20},
    "MLSL": {"population_size": 30, "local_budget_fraction": 0.05},
}
# --config files by name: CONFIG, and two starting states, which no
# --config sets
CONFIGS = {
    CONFIG: SETTINGS,
    "samples.json": {"MLSL": {"samples": 1}},
    "covariance.json": {"CMA-ES": {"C": 1}},
}
# the commands, by name, that exit 1 refusing their input
REFUSED = ("refused-samples", "refused-covariance")
# (name, arguments): a name is also the command's --out directory
COMMANDS = [
    ("bench", ["bench", "--algorithms", "BFGS,MLSL,PSO,CMA-ES,DE",
               "--functions", "1,10,21", "--dims", "2,3", *SMALL]),
    ("analysis", ["analyze", "--logs", "bench"]),
    ("switch-analysis", ["switch", "--plan", "vbs", "--logs", "bench",
                         *SMALL]),
    ("switch-plans", ["switch", "--plan", "BFGS:CMA-ES:1e-2",
                      "--plan", "CMA-ES:BFGS:1", "--functions", "1,10",
                      "--dims", "2", "--logs", "bench", *SMALL]),
    ("switch-point", ["switch", "--plan", "PSO:BFGS:1e-2", "--functions",
                      "10,21", "--dims", "3", "--warmstart-mode",
                      "point_only", "--no-early-switch", *SMALL]),
    ("switch-point-models", ["switch", "--plan", "BFGS:CMA-ES:1e-2",
                             "--plan", "CMA-ES:BFGS:1", "--plan",
                             "DE:CMA-ES:1", "--plan", "PSO:MLSL:1",
                             "--functions", "1,10", "--dims", "2",
                             "--warmstart-mode", "point_only", *SMALL]),
    ("switch-config", ["switch", "--plan", "BFGS:CMA-ES:1e-2", "--plan",
                       "PSO:DE:1", "--plan", "DE:PSO:1", "--plan",
                       "CMA-ES:BFGS:1", "--plan", "CMA-ES:MLSL:1",
                       "--functions", "1,10", "--dims", "2", "--config",
                       CONFIG, *SMALL]),
    ("sweep", ["sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS", "--function",
               "10", "--dim", "2", "--tau-exponents", "1,0,-2", *SMALL]),
    ("refused-samples", ["bench", "--algorithms", "MLSL", "--functions",
                         "1", "--dims", "2", "--config", "samples.json",
                         *SMALL]),
    ("refused-covariance", ["bench", "--algorithms", "CMA-ES", "--functions",
                            "1", "--dims", "2", "--config",
                            "covariance.json", *SMALL]),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name != "manifest.json":
        return _digest(path.read_bytes())
    settings = json.loads(path.read_text())
    settings.pop("jobs", None)
    return _digest(json.dumps(settings, sort_keys=True).encode())


def listing(src: Path, jobs: int) -> list[str]:
    """The listing of the command set run from ``src`` at ``jobs``."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for config, settings in CONFIGS.items():
            Path(tmp, config).write_text(json.dumps(settings))
        for name, argv in COMMANDS:
            if argv[0] != "analyze":
                argv = [*argv, "--jobs", str(jobs)]
            done = subprocess.run(
                [sys.executable, "-m", "dynswitch.cli", *argv, "--out", name],
                cwd=tmp, env=env, capture_output=True, check=False)
            lines += [f"{_digest(done.stdout)}  {name}: stdout",
                      f"{_digest(done.stderr)}  {name}: stderr",
                      f"exit {done.returncode}  {name}: exit code"]
        files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
        return [f"{_file_digest(p)}  {p.relative_to(tmp)}"
                for p in files] + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to run")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    print("\n".join(listing(args.src, args.jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
