"""List digests of every output of a fixed set of dynswitch commands.

    python tools/output_digests.py [--src CHECKOUT/src] [--jobs N]

Runs bench, analyze, switch (the bench's dynamic virtual best, explicit
plans, point_only mode without early switches) and sweep-tau on small
inputs, each in a new process with ``--src`` first on its import path,
inside a temporary directory, with relative ``--out`` paths so that
manifests compare equal.
Prints one ``sha256  path`` line per output file, sorted by path, then a
line each for every command's stdout and stderr digests and exit code.

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
    ("sweep", ["sweep-tau", "--a1", "CMA-ES", "--a2", "BFGS", "--function",
               "10", "--dim", "2", "--tau-exponents", "1,0,-2", *SMALL]),
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
