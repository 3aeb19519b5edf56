"""README's Quick start commands run, in order, and exit 0.

Each `dynswitch` command of the Quick start block goes through
``cli.main`` in a fresh directory, with ``--budget-mult 100`` appended so
the whole block takes seconds.
"""

import shlex
from pathlib import Path

from dynswitch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_commands():
    """The argument lists of the Quick start block, without `dynswitch`."""
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("\n```", start)]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            argv = shlex.split(line)
            assert argv[0] == "dynswitch", line
            commands.append(argv[1:])
    return commands


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert commands
    for argv in commands:
        # analyze runs nothing, so it takes no budget
        budget = [] if argv[0] == "analyze" else ["--budget-mult", "100"]
        assert main([*argv, *budget]) == 0, (argv, capsys.readouterr().err)
