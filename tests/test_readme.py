"""Every command of README's command-line block runs and writes its output."""

import os
import re
import shlex

import pytest

from decaylab import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands():
    """The argv of each `decaylab ...` command in README's `sh` block after
    "## Command line"; backslash continuations are joined, and a quoted
    argument may span lines."""
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    tokens = shlex.split(block.replace("\\\n", " "), comments=True)
    starts = [i for i, tok in enumerate(tokens) if tok == "decaylab"]
    return [tokens[i + 1:j] for i, j in zip(starts, starts[1:] + [len(tokens)])]


COMMANDS = readme_commands()


def test_readme_lists_every_command():
    assert len(COMMANDS) == 10
    assert {argv[0] for argv in COMMANDS} == set(cli._COMMANDS)


def out_of(argv):
    return argv[argv.index("--out") + 1]


@pytest.mark.parametrize("argv", COMMANDS, ids=out_of)
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out = out_of(argv)
    if argv[0] == "potential":
        written = [out + suffix for suffix in ("_density.csv", "_roundtrip.csv", "_factor.csv")]
    else:
        written = [out]
    assert sorted(os.listdir(tmp_path)) == sorted(written)
