"""The README's Python quick start runs as written, and every flag it
names belongs to the command it is given for."""

import argparse
import os
import re

from lsbe.cli import build_parser

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "run_trace_experiment.py")
# Flags the README gives for other programs: pip's, and the trace script's
# (which the script itself must define).
PIP_FLAGS = {"--no-build-isolation"}
SCRIPT_FLAGS = {"--demo"}
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _readme():
    with open(README) as fh:
        return fh.read()


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _subcommand_flags():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: set(p._option_string_actions)
            for name, p in sub.choices.items()}


def test_readme_flags_exist_on_their_command():
    # A command line (lsbe <command> ..., backslash continuations joined)
    # must use only that command's flags; a flag named in the prose must
    # belong to some lsbe command, so a retired flag cannot linger.
    flags = _subcommand_flags()
    text = _readme()
    lines = re.sub(r"\\\n", " ", text).splitlines()
    commands = [line.split("#")[0] for line in lines
                if re.match(r"\s*lsbe \w", line)]
    assert commands
    for line in commands:
        command = line.split()[1]
        assert command in flags, line
        for flag in FLAG.findall(line):
            assert flag in flags[command], (command, flag)
    known = set().union(*flags.values())
    with open(SCRIPT) as fh:
        script = fh.read()
    for flag in set(FLAG.findall(text)):
        if flag in SCRIPT_FLAGS:
            assert f'"{flag}"' in script, flag
        else:
            assert flag in known | PIP_FLAGS, flag
