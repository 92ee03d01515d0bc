"""The README's examples run against the library as it is.

The "Library overview" block is executed, and every `prodmat ...` line of
the command-line block is parsed by the CLI's own parser, and by its direct
path where that takes the line, so a name pruned or renamed in the library
or the CLI cannot leave the README stale.
"""

import re
import shlex
from pathlib import Path

from prodmat import cli, hypersimplex_slack, parse_matrix, two_product

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str = "") -> str:
    """The first fenced code block after the README's `## heading`."""
    section = README[README.index(f"\n## {heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_overview_runs():
    S = two_product(parse_matrix("2 3\n1 0 2\n0 0 1"), 1, parse_matrix("2 3\n1 2 0\n0 1 1"), 1)
    env = {"S": S, "r": S.m - 1, "S0": hypersimplex_slack(4, 2)}
    exec(compile(_block("Library overview", "python"), "README.md", "exec"), env)
    assert env["cert"] is not None and env["cert2"] is not None and env["rec"] is not None


def _cli_lines():
    """The argument lists of the command-line block's lines, `a|b` choices expanded."""
    for line in _block("Command-line interface").splitlines():
        words = re.sub(r"\[[^\]]*\]", "", line.split("#")[0]).split()
        if not words:
            continue
        assert words[0] == "prodmat", line
        choices = [w.split("|") for w in words[1:]]
        for pick in range(max(len(c) for c in choices)):
            yield [c[min(pick, len(c) - 1)] for c in choices]


def test_cli_lines_parse():
    # a line of positional arguments only is dispatched without argparse, to
    # the Namespace argparse would give
    parser = cli.build_parser()
    lines = list(_cli_lines())
    direct = 0
    for argv in lines:
        args = parser.parse_args(argv)
        assert args.command == argv[0], shlex.join(argv)
        fast = cli._parse_positional(argv)
        if fast is not None:
            assert vars(fast) == vars(args), shlex.join(argv)
            direct += 1
    assert len(lines) >= 12, lines  # eleven lines today, `oracle 1p|2p` counted twice
    assert direct >= 9, direct  # all but `info`, `slack` and `gen shuffle --seed`
