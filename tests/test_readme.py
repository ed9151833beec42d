"""The README's examples show what the package prints.

Each `$ ordsum ...` line of the README's CLI block runs in process
through `ordsum.cli.main`, and its stdout must be the lines shown below
it.  Text after `#` on a command line is a comment, and a `...` line
ends the shown part, which must then be a prefix of the output.  The
two results given as comments in "Library example" are checked too.
"""

import re
import shlex
from pathlib import Path

import pytest

from ordsum.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
# (info string, body) of each fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def _block(info, start):
    """The body of the one fenced block with this info string and first line."""
    found = [body for lang, body in BLOCKS if lang == info and body.startswith(start)]
    assert len(found) == 1, f"README has {len(found)} ```{info} blocks starting {start!r}"
    return found[0]


# the files the CLI examples read; two_piece.tnorm is the file the README shows
FILES = {
    "two_piece.tnorm": _block("", "tnorm v1\n"),
    "ladder.tnorm": "tnorm v1\nfamily limit-left\n",
    "left_ladder.tnorm": "tnorm v1\nfamily limit-left\n",
    "right_ladder.tnorm": "tnorm v1\nfamily limit-right\n",
    "luk.tnorm": "tnorm v1\npiece 0 1 L\n",
}


def _cli_examples():
    """(argv, shown lines, whether the shown lines are only a prefix) per command."""
    lines = _block("sh", "$ ordsum ").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ ordsum "):
            continue
        argv = shlex.split(line.removeprefix("$ ordsum "), comments=True)
        shown = []
        for out in lines[i + 1:]:
            if not out or out.startswith("$ "):
                break
            shown.append(out)
        prefix = "..." in shown
        examples.append((argv, shown[: shown.index("...")] if prefix else shown, prefix))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_every_command_has_an_example():
    commands = {argv[0] for argv, _, _ in CLI_EXAMPLES}
    assert commands == {
        "eval", "axioms", "signature", "iso", "theta", "from-lo", "cantor", "roundtrip",
        "surface",
    }


@pytest.mark.parametrize(
    "argv, shown, prefix", CLI_EXAMPLES, ids=[" ".join(argv) for argv, _, _ in CLI_EXAMPLES]
)
def test_cli_example_prints_what_the_readme_shows(
    tmp_path, monkeypatch, capsys, argv, shown, prefix
):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert (printed[: len(shown)] if prefix else printed) == shown


def test_library_example_results():
    code = _block("python", "from fractions import Fraction as F\n")
    namespace = {}
    exec(code, namespace)
    value, shown = re.search(r"^(t\.eval\(.*\))\s+# (.*)$", code, re.MULTILINE).groups()
    assert repr(eval(value, namespace)) == shown
    shown = re.search(r"^sig = .*# (.*)$", code, re.MULTILINE).group(1)
    entries = namespace["sig"].entries
    assert "[" + ", ".join(f"{e.label.value}({e.lo},{e.hi})" for e in entries) + "]" == shown
