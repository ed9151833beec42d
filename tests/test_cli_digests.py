"""Byte identity of the CLI over a fixed command corpus.

Each command of CORPUS runs in process through `ordsum.cli.main`; the
SHA-256 of its stdout and exit code must equal the digest recorded for
it in `cli_digests.txt`.  A word "@name" in a command stands for a
presentation file holding FILES[name].  The corpus covers all nine
commands over a few finite files, every shipped family file and the
named orders, including the exit codes 2 to 4.

Run as a script to print the digest table:

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.txt
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from conftest import LAZY_FAMILY_LINES

from ordsum.cli import main

DIGEST_FILE = Path(__file__).with_name("cli_digests.txt")

FINITE_FILES = {
    "empty": "tnorm v1\n",
    "prod": "tnorm v1\npiece 0 1 P\n",
    "luk": "tnorm v1\npiece 0 1 L\n",
    "pair_a": "tnorm v1\npiece 1/4 1/2 P\npiece 1/2 3/4 L\n",
    "pair_a_swapped": "tnorm v1\npiece 1/4 1/2 L\npiece 1/2 3/4 P\n",
    "pair_b": "tnorm v1\npiece 1/10 1/5 P\npiece 1/5 9/10 L\n",
    "mixed": "tnorm v1\npiece 0 1/6 P\npiece 1/6 1/3 L\npiece 1/3 1/2 P\npiece 2/3 5/6 L\n",
}
LAZY_FILES = {
    line.split()[-1].removeprefix("cantor:"): f"tnorm v1\nfamily {line}\n"
    for line in LAZY_FAMILY_LINES
}
FILES = {**FINITE_FILES, **LAZY_FILES}
ORDERS = ["omega", "omega_star", "zeta", "eta", "omega_plus_omega_star"]
SYSTEMS = ["cantor:middle-third", "cantor:svc", "cantor:non-e"]


def _corpus() -> list[str]:
    finite = [f"@{name}" for name in FINITE_FILES]
    lazy = [f"@{name}" for name in LAZY_FILES]
    every = finite + lazy
    out: list[str] = []
    points = ["1/2 1/2", "3/8 5/8", "1/3 1/4", "0 1", "1 2/7", "5/12 5/12"]
    out += [f"eval {f} {xy}" for f in every for xy in points]
    out += [f"eval {f} 1/3 1/4 {n}" for f in lazy for n in (1, 30)]
    out += ["eval @pair_a 3/2 1/2", "eval @pair_a one 1/2", "eval @limit-left 1/2 1/2 0"]
    out += [f"axioms {f}" for f in every]
    out += [f"signature {f}" for f in finite]
    out += [f"signature {f} {d}" for f in lazy for d in (1, 8, 20)]
    out += [f"iso {a} {b}" for a, b in product(finite, finite)]
    out += [f"iso {a} {b} {d}" for a, b in product(lazy, lazy) for d in (1, 8)]
    out += [f"iso @pair_a {b}" for b in lazy] + ["iso @omega @pair_b", "iso @omega @eta 0"]
    out += [f"theta {f} {n}" for f in finite for n in (1, 12, 40)]
    out += [f"theta {f} {n} {d}" for f in lazy for n, d in ((40, 12), (200, 30))]
    out += ["theta @pair_a 0"]
    # dumps of hundreds of chain entries, tens of thousands of `less:` lines
    out += [f"theta @{name} 1000000000000 300" for name in ("svc", "middle-third", "zeta")]
    out += ["theta @mixed 100000"]
    out += [f"from-lo {o} {n}" for o in ORDERS for n in (1, 6, 13)]
    out += ["from-lo finite:2,0,1 3", "from-lo finite:3,0,2,1 5", "from-lo nope 3"]
    out += [f"cantor {s} {d}" for s in SYSTEMS for d in range(8)]
    out += [f"cantor {s} {d}" for d in (12, 16) for s in SYSTEMS]
    out += ["cantor cantor:svc 17", "cantor cantor:nope 2"]
    out += [f"roundtrip {o} {n}" for o in ORDERS for n in (1, 4, 8)]
    out += ["roundtrip finite:3,0,2,1 4", "roundtrip finite:1,0 3"]
    out += [f"surface {f} {g}" for f in every for g in (2, 7)]
    out += ["surface @pair_a 1", "surface @pair_a 1001"]
    return out


CORPUS = _corpus()


def _digest(command: str, paths: dict[str, str]) -> str:
    argv = [paths[word[1:]] if word.startswith("@") else word for word in command.split()]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{out.getvalue()}\nexit {code}\n".encode()).hexdigest()


def digest_table(directory: Path) -> dict[str, str]:
    """The digest of every corpus command, with its files written to directory."""
    paths = {}
    for name, text in FILES.items():
        path = directory / f"{name}.tnorm"
        path.write_text(text)
        paths[name] = str(path)
    return {command: _digest(command, paths) for command in CORPUS}


def _recorded() -> dict[str, str]:
    lines = DIGEST_FILE.read_text().splitlines()
    return dict(reversed(line.split(" ", 1)) for line in lines)


def test_corpus_outputs_match_recorded_digests(tmp_path):
    recorded = _recorded()
    assert list(recorded) == CORPUS
    got = digest_table(tmp_path)
    changed = [command for command in CORPUS if got[command] != recorded[command]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for command, digest in digest_table(Path(tmp)).items():
            sys.stdout.write(f"{digest} {command}\n")
