"""Check the benchmark's checkers against deliberately wrong outputs.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a checkout.  Builds each workload's operations,
runs each one once, and requires that its checker accepts the real
output and rejects every mutation of it: a dropped line, a number
changed in the first, middle or last line, a flipped true/false, a
flipped verdict, an extra line and an empty output.  For an operation
that fails (exits with another code than 0) it feeds the checker one
acceptable and one wrong verdict instead.  Exits 1 if a checker accepts
a wrong output or rejects a right one.
"""

from __future__ import annotations

import argparse
import re
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import Runner

_NUMBER = re.compile(r"\d+(?:/\d+)?")


def _bump(line: str, which: int) -> str:
    """The line with its first (which=0) or last (which=-1) number changed."""
    found = list(_NUMBER.finditer(line))
    if not found:
        return line
    m = found[which]
    num, _, den = m.group().partition("/")
    bumped = str(int(num) + 1) + (f"/{den}" if den else "")
    return line[:m.start()] + bumped + line[m.end():]


def mutations(out: str) -> dict[str, str]:
    lines = out.splitlines()
    mid = len(lines) // 2

    def with_line(i, text):
        return "\n".join(lines[:i] + [text] + lines[i + 1:]) + "\n"

    candidates = {
        "drop middle line": "\n".join(lines[:mid] + lines[mid + 1:]) + "\n",
        "number in first line": with_line(0, _bump(lines[0], -1)),
        "number in middle line": with_line(mid, _bump(lines[mid], -1)),
        "number in last line": with_line(len(lines) - 1, _bump(lines[-1], 0)),
        "true/false": out.replace("true", "@").replace("false", "true").replace("@", "false"),
        "verdict": re.sub(r"^(NOT_ISO|ISO)", lambda m: "ISO" if m[1] == "NOT_ISO" else "NOT_ISO", out),
        "extra line": out + lines[-1] + "\n",
        "empty": "",
    }
    return {name: text for name, text in candidates.items() if text != out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = Path.cwd()
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / ".bench_work"))
    bad = 0
    try:
        runner = Runner(root, work)
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, args.seed, work):
                code, _, _, _ = runner.run_once(op.argv)
                if code == 0:
                    out = runner.out.read_text()
                    right, wrong = [out], mutations(out)
                else:
                    right = ["NOT_ISO CardinalityMismatch\n  a finite signature against an infinite one\n"]
                    wrong = {"verdict": "ISO\n", "empty": ""}
                ok = all(checks.problem(op.check, text) is None for text in right)
                missed = [m for m, text in wrong.items() if checks.problem(op.check, text) is None]
                status = "ok" if ok and not missed else "BAD"
                bad += status == "BAD"
                note = "" if ok else " rejects its right output;"
                note += f" accepts: {', '.join(missed)}" if missed else ""
                print(f"{status:3} {name:6} exit {code} {op.label:60} "
                      f"rejected {len(wrong) - len(missed)}/{len(wrong)}{note}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} checker(s) failed the self-test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
