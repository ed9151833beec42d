"""Run each documented cap, a MAX_* constant of src/ordsum, at its value and one past it.

    PYTHONPATH=src python tools/budgets.py

Each row of ROWS is one `python -m ordsum.cli` command with the exit code it must give.
The script prints one line per row, its time, peak RSS and verdict, and exits 1 if any failed.
"""

import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from operator import attrgetter

import ordsum
from ordsum.cantor import MAX_EXPAND_DEPTH
from ordsum.cli import MAX_ROUNDTRIP_PIECES, MAX_SURFACE_GRID, MAX_THETA_SIZE
from ordsum.presentations import MAX_FILE_PIECES
from ordsum.tnorm import MAX_DIGITS, MAX_LAZY_PIECES

TIMEOUT_S = 60  # a row is killed, and fails, after this many seconds
CLI = [sys.executable, "-m", "ordsum.cli"]
# A child's ru_maxrss counts the RSS of the process it was spawned from, so
# this script never spawns a command itself: a `python -S` launcher that
# imports nothing else does, and writes the command's peak RSS in MB to the
# file named by its first argument (ru_maxrss is in KiB on Linux).
LAUNCHER = """
import os, sys
_, status, usage = os.wait4(os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ), 0)
open(sys.argv[1], "w").write(str(usage.ru_maxrss / 1024))
sys.exit(os.waitstatus_to_exitcode(status))
"""

# constant: the "module.MAX_NAME" the row runs at or past, None for a stream
# row; stdout: "head" reads one line and closes the pipe, a path is written
# to, and by default a run at a cap writes to the null device, others to a file
Row = namedtuple("Row", "constant words code rss_mb stdout", defaults=(None, None))
DEPTH, LINES, LAZY = "cantor.MAX_EXPAND_DEPTH", "cli.MAX_THETA_LESS_LINES", "tnorm.MAX_LAZY_PIECES"
# An RSS bound is about 1.25 times the peak measured on a 2-vCPU VM with Python
# 3.11.7: cantor non-e 35.4 MB, a theta dump 31 MB, finite:0,...,3199 20.5 MB,
# surface 15.1 MB (16.6 MB at 100-digit ends), the file of 20,000 pieces 36.3 MB.
ROWS = [
    *(Row(DEPTH, f"cantor cantor:{system} {MAX_EXPAND_DEPTH}", 0, 44)
      for system in ("middle-third", "svc", "non-e")),
    Row(DEPTH, f"cantor cantor:svc {MAX_EXPAND_DEPTH + 1}", 3),
    # 2,000 chain entries give about 2 M `less:` lines, 3,200 more than the limit
    Row(LINES, f"theta svc.tnorm {10**12} 2000", 0, 100),
    Row(LINES, f"theta middle-third.tnorm {10**12} 2000", 0, 100),
    Row(LINES, f"theta svc.tnorm {10**12} {MAX_LAZY_PIECES}", 3),
    *(Row(LAZY, f"{words} {MAX_LAZY_PIECES}", 0) for words in (
        "signature zeta.tnorm", f"theta eta.tnorm {10**12}", "iso zeta.tnorm eta.tnorm",
        "eval zeta.tnorm 1/3 1/3", "from-lo eta")),
    Row(LAZY, f"eval zeta.tnorm 1/3 1/3 {MAX_LAZY_PIECES + 1}", 3),
    Row(LAZY, "signature ranks.tnorm", 0, 26),
    Row(LAZY, "signature over_ranks.tnorm", 3),
    Row(LAZY, f"from-lo finite:{','.join(map(str, range(MAX_LAZY_PIECES + 1)))} 1", 3),
    Row("cli.MAX_ROUNDTRIP_PIECES", f"roundtrip omega {MAX_ROUNDTRIP_PIECES}", 0),
    Row("cli.MAX_ROUNDTRIP_PIECES", f"roundtrip omega {MAX_ROUNDTRIP_PIECES + 1}", 3),
    Row("cli.MAX_THETA_SIZE", f"theta eta.tnorm {MAX_THETA_SIZE} {MAX_LAZY_PIECES}", 0),
    Row("cli.MAX_THETA_SIZE", f"theta eta.tnorm {MAX_THETA_SIZE + 1} {MAX_LAZY_PIECES}", 3),
    Row("cli.MAX_SURFACE_GRID", f"surface product.tnorm {MAX_SURFACE_GRID}", 0, 19),
    Row("cli.MAX_SURFACE_GRID", f"surface product.tnorm {MAX_SURFACE_GRID + 1}", 3),
    Row("tnorm.MAX_DIGITS", f"surface digits.tnorm {MAX_SURFACE_GRID}", 0, 19),
    Row("tnorm.MAX_DIGITS", f"surface over_digits.tnorm {MAX_SURFACE_GRID}", 3),
    Row("presentations.MAX_FILE_PIECES", "iso pieces.tnorm pieces.tnorm", 0, 46),
    Row("presentations.MAX_FILE_PIECES", "iso over_pieces.tnorm over_pieces.tnorm", 3),
    Row(None, f"cantor cantor:non-e {MAX_EXPAND_DEPTH}", 0, stdout="head"),
    Row(None, "from-lo omega 3", 5, stdout="/dev/full"),
]


def files():
    """Each input file's text by name; a file of a cap is at it, and as over_NAME one past it."""
    texts = {"zeta.tnorm": "family theta zeta\n", "eta.tnorm": "family theta eta\n",
             "svc.tnorm": "family cantor cantor:svc\n", "product.tnorm": "piece 0 1 P\n",
             "middle-third.tnorm": "family cantor cantor:middle-third\n"}
    for prefix, n in (("", 0), ("over_", 1)):
        d, r, k = 10 ** (MAX_DIGITS + n) - 1, MAX_LAZY_PIECES + n, MAX_FILE_PIECES + n
        texts[f"{prefix}digits.tnorm"] = f"piece 1/{d} {d - 1}/{d} P\n"
        texts[f"{prefix}ranks.tnorm"] = f"family theta finite:{','.join(map(str, range(r)))}\n"
        # P and L pieces in turn, with a gap between each two
        texts[f"{prefix}pieces.tnorm"] = "".join(
            f"piece {2 * j + 1}/{2 * k + 1} {2 * j + 2}/{2 * k + 1} {'PL'[j % 2]}\n"
            for j in range(k))
    return {name: f"tnorm v1\n{text}" for name, text in texts.items()}


def run(row):
    """(verdict, seconds, peak RSS in MB) of one row run here; the verdict is "ok" or "FAIL..."."""
    target = row.stdout or (os.devnull if row.code == 0 else "out")
    argv = [sys.executable, "-S", "-c", LAUNCHER, "report", *CLI, *row.words.split()]
    start = time.monotonic()
    with (open(os.devnull if target == "head" else target, "w+b") as out,
          open("err", "w+b") as err, open("report", "w+b") as report,
          subprocess.Popen(argv, stdin=subprocess.DEVNULL, stderr=err, start_new_session=True,
                           stdout=subprocess.PIPE if target == "head" else out) as proc):
        try:
            if target == "head" and select.select([proc.stdout], [], [], TIMEOUT_S)[0]:
                proc.stdout.readline()
                proc.stdout.close()
            code = proc.wait(max(0, start + TIMEOUT_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command
            proc.wait()
            return f"killed after {TIMEOUT_S} s", TIMEOUT_S, 0.0
        seconds, mb = time.monotonic() - start, float(report.read() or 0)  # empty if it failed
        err.seek(0)  # the command wrote through the same file offset
        printed, errors = out.tell() if target == "out" else 0, err.read().decode().splitlines()
    # at a cap: under the RSS bound, nothing on stderr; past a cap: empty stdout
    # and one stderr line naming the limit
    failed = (code != row.code or mb > (row.rss_mb or float("inf"))
              or (errors if code == 0 else printed or len(errors) != 1)
              or code == 3 and f"the limit of {attrgetter(row.constant)(ordsum)}" not in errors[0])
    verdict = (f"FAIL: exit {code}, RSS bound {row.rss_mb} MB, {printed} bytes on stdout, "
               f"stderr: {' | '.join(errors[-3:])}")
    return verdict if failed else "ok", seconds, mb


def main():
    failed = 0
    # the commands run in the directory of the files, and import this script's package
    os.environ["PYTHONPATH"] = os.path.dirname(ordsum.__path__[0])
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        for name, text in files().items():
            with open(name, "w") as f:
                f.write(text)
        for row in ROWS:
            verdict, seconds, mb = run(row)
            failed += verdict != "ok"
            words = row.words if len(row.words) < 70 else f"{row.words[:60]}..."
            print(f"{seconds:6.2f} s {mb:6.1f} MB  exit {row.code}  {words}  {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
