"""ordsum benchmark: whole CLI commands and library calls, one fresh interpreter each.

    python3 perfbench/run.py --workload audit|encode|lazy --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command writes the workload's
seeded inputs into a scratch directory under .bench_work/, times
interpreter start-up plus `import ordsum.cli` (set-up), then runs whole
passes over the workload's operation list until S seconds have gone by.
A pass is a closed loop with one client: each operation is one process
running from src/, and the next starts when it exits.  Every output is
checked against the reference computations in oracles.py.

--trace 0 reports the end-to-end metrics from untraced passes.
--trace 1 alternates untraced and traced passes and reports calls and
self time per layer from the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 11
OP_TIMEOUT_S = 120.0

# per-layer metrics, "<span name>.calls" or "<span name>.self_s"; orders.less
# is reported by calls only, since its self time is mostly span bookkeeping
LAYER_METRICS = [
    "rationals.min_entry_in.calls", "rationals.min_entry_in.self_s",
    "rationals.rational_index.calls", "rationals.rational_index.self_s",
    "rationals.rational_at.calls", "rationals.rational_at.self_s",
    "rationals.fractions_up_to.self_s",
    "tnorm.eval.calls", "tnorm.eval.self_s",
    "tnorm.check_axioms.self_s",
    "tnorm.truncation.calls", "tnorm.truncation.self_s",
    "orders.build_intervals.calls", "orders.build_intervals.self_s",
    "orders.less.calls",
    "orders.piece_at.calls", "orders.piece_at.self_s",
    "orders.locate.self_s",
    "orders.certified_m_gaps.self_s",
    "cantor.expand.self_s",
    "cantor.analyze_gap_order.self_s",
    "cantor.piece_at.calls", "cantor.piece_at.self_s",
    "cantor.locate.self_s",
    "signature.compute_signature.calls", "signature.compute_signature.self_s",
    "iso.decide_iso_lazy.self_s",
    "iso.back_and_forth.self_s",
    "iso.decide_iso_finite.self_s",
    "iso.build_iso_map.self_s",
    "l1.theta_by_probing.self_s",
    "l1.theta.self_s",
    "presentations.load_presentation.self_s",
    "cli.main.self_s",
]


def _spawn(cmd: list[str], env: dict, cwd: Path, out_path: Path, err_path: Path):
    """Run cmd to exit; (exit code, wall s, cpu s, peak RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    # the child is reaped: record its status so Popen never waits for it
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.out = work / "stdout"
        self.err = work / "stderr"
        self.spans = work / "spans"
        # digests of outputs already accepted, per operation: the checkers
        # are deterministic, so a repeated output needs no second check
        self.accepted: dict[int, set[bytes]] = {}

    def command(self, argv: list[str], traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "op.py"), "--spans", str(self.spans), *argv]
        if argv[0] == "cli":
            return [sys.executable, "-m", "ordsum.cli", *argv[1:]]
        return [sys.executable, str(HERE / "op.py"), *argv]

    def run_once(self, argv: list[str], traced: bool = False):
        """Run one operation; (exit code, wall s, cpu s, peak RSS MB)."""
        return _spawn(self.command(argv, traced), self.env, self.root, self.out, self.err)

    def import_time(self) -> float:
        code, wall, _, _ = _spawn([sys.executable, "-c", "import ordsum.cli"],
                                  self.env, self.root, self.out, self.err)
        if code != 0:
            raise SystemExit("cannot import ordsum.cli from src/:\n" + self.err.read_text())
        return wall

    def run_pass(self, ops, traced: bool) -> dict:
        result = {"traced": traced, "wall": 0.0, "cpu": 0.0, "rss": 0.0,
                  "attempted": 0, "failed": 0, "wrong": [], "errors": [], "layers": {}}
        for index, op in enumerate(ops):
            if traced and self.spans.exists():
                self.spans.unlink()
            code, wall, cpu, rss = self.run_once(op.argv, traced)
            result["attempted"] += 1
            result["wall"] += wall
            result["cpu"] += cpu
            result["rss"] = max(result["rss"], rss)
            if code != 0:
                result["failed"] += 1
                message = self.err.read_text().strip().splitlines()[-1:] or ["(no message)"]
                result["errors"].append(f"{op.label}: exit {code}: {message[0]}")
            else:
                out = self.out.read_bytes()
                digest = hashlib.sha256(out).digest()
                accepted = self.accepted.setdefault(index, set())
                wrong = None if digest in accepted else checks.problem(op.check, out.decode())
                if wrong:
                    result["wrong"].append(f"{op.label}: {wrong}")
                else:
                    accepted.add(digest)
            if traced and self.spans.exists():
                for name, (calls, seconds) in tracing.self_times(str(self.spans)).items():
                    c, s = result["layers"].get(name, (0, 0.0))
                    result["layers"][name] = (c + calls, s + seconds)
        return result


def _layer_metrics(traced_passes, untraced_passes) -> dict:
    metrics = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        column = 0 if kind == "calls" else 1
        value = statistics.median(p["layers"].get(span, (0, 0.0))[column] for p in traced_passes)
        metrics[metric] = {"value": value, "unit": "count" if kind == "calls" else "s"}
    traced = statistics.median(p["wall"] for p in traced_passes)
    plain = statistics.median(p["wall"] for p in untraced_passes)
    metrics["trace.overhead_pct"] = {"value": 100 * (traced / plain - 1), "unit": "%"}
    return metrics


def _print_layers(traced_passes) -> None:
    first = traced_passes[0]
    wall = first["wall"]
    rows = sorted(first["layers"].items(), key=lambda item: -item[1][1])
    print(f"{'layer':34} {'calls':>10} {'self_s':>9} {'share':>7}  (first traced pass, wall {wall:.3f} s)")
    for name, (calls, seconds) in rows:
        print(f"{name:34} {calls:10d} {seconds:9.4f} {100 * seconds / wall:6.2f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ordsum" / "cli.py").is_file():
        print(f"error: no ordsum sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        runner = Runner(root, work)
        runner.import_time()  # compiles the bytecode cache once, untimed
        setup_s = statistics.median(runner.import_time() for _ in range(SETUP_SPAWNS))

        # whole rounds only: another round starts when the longest so far
        # would still end within the run
        passes = []
        modes = (False, True) if args.trace else (False,)
        start = perf_counter()
        longest = 0.0
        while not passes or perf_counter() + longest <= start + args.seconds:
            round_start = perf_counter()
            for traced in modes:
                p = runner.run_pass(ops, traced)
                passes.append(p)
                print(f"pass {len(passes)}{' traced' if traced else ''}: wall {p['wall']:.3f} s "
                      f"cpu {p['cpu']:.3f} s peak_rss {p['rss']:.1f} MB "
                      f"ops {p['attempted']} failed {p['failed']} wrong {len(p['wrong'])}")
            longest = max(longest, perf_counter() - round_start)
        for line in dict.fromkeys(line for p in passes for line in p["errors"] + p["wrong"]):
            print(f"  {line}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        _print_layers(traced)
        metrics = _layer_metrics(traced, plain)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall"] for p in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rss"] for p in plain), "unit": "MB"},
        }
    result = {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
