"""curralg benchmark: whole CLI verification runs, timed to their verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.  Fresh
interpreters run one after another (one client, closed loop): as many
whole CLI invocations as fit in ``--seconds`` (at least one), plus
``SETUP_PROBES`` set-up probes.  The seed only decides where the set-up
probes fall among the invocations; every sweep stays exhaustive.  The
children run pinned to one CPU, and their times are scaled to the reference
host speed that ``hostspeed.py`` measures on that CPU while they run.

``--trace 1`` runs the workload once untraced and once under the span
tracer (``traced_cli.py``), in an order the seed picks, and reports the
per-layer metrics plus ``trace.overhead``.

Every invocation must pass the correctness gate in ``workloads.py``.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the host
fingerprint.  The program is run from ``src/`` of the checkout holding this
directory; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

from hostspeed import REFERENCE_UNIT_S, SpeedProbe, pin_to_one_cpu, timed_unit
from tracer import LAYERS
from workloads import WORKLOADS, gate

SETUP_PROBES = 21
# A run must end within 180 s; an invocation still running at this point
# of the run is killed and counted as failed.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "distinct_ratio": "ratio"}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{stat}": STAT_UNITS[stat] for name, stats in LAYERS for stat in stats}
    units["trace.overhead"] = "ratio"
    return units


def host_fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": model}


class Runner:
    """Spawns the fresh interpreters of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        # Cache bytecode as an installed package does, whatever the caller's
        # setting: the warm-up probe compiles, later interpreters load.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.started = time.perf_counter()

    def _time_left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def setup_probe(self) -> tuple:
        """One set-up probe: (wall time spawn to exit, that time at the reference speed).

        A probe is shorter than the speed probe's period, so one speed unit
        timed just before it and one just after give the speed it ran at.
        """
        before = timed_unit()
        elapsed, _, code, _ = self.invoke([sys.executable, os.path.join(HERE, "setup_probe.py"), self.workload.name])
        after = timed_unit()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        return elapsed, elapsed * 2 * REFERENCE_UNIT_S / (before + after)

    def invoke(self, cmd: list) -> tuple:
        """Run ``cmd`` to exit: (wall seconds, peak RSS in MB, exit code, stdout).

        ``os.wait4`` reaps the child so its own peak RSS can be read.  A
        watchdog thread kills a child that would outlive the run's deadline;
        a wait with a timeout would poll, and round short times to 50 ms.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE)
        watchdog = threading.Timer(max(self._time_left(), 1.0), proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def cli_command(self) -> list:
        return [sys.executable, "-m", "curralg.cli", *self.workload.args, "--no-timestamp"]

    def traced_command(self, prefix: str) -> list:
        return [sys.executable, os.path.join(HERE, "traced_cli.py"), prefix, *self.workload.args, "--no-timestamp"]


def _gate(workload, code: int, stdout: bytes, what: str) -> bool:
    problems = gate(workload, code, stdout)
    for problem in problems:
        print(f"{workload.name} {what}: {problem}", file=sys.stderr)
    return not problems


def run_untraced(workload, seed: int, seconds: int) -> dict:
    rng = random.Random(seed)
    runner = Runner(workload)
    runner.setup_probe()  # warm-up: writes the bytecode cache once per checkout
    setup, wall, verdict, rss = [], [], [], []
    failed = 0
    probes_left = SETUP_PROBES
    with SpeedProbe() as speed:
        begin = time.perf_counter()
        # Whole invocations only: stop before one that would, at the median
        # duration so far, end after ``seconds``.
        while not wall or time.perf_counter() - begin + statistics.median(wall) <= seconds:
            while probes_left and rng.random() < 0.5:
                setup.append(runner.setup_probe())
                probes_left -= 1
            mark = speed.mark()
            elapsed, peak, code, stdout = runner.invoke(runner.cli_command())
            wall.append(elapsed)
            verdict.append(elapsed * speed.scale(mark))
            rss.append(peak)
            if not _gate(workload, code, stdout, f"invocation {len(wall)}"):
                failed += 1
        while probes_left:
            setup.append(runner.setup_probe())
            probes_left -= 1
        run_scale = speed.scale()
    setup_wall, setup_ref = zip(*setup)
    print(
        f"{workload.name}: {len(wall)} invocations, wall s "
        + " ".join(f"{v:.3f}" for v in wall)
        + ", at reference speed "
        + " ".join(f"{v:.3f}" for v in verdict)
        + f"; {len(setup)} set-up probes, median wall {statistics.median(setup_wall):.4f} s"
        + f"; run speed scale {run_scale:.3f} from {len(speed.samples)} samples",
        file=sys.stderr,
    )
    values = {
        "verdict_s": statistics.median(verdict),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": len(wall), "failed": failed, "metrics": metrics}


def run_traced(workload, seed: int) -> dict:
    rng = random.Random(seed)
    runner = Runner(workload)
    runner.setup_probe()  # warm-up, as in the untraced run
    os.makedirs(OUT, exist_ok=True)
    prefix = os.path.join(OUT, workload.name)
    for stale in (".summary.json", ".spans", ".spans.json"):
        if os.path.exists(prefix + stale):
            os.remove(prefix + stale)
    order = ["untraced", "traced"]
    rng.shuffle(order)
    wall = {}
    failed = 0
    with SpeedProbe() as speed:
        for kind in order:
            cmd = runner.cli_command() if kind == "untraced" else runner.traced_command(prefix)
            mark = speed.mark()
            elapsed, _, code, stdout = runner.invoke(cmd)
            wall[kind] = elapsed * speed.scale(mark)
            if not _gate(workload, code, stdout, kind):
                failed += 1
    with open(prefix + ".summary.json", encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    metrics = {}
    for metric, unit in layer_metric_units().items():
        if metric == "trace.overhead":
            value = wall["traced"] / wall["untraced"]
        else:
            name, _, stat = metric.rpartition(".")
            value = layers[name][stat]
        metrics[metric] = {"value": value, "unit": unit}
    print(
        f"{workload.name} at reference speed: untraced {wall['untraced']:.3f} s, traced {wall['traced']:.3f} s, "
        f"spans in {prefix}.spans",
        file=sys.stderr,
    )
    return {"correct": failed == 0, "attempted": len(order), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "curralg", "cli.py")):
        print(f"error: no curralg sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()  # the children and the speed probe share one CPU
    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
