"""Benchmark entry point: set-up time, then one workload process.

    python3 bench/run_bench.py --workload compute --seed 1 --seconds 30 --trace 0

Workloads: ``compute``, ``verify``, ``sample`` (or ``all``, which runs the
three in turn).  With ``--trace 0`` the result carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every process started here runs with one BLAS thread, on one CPU and with
``src`` on the import path; the exit code is 0 only when every output checked
out.  Times are rescaled to a reference speed by the yardstick (see
``yardstick.py``), timed on the same CPU around each measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads

from yardstick import Yardstick, scale  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compute", "verify", "sample")
COLD_STARTS = 11
PIECES_PER_START = 2  # yardstick pieces before and again after each cold start
DEADLINE_S = 170.0
SETUP_CODE = "import trispin.cli as cli; cli.build_parser()"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(env, deadline):
    """Median time of fresh interpreters importing the CLI and its parser, as
    (seconds at the yardstick's reference speed, wall seconds).

    One uncounted start first compiles the bytecode, which a user pays once.
    The wait blocks without a timeout (``subprocess`` polls in steps of up to
    50 ms when given one); a timer kills a start that outlives the deadline.
    """
    stick = Yardstick()
    times, scaled = [], []
    for attempt in range(COLD_STARTS + 1):
        before = stick.pieces(PIECES_PER_START)
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
        watchdog.start()
        code = child.wait()
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"cold start exited {code}")
        if attempt:
            times.append(elapsed)
            scaled.append(elapsed * scale(before + stick.pieces(PIECES_PER_START)))
    return statistics.median(scaled), statistics.median(times)


def run_workload(name, args, env):
    deadline = time.monotonic() + DEADLINE_S
    command = [
        sys.executable, str(ROOT / "bench" / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    setup = None if args.trace else setup_seconds(env, deadline)
    if setup is not None:
        print(f"# {name:<8} setup wall median {setup[1]:.6g} s")
    child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"workload {name} exited {child.returncode} without a result")
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup[0], "unit": "s"}
    for metric, entry in result["metrics"].items():
        print(f"# {name:<8} {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(f"# {name:<8} attempted {result['attempted']} failed {result['failed']}"
          f" correct {result['correct']}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="trispin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trispin" / "__init__.py").is_file():
        print(f"no trispin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for this process and every child: the yardstick and what it
    # rescales then share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, env) for name in names}
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
