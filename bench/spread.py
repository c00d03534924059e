"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload compute --seeds 1-10 [--seconds 30] [--trace 0]

For every metric: the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the bound that
``BENCHMARK.json`` fixes.  The wall-time figures of the ``# details`` line
(not gated) are listed too, to show how much the host drifted.  Also prints
the share of failed operations per run.
These are the figures quoted in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, shares = {}, []
    for seed in args.seeds:
        child = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = child.stdout.splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("# details "):
                for name, value in json.loads(line[len("# details "):]).items():
                    if name.startswith("wall_"):
                        values.setdefault(f"({name})", []).append(value)
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: exit {child.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} {figures}", flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs of {args.seconds} s")
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}")
    ratios = {a / b for a, b in (map(int, s.split("/")) for s in shares)}
    print(f"failed share identical in every run: {len(ratios) == 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
