"""The benchmark's workload process: one closed loop over seeded rounds.

Run by ``run_bench.py`` in a child process with one BLAS thread; it can also
be run directly::

    OPENBLAS_NUM_THREADS=1 python3 bench/workloads.py --workload compute \
        --seed 1 --seconds 30 --trace 0

A round is a fixed list of operations (the same kinds and sizes every round;
only seeded coefficients and seeds change), so the share of failed operations
is the same in every run.  One caller issues each operation after the
previous one returns.  Round 0 warms up and is not counted.  The last line
printed is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import trispin.cli  # noqa: E402
from trispin import sampler, states, verify  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
from checks import CliResult  # noqa: E402
from tracer import Tracer  # noqa: E402
from yardstick import Yardstick, scale  # noqa: E402

SHOTS = 100_000
VERIFY_TRIALS = 100
OUT_DIR = ROOT / "bench" / "out"

# compute corpus, per round
SYMMETRIC_PER_N = {n: 16 for n in range(3, 13)} | {13: 8, 14: 8}
PHASE_TWIN_EVERY = 8  # every 8th symmetric document also runs with a global phase
PRODUCT_COMPUTE_N = (3, 8, 12)
PRODUCTS_PER_N = 2
# held faults (a), (b): fixed inputs, independent of --seed
LARGE_N_DOCS = ((100, 100), (100, 101), (1000, 1000))  # (N, fixed generator seed)
SCAN_GRIDS = (
    {"family": "pair_mix", "n_atoms": 3, "index_a": 0, "index_b": 1,
     "stop": 1.5707963267948966, "points": 101},
    # levels 0 and 4 of N=4: the mean spin vanishes at the middle point
    {"family": "pair_mix", "n_atoms": 4, "index_a": 0, "index_b": 4,
     "stop": 1.5707963267948966, "points": 9},
    # held fault (a)
    {"family": "pair_mix", "n_atoms": 20, "index_a": 0, "index_b": 1,
     "stop": 1.5707963267948966, "points": 11},
)

# sample corpus, per round
SAMPLE_SYMMETRIC_N = tuple(range(3, 15))
SAMPLE_PRODUCT_N = (6, 8, 9)
NON_SYMMETRIC_PRODUCT = ((1.0, 0.0), (0.0, 1.0), (1.0, 0.0))  # |up down up>, held fault (c)

PRIMARY_KIND = {"compute": "compute", "verify": "verification", "sample": "estimate"}

# yardstick pieces: (a point before every k-th operation and after the last,
# pieces per point); 4-7% of a round
YARDSTICK_POINTS = {"compute": (15, 1), "verify": (1, 10), "sample": (1, 1)}


@dataclass
class Op:
    """One operation: ``run`` returns (raw output, seconds inside the program)."""

    kind: str
    run: object
    check: object
    n_atoms: int = 0
    key: object = None


def _rng(seed, *stream):
    return np.random.default_rng([seed & (2**63 - 1), *stream])


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def _dicke_doc(coeffs):
    return {"n_atoms": len(coeffs) - 1, "representation": "dicke", "coeffs": _pairs(coeffs)}


def _product_doc(qubits):
    return {"n_atoms": len(qubits), "representation": "product",
            "coeffs": [_pairs(q) for q in qubits]}


def _random_coeffs(rng, n_atoms):
    raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(n_atoms + 1)
    return raw / np.linalg.norm(raw)


def _random_qubit(rng):
    raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return raw / np.linalg.norm(raw)


def _detached(exc):
    """The exception without its tracebacks, which would keep the failed
    call's frames (and their arrays) alive and inflate peak memory."""
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return exc


def call_cli(argv, stdin_text=""):
    """``trispin.cli.main`` in-process; returns (CliResult, seconds)."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out = io.StringIO()
    error = code = None
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = trispin.cli.main(argv)
            except Exception as exc:  # held faults escape cli.main
                error = _detached(exc)
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), error), elapsed


# ---------------------------------------------------------------------------
# compute: trispin.cli.main with `compute` documents and `scan` grids
# ---------------------------------------------------------------------------

def _compute_op(doc, expected, product=False, key=None):
    text = json.dumps(doc)
    return Op(
        "compute",
        run=lambda: call_cli(["compute"], text),
        check=lambda result: checks.check_compute(doc, result, expected(), product),
        n_atoms=doc["n_atoms"],
        key=key,
    )


def _scan_op(grid):
    text = json.dumps(grid)
    return Op(
        "scan",
        run=lambda: call_cli(["scan", "--grid", text]),
        check=lambda result: checks.check_scan(grid, result),
        n_atoms=grid["n_atoms"],
    )


def _fixed_large_docs():
    docs = []
    for n_atoms, fixed_seed in LARGE_N_DOCS:
        coeffs = _random_coeffs(np.random.default_rng(fixed_seed), n_atoms)
        docs.append((_dicke_doc(coeffs), coeffs))
    return docs


def compute_round(seed, index, large_docs):
    rng = _rng(seed, 1, index)
    ops = []
    count = 0
    for n_atoms, copies in SYMMETRIC_PER_N.items():
        for _ in range(copies):
            coeffs = _random_coeffs(rng, n_atoms)
            moments = oracle.ladder_moments(coeffs)
            ops.append(_compute_op(_dicke_doc(coeffs), lambda m=moments: m, key=("base", count)))
            if count % PHASE_TWIN_EVERY == 0:
                phased = coeffs * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                ops.append(_compute_op(_dicke_doc(phased), lambda m=moments: m,
                                       key=("phased", count)))
            count += 1
    for n_atoms in PRODUCT_COMPUTE_N:
        for _ in range(PRODUCTS_PER_N):
            qubits = [_random_qubit(rng)] * n_atoms
            moments = oracle.ladder_moments(oracle.product_to_ladder(qubits))
            ops.append(_compute_op(_product_doc(qubits), lambda m=moments: m, product=True))
    for doc, coeffs in large_docs:
        ops.append(_compute_op(doc, lambda c=coeffs: oracle.ladder_moments(c)))
    ops.extend(_scan_op(grid) for grid in SCAN_GRIDS)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def compute_round_check(ops, results):
    """Pairs of documents that differ by a global phase must give equal S."""
    s_by_key = {}
    for op, result in zip(ops, results):
        if op.key is not None and result.code == 0:
            s_by_key[op.key] = json.loads(result.stdout)["report"]["s_parameter"]
    problems = []
    for (role, count), s_value in s_by_key.items():
        if role == "phased" and ("base", count) in s_by_key:
            problems += checks.check_phase_pair(s_by_key[("base", count)], s_value)
    return problems


# ---------------------------------------------------------------------------
# verify: the default verification plus one corrupted identity suite
# ---------------------------------------------------------------------------

def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except Exception as exc:
        value, error = None, _detached(exc)
    return (value, error), time.perf_counter() - start


def _verification_check(result):
    report, error = result
    if error is not None:
        return checks.bad(f"run_verification raised {type(error).__name__}: {error}")
    problems = checks.check_verification(report, VERIFY_TRIALS)
    return checks.Outcome("bad", problems) if problems else checks.ok()


def _corrupt_check(corrupt_id):
    def check(result):
        results, error = result
        if error is not None:
            return checks.bad(f"verify_identity_suite raised {type(error).__name__}: {error}")
        problems = checks.check_corrupted_suite(results, corrupt_id)
        return checks.Outcome("bad", problems) if problems else checks.ok()
    return check


def verify_round(seed, index):
    rng = _rng(seed, 2, index)
    sweep_seed = int(rng.integers(2**31))
    corrupt_id = sorted(checks.IDENTITY_IDS)[int(rng.integers(len(checks.IDENTITY_IDS)))]
    return [
        Op("verification",
           run=lambda: _timed(lambda: verify.run_verification(
               trials=VERIFY_TRIALS, seed=sweep_seed)),
           check=_verification_check),
        Op("corrupted_suite",
           run=lambda: _timed(lambda: verify.verify_identity_suite(corrupt_id=corrupt_id)),
           check=_corrupt_check(corrupt_id)),
    ]


# ---------------------------------------------------------------------------
# sample: decode a state document, then estimate_s_from_samples
# ---------------------------------------------------------------------------

def _estimate(doc, estimate_seed):
    state = states.state_from_dict(doc)
    return sampler.estimate_s_from_samples(state, SHOTS, estimate_seed)


def _sample_op(doc, expected, estimate_seed):
    n_atoms = doc["n_atoms"]
    return Op(
        "estimate",
        run=lambda: _timed(_estimate, doc, estimate_seed),
        check=lambda result: checks.check_estimate(n_atoms, expected, result[0], result[1], SHOTS),
        n_atoms=n_atoms,
        key=(doc, estimate_seed),
    )


def sample_round(seed, index):
    rng = _rng(seed, 3, index)
    ops = []
    for n_atoms in SAMPLE_SYMMETRIC_N:
        coeffs = _random_coeffs(rng, n_atoms)
        ops.append(_sample_op(_dicke_doc(coeffs), oracle.ladder_moments(coeffs),
                              int(rng.integers(2**31))))
    for n_atoms in SAMPLE_PRODUCT_N:
        qubits = [_random_qubit(rng)] * n_atoms
        expected = oracle.ladder_moments(oracle.product_to_ladder(qubits))
        ops.append(_sample_op(_product_doc(qubits), expected, int(rng.integers(2**31))))
    ops.append(_sample_op(_product_doc(np.array(NON_SYMMETRIC_PRODUCT, dtype=complex)),
                          None, int(rng.integers(2**31))))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def sample_round_check(ops, results):
    """Replay the round's smallest symmetric estimate with its seed."""
    for op, (result, _) in zip(ops, results):
        estimate, error = result
        if op.n_atoms == SAMPLE_SYMMETRIC_N[0] and error is None:
            replay = _estimate(*op.key)
            return checks.check_replay(estimate, replay)
    return ["no replayable estimate in the round"]


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name, seed):
        self.name = name
        large_docs = _fixed_large_docs() if name == "compute" else None
        self._make = {
            "compute": lambda i: compute_round(seed, i, large_docs),
            "verify": lambda i: verify_round(seed, i),
            "sample": lambda i: sample_round(seed, i),
        }[name]

    def make_round(self, index):
        return self._make(index)

    def round_problems(self, ops, timed_results):
        if self.name == "compute":
            return compute_round_check(ops, [r for r, _ in timed_results])
        if self.name == "sample":
            return sample_round_check(ops, timed_results)
        return []


class Tally:
    """Latencies and outcomes of the counted operations.

    ``latency`` and ``busy`` are wall seconds; ``scaled`` and
    ``round_rates`` are rescaled to the yardstick's reference speed by the
    round's factor (1 when a round runs without the yardstick)."""

    def __init__(self):
        self.latency = {}
        self.scaled = {}
        self.busy = 0.0
        self.round_rates = []  # successes / scaled busy seconds, per round
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.held = {}
        self.problems = []
        self.rounds = 0
        self.scan_points = 0
        self.shots = 0

    def add(self, op, result, seconds, outcome, factor=1.0):
        self.latency.setdefault(op.kind, []).append(seconds)
        self.scaled.setdefault(op.kind, []).append(seconds * factor)
        self.busy += seconds
        self.attempted += 1
        if outcome.status == "held":
            self.failed += 1
            self.held[outcome.notes[0]] = self.held.get(outcome.notes[0], 0) + 1
        elif outcome.status != "ok":
            self.failed += 1
            self.problems.extend(outcome.notes or [f"{op.kind} failed"])
        if op.kind == "scan" and outcome.status == "ok":
            self.scan_points += sum(
                1 for line in result.stdout.splitlines()[1:] if line and line[0].isdigit()
            )
        if op.kind == "estimate" and result[1] is None:
            self.shots += 2 * SHOTS


def execute(workload, ops, tally, tracer=None, stick=None):
    """Run one round in order; with a yardstick, time its pieces between the
    operations and rescale the round's times by their median."""
    every, per_point = YARDSTICK_POINTS[workload.name]
    pieces = []
    results = []
    for op_index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_index
        if stick is not None and op_index % every == 0:
            pieces += stick.pieces(per_point)
        results.append(op.run())
    if stick is not None:
        pieces += stick.pieces(per_point)
    factor = scale(pieces) if pieces else 1.0
    if tally is not None:
        if pieces:
            tally.factors.append(factor)
        before = tally.attempted - tally.failed
        for op, (result, seconds) in zip(ops, results):
            tally.add(op, result, seconds, op.check(result), factor)
        succeeded = tally.attempted - tally.failed - before
        tally.round_rates.append(succeeded / (factor * sum(s for _, s in results)))
        tally.problems.extend(workload.round_problems(ops, results))
        tally.rounds += 1
    return results


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def end_to_end(workload, tally):
    """Times at the yardstick's reference speed, as medians over the run's
    rounds and operations; wall figures go to details."""
    primary = tally.scaled[PRIMARY_KIND[workload.name]]
    return {
        "ops_per_s": (statistics.median(tally.round_rates), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(primary), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def details(workload, tally):
    """Named figures beyond the gated metrics, printed before the result."""
    out = {"workload": workload.name, "rounds": tally.rounds, "held_faults": tally.held}
    if tally.factors:
        out["wall_ops_per_s"] = (tally.attempted - tally.failed) / tally.busy
        out["wall_op_p50_ms"] = 1e3 * statistics.median(
            tally.latency[PRIMARY_KIND[workload.name]])
        out["yardstick_factor_p50"] = statistics.median(tally.factors)
        out["yardstick_factor_range"] = [min(tally.factors), max(tally.factors)]
    for kind, values in tally.latency.items():
        entry = {"n": len(values), "p50_ms": 1e3 * statistics.median(values)}
        # a tail percentile needs at least ten samples beyond it
        for q, label in ((0.9, "p90_ms"), (0.99, "p99_ms")):
            if len(values) * (1 - q) >= 10:
                entry[label] = 1e3 * percentile(values, q)
        out[kind] = entry
    if workload.name == "compute":
        out["scan_points_per_s"] = tally.scan_points / sum(tally.latency["scan"])
    if workload.name == "sample":
        out["sample_shots_per_s"] = tally.shots / tally.busy
    return out


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

LAYERS = ("cli", "states", "frame", "operators", "moments", "sampler", "verify")

# span names whose busy (self) time is reported; a span of the same module
# called beneath one of these is credited to it (for example central_moment
# under direct_moments, or full_to_dicke under as_symmetric)
BUSY = (
    "cli.main", "states.state_from_dict", "states.as_symmetric",
    "frame.mean_spin", "frame.rotated_ops",
    "moments.direct_moments", "moments.triple_correlators", "moments.sum_route",
    "moments.report_to_dict", "sampler.projective_sample", "sampler.estimate_moments",
    "verify.identity_suite", "verify.cancellation_sweep", "verify.sum_route",
    "verify.product_vanishing",
)
SPAN_ALIAS = {
    "verify.verify_identity_suite": "verify.identity_suite",
    "verify.verify_sum_route": "verify.sum_route",
    "verify.verify_product_vanishing": "verify.product_vanishing",
    "moments.third_moment_sum_xp": "moments.sum_route",
    "moments.third_moment_sum_yp": "moments.sum_route",
}
FAILURES = ("moments.direct_moments", "moments.triple_correlators")
COUNTS = ("states.full_amplitudes", "operators.dense_entries",
          "sampler.eigh_dim3", "sampler.shots")
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.output_bytes", "bytes"),
    *((f"{name}.busy_s", "s") for name in BUSY),
    *((f"{layer}.busy_s", "s") for layer in LAYERS),
    *((f"{name}.failed", "count") for name in FAILURES),
    *((name, "count") for name in COUNTS),
    ("trace.overhead_s", "s"),
)


def _credited(tracer):
    """Span index -> reported name its self time is credited to."""
    names = [SPAN_ALIAS.get(n, n) for n in tracer.names]
    credit = []
    for span, name in enumerate(names):
        target, parent = name, tracer.parents[span]
        module = name.split(".")[0]
        while target not in BUSY and parent >= 0 and names[parent].split(".")[0] == module:
            if names[parent] in BUSY:
                target = names[parent]
                break
            parent = tracer.parents[parent]
        credit.append(target)
    return credit


def layer_table(tracer, own):
    """Per span name: calls, failures, self and total seconds."""
    table = {}
    for span, name in enumerate(tracer.names):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[span]
        row["total_s"] += tracer.ends[span] - tracer.starts[span]
    for name, count in tracer.failed.items():
        table[name]["failed"] = count
    return table


def _add_kinds(kinds, ops, plain, traced, tracer, own, problems):
    """Per operation kind: untraced, traced and span self time."""
    root_time = [0.0] * len(ops)
    self_sum = [0.0] * len(ops)
    for span, op_index in enumerate(tracer.ops):
        self_sum[op_index] += own[span]
        if tracer.parents[span] < 0:
            root_time[op_index] += tracer.ends[span] - tracer.starts[span]
    for op, (_, untraced), (_, timed), own_sum, covered in zip(
            ops, plain, traced, self_sum, root_time):
        if abs(own_sum - covered) > 1e-9 * (1.0 + covered):
            problems.append(f"{op.kind}: self times sum to {own_sum!r}, spans cover {covered!r}")
        entry = kinds.setdefault(op.kind, dict.fromkeys(
            ("ops", "untraced_s", "traced_s", "self_sum_s"), 0))
        entry["ops"] += 1
        entry["untraced_s"] += untraced
        entry["traced_s"] += timed
        entry["self_sum_s"] += own_sum


def traced_run(workload, seconds, seed):
    """Alternate untraced and traced copies of each round; report per layer."""
    tracer = Tracer()
    tally = Tally()
    execute(workload, workload.make_round(0), None)
    totals = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    kinds = {}
    first_round = None
    start = time.perf_counter()
    index = 1
    while True:
        ops = workload.make_round(index)
        plain = execute(workload, ops, tally)
        tracer.clear()
        tracer.install()
        try:
            traced = execute(workload, ops, None, tracer)
        finally:
            tracer.uninstall()
        own = tracer.self_times()
        for span, credit in enumerate(_credited(tracer)):
            totals[tracer.names[span].split(".")[0] + ".busy_s"] += own[span]
            if credit in BUSY:
                totals[f"{credit}.busy_s"] += own[span]
        totals["cli.main.calls"] += tracer.names.count("cli.main")
        totals["cli.output_bytes"] += sum(
            len(r.stdout.encode()) for r, _ in traced if isinstance(r, CliResult))
        for name in FAILURES:
            totals[f"{name}.failed"] += tracer.failed.get(name, 0)
        for name in COUNTS:
            totals[name] += tracer.work.get(name, 0)
        totals["trace.overhead_s"] += sum(s for _, s in traced) - sum(s for _, s in plain)
        _add_kinds(kinds, ops, plain, traced, tracer, own, tally.problems)
        if first_round is None:
            first_round = _spans_record(tracer, own)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    for entry in kinds.values():
        # traced time = self times of the op's spans + the benchmark's own
        # glue around the call; traced - untraced is the tracing overhead
        entry["overhead_s"] = entry["traced_s"] - entry["untraced_s"]
        entry["self_minus_untraced_s"] = entry["self_sum_s"] - entry["untraced_s"]
    metrics = {name: (totals[name] / tally.rounds, unit) for name, unit in PER_LAYER}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload.name, "seed": seed, "traced_rounds": tally.rounds,
            "per_round": {k: v for k, (v, _) in metrics.items()},
            "per_kind": kinds,
            "first_round": first_round,
        }, handle, indent=1)
    print(f"# trace written to {path.relative_to(ROOT)}")
    return tally, metrics


def _spans_record(tracer, own):
    origin = tracer.starts[0] if tracer.starts else 0.0
    return {
        "table": layer_table(tracer, own),
        "spans": [
            [name, round(start - origin, 9), round(end - origin, 9), parent, op]
            for name, start, end, parent, op in zip(
                tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.ops)
        ],
    }


def timed_run(workload, seconds):
    tally = Tally()
    stick = Yardstick()
    execute(workload, workload.make_round(0), None, stick=stick)
    start = time.perf_counter()
    index = 1
    while True:
        execute(workload, workload.make_round(index), tally, stick=stick)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    return tally, end_to_end(workload, tally)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("# env " + json.dumps(env))
    if env["blas_threads"] not in (1, None):
        print(f"BLAS runs {env['blas_threads']} threads; set OPENBLAS_NUM_THREADS=1",
              file=sys.stderr)
        return 4
    problems = oracle.cross_check(_rng(args.seed, 0))
    workload = Workload(args.workload, args.seed)
    if args.trace:
        tally, metrics = traced_run(workload, args.seconds, args.seed)
    else:
        tally, metrics = timed_run(workload, args.seconds)
    problems += tally.problems
    print("# details " + json.dumps(details(workload, tally)))
    for problem in problems[:20]:
        print(f"# problem: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
