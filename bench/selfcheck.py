"""Show that the benchmark's correctness checks catch planted wrong answers.

    python3 bench/selfcheck.py

Runs one round of each workload twice: as is (must pass), and with one
planted fault in the program's output (must fail the run):

* ``compute``: one document's S moved by 1e-6 * (1 + S);
* ``verify``: one trial dropped from the cancellation sweep;
* ``sample``: one record whose counts no longer sum to the shot count.

Exit code 0 when every planted fault is caught and every clean round passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from trispin import cli, sampler, verify  # noqa: E402


@contextlib.contextmanager
def patched(module, name, make_wrapper):
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def perturb_first_s(original):
    state = {"done": False}

    def main(argv=None):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = original(argv)
        text = buffer.getvalue()
        if code == 0 and argv[0] == "compute" and not state["done"]:
            document = json.loads(text)
            s_value = document["report"]["s_parameter"]
            document["report"]["s_parameter"] = s_value + 1e-6 * (1.0 + s_value)
            text = json.dumps(document, indent=2) + "\n"
            state["done"] = True
        sys.stdout.write(text)
        return code

    return main


def drop_sweep_trial(original):
    def run_verification(*args, **kwargs):
        report = copy.deepcopy(original(*args, **kwargs))
        report["sweeps"][0]["n_trials"] -= 1
        return report

    return run_verification


def break_counts(original):
    def estimate_s_from_samples(*args, **kwargs):
        estimate = original(*args, **kwargs)
        record = estimate.record_xp
        counts = np.array(record.counts)
        counts[0] += 1
        object.__setattr__(record, "counts", counts)  # bypasses the record's own validation
        return estimate

    return estimate_s_from_samples


PLANTS = {
    "compute": (cli, "main", perturb_first_s),
    "verify": (verify, "run_verification", drop_sweep_trial),
    "sample": (sampler, "estimate_s_from_samples", break_counts),
}


def one_round(name, seed=7):
    workload = workloads.Workload(name, seed)
    tally = workloads.Tally()
    workloads.execute(workload, workload.make_round(1), tally)
    return tally.problems


def main():
    caught = True
    for name, (module, attr, plant) in PLANTS.items():
        clean = one_round(name)
        with patched(module, attr, plant):
            planted = one_round(name)
        print(f"{name:<8} clean round: {'passes' if not clean else clean[:2]}")
        print(f"{name:<8} planted {plant.__name__}: "
              f"{'caught: ' + planted[0] if planted else 'NOT CAUGHT'}")
        caught &= not clean and bool(planted)
    print("all planted faults caught" if caught else "a planted fault went unnoticed")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
