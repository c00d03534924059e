"""Spans around calls into trispin's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every trispin module
namespace that holds it, to a wrapper that records a span (name, start, end,
parent, operation id) and the computed work counts of that call; ``uninstall``
puts the originals back.  The library itself is not modified.  Spans stay in
memory; ``self_times`` turns them into per-span self time (duration minus the
time covered by child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) pairs traced; the span name is "<module>.<attribute>",
# except MomentReport.to_dict, whose spans are named "moments.report_to_dict".
TRACED = (
    ("cli", "main"),
    ("states", "state_from_dict"),
    ("states", "symmetric_state"),
    ("states", "product_state"),
    ("states", "as_symmetric"),
    ("states", "dicke_to_full"),
    ("states", "product_to_full"),
    ("states", "full_to_dicke"),
    ("states", "random_symmetric_state"),
    ("states", "random_product_state"),
    ("frame", "mean_spin"),
    ("frame", "rotation_angles"),
    ("frame", "rotated_ops"),
    ("operators", "single_atom_op"),
    ("operators", "collective_op"),
    ("operators", "collective_op_dicke"),
    ("moments", "entanglement_s"),
    ("moments", "direct_moments"),
    ("moments", "central_moment"),
    ("moments", "triple_correlators"),
    ("moments", "third_moment_sum_xp"),
    ("moments", "third_moment_sum_yp"),
    ("moments", "MomentReport.to_dict"),
    ("sampler", "estimate_s_from_samples"),
    ("sampler", "projective_sample"),
    ("sampler", "estimate_moments"),
    ("verify", "run_verification"),
    ("verify", "verify_identity_suite"),
    ("verify", "cancellation_sweep"),
    ("verify", "verify_sum_route"),
    ("verify", "verify_product_vanishing"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _full_vector(args, kwargs):
    return {"states.full_amplitudes": 1 << _arg(args, kwargs, 0, "state").n_atoms}


def _full_op(n_index):
    def work(args, kwargs):
        dim = 1 << _arg(args, kwargs, n_index, "n_atoms")
        return {"operators.dense_entries": dim * dim}
    return work


def _dicke_op(args, kwargs):
    dim = _arg(args, kwargs, 1, "n_atoms") + 1
    return {"operators.dense_entries": dim * dim}


def _rotated(args, kwargs):
    n_atoms = _arg(args, kwargs, 1, "n_atoms")
    space = kwargs.get("space_tag", args[2] if len(args) > 2 else "dicke")
    dim = n_atoms + 1 if space == "dicke" else 1 << n_atoms
    return {"operators.dense_entries": 3 * dim * dim}


def _projective(args, kwargs):
    dim = _arg(args, kwargs, 1, "op").dim
    return {"sampler.shots": int(_arg(args, kwargs, 2, "m_shots")),
            "sampler.eigh_dim3": dim**3}


# Work counts computed from each call's input sizes (not measured inside the
# program); counted only for calls that return.
WORK = {
    "states.dicke_to_full": _full_vector,
    "states.product_to_full": _full_vector,
    "operators.single_atom_op": _full_op(2),
    "operators.collective_op": _full_op(1),
    "operators.collective_op_dicke": _dicke_op,
    "frame.rotated_ops": _rotated,
    "sampler.projective_sample": _projective,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.ops = []
        self.starts = []
        self.ends = []
        self.failed = defaultdict(int)
        self.work = defaultdict(int)
        self.op_id = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        work = WORK.get(name)
        names, parents, ops, starts, ends = (
            self.names, self.parents, self.ops, self.starts, self.ends
        )
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs).items():
                    self.work[key] += value
            return result

        return wrapper

    def install(self):
        """Rebind every traced function wherever trispin modules hold it."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "trispin" or key.startswith("trispin.")
        ]
        for module_name, attr in TRACED:
            owner = sys.modules[f"trispin.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap("moments.report_to_dict", original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def self_times(self):
        """Per-span self time: duration minus the durations of child spans."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[span] - self.starts[span]
        return own

    def clear(self):
        for store in (self.names, self.parents, self.ops, self.starts, self.ends):
            store.clear()
        self.failed.clear()
        self.work.clear()
