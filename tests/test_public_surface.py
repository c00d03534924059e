"""The public surface: ``trispin.__all__`` and the names it resolves to.

``__init__.py`` lists each public name once, under the module that defines
it, and loads that module when the name is first looked up.  These tests pin
the list entry for entry and check that every name is the owner module's own
object, so a function deleted or renamed in its module cannot linger in the
list.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import trispin

PUBLIC_NAMES = [
    "__version__",
    "TrispinError",
    "InvalidStateError",
    "NotSymmetricError",
    "FrameUndefinedError",
    "DimensionMismatchError",
    "InsufficientShotsError",
    "SymmetricState",
    "ProductState",
    "FullState",
    "symmetric_state",
    "product_state",
    "full_state",
    "dicke_to_full",
    "product_to_full",
    "full_to_dicke",
    "as_symmetric",
    "permute_atoms",
    "random_symmetric_state",
    "random_product_state",
    "state_from_dict",
    "state_to_dict",
    "LadderOperator",
    "OperatorMatrix",
    "single_atom_op",
    "collective_op",
    "collective_op_dicke",
    "MeanSpin",
    "RotationAngles",
    "mean_spin",
    "rotation_angles",
    "rotated_ops",
    "MomentReport",
    "TripleCorrelatorSet",
    "central_moment",
    "triple_correlators",
    "third_moment_sum_xp",
    "third_moment_sum_yp",
    "entanglement_s",
    "IdentityResult",
    "SweepSummary",
    "verify_identity_suite",
    "verify_cancellation",
    "cancellation_sweep",
    "verify_sum_route",
    "verify_product_vanishing",
    "run_verification",
    "MeasurementRecord",
    "MomentEstimates",
    "SamplingEstimate",
    "projective_sample",
    "estimate_moments",
    "estimate_s_from_samples",
]

OWNERS = {
    "errors": PUBLIC_NAMES[1:7],
    "states": PUBLIC_NAMES[7:22],
    "operators": PUBLIC_NAMES[22:27],
    "frame": PUBLIC_NAMES[27:32],
    "moments": PUBLIC_NAMES[32:39],
    "verify": PUBLIC_NAMES[39:47],
    "sampler": PUBLIC_NAMES[47:],
}


def test_all_is_the_pinned_list():
    assert trispin.__all__ == PUBLIC_NAMES


def test_every_listed_name_resolves():
    missing = [name for name in trispin.__all__ if not hasattr(trispin, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    assert len(trispin.__all__) == len(set(trispin.__all__))


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, names in OWNERS.items() for name in names
])
def test_each_name_is_its_owner_modules_object(owner, name):
    assert getattr(trispin, name) is getattr(importlib.import_module("trispin." + owner), name)


def test_all_lists_the_imported_names():
    # the export table is the one list: each public name is one string in it
    tree = ast.parse(Path(trispin.__file__).read_text(encoding="utf-8"))
    strings = Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in PUBLIC_NAMES
    )
    assert strings == Counter(PUBLIC_NAMES)


def test_dir_lists_every_public_name():
    assert set(trispin.__all__) <= set(dir(trispin))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from trispin import *", namespace)
    assert set(trispin.__all__) <= namespace.keys()
    assert namespace["entanglement_s"] is trispin.entanglement_s


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        trispin.no_such_name  # noqa: B018
    assert not hasattr(trispin, "reduced_terms")  # public in verify, not exported


def test_submodules_stay_importable_by_name():
    from trispin import cli, sampler, verify

    assert sampler is sys.modules["trispin.sampler"]
    assert verify is sys.modules["trispin.verify"]
    assert cli.main is sys.modules["trispin.cli"].main


def test_importing_the_package_loads_no_module():
    # the modules load when one of their names is first used
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, trispin; "
         "print(sorted(m for m in sys.modules if m.startswith('trispin')))"],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert child.stdout.strip() == "['trispin']"
