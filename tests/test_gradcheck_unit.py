"""Fast FD spot-checks; the acceptance suite runs the full 20-instance sweep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redloco
from redloco.errors import ContractError
from redloco.harness.verify import (check_ad_loss, check_estimator_loss, run_full_suite,
                                   run_loss_suite)
from redloco.nn.gradcheck import run_layer_suite

TOL = 1e-4


def test_every_layer_kind_passes_fd_spot_check():
    results = run_layer_suite(instances=3, seed=11)
    assert set(results) == {"linear", "elu", "tanh", "conv2d", "deconv2d", "gru_cell",
                            "flatten", "reshape"}
    for kind, err in results.items():
        assert err < TOL, f"{kind}: {err:.3e}"


@pytest.mark.parametrize("suite", [run_layer_suite, run_loss_suite, run_full_suite])
def test_a_suite_of_no_instances_is_refused(suite):
    with pytest.raises(ContractError, match="instances must be at least 1, got 0"):
        suite(instances=0)


def test_layer_suite_does_not_depend_on_the_string_hash_salt():
    # Python salts str hashes per process; each kind's instances must not
    code = ("import json; from redloco.nn.gradcheck import run_layer_suite; "
            "print(json.dumps({k: repr(v) for k, v in run_layer_suite(1, 0).items()}))")
    src = str(Path(redloco.__file__).resolve().parents[1])
    runs = []
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]


def test_proprio_loss_gradients_flow_into_both_encoders():
    assert check_estimator_loss(False, 0) < TOL
    assert check_estimator_loss(False, 1) < TOL


def test_vision_loss_gradients_cover_all_heads():
    assert check_estimator_loss(True, 0) < TOL
    assert check_estimator_loss(True, 1) < TOL


def test_reconstruction_loss_gradients():
    assert check_ad_loss(0) < TOL
