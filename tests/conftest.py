"""Shared fixtures. The trained-checkpoint fixtures are session-scoped and
drive the behavioral acceptance criteria; everything trains hermetically
inside the pytest temp root."""

import os

# One BLAS thread per process, as the benchmark runs: a spinning BLAS worker
# thread takes the core that the autoencoder lane process runs on. Set before
# numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from redloco.config import desk_config
from redloco.harness import calibrate_beta_run
from redloco.training import train


@pytest.fixture(scope="session")
def joint_run(tmp_path_factory):
    """Joint desk-scale training on flat+stairs+gap(+platform/rough) at 12x16."""
    out = tmp_path_factory.mktemp("joint_run")
    result = train(desk_config(seed=42), out)
    return result


@pytest.fixture(scope="session")
def joint_checkpoint(joint_run):
    return joint_run.checkpoint


@pytest.fixture(scope="session")
def calibrated_beta(joint_checkpoint):
    result = calibrate_beta_run(joint_checkpoint, episodes=20, seed=5)
    return result


@pytest.fixture(scope="session")
def flat_smoke_run(tmp_path_factory):
    """The 8-env flat-terrain learning-smoke run."""
    cfg = desk_config()
    cfg.seed = 7
    cfg.n_envs = 8
    cfg.horizon = 48
    cfg.iterations = 300
    cfg.terrain_mix = ("flat",)
    out = tmp_path_factory.mktemp("flat_smoke")
    return train(cfg, out)
