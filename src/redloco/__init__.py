"""Planar locomotion with redundant state estimators and vision-fault switching."""

import os

# One BLAS thread per process unless the caller chose otherwise: the
# autoencoder update runs in a forked process beside PPO, and a spinning BLAS
# worker takes its core. This pins any program importing redloco before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
