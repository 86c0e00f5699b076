"""Planar locomotion with redundant state estimators and vision-fault switching."""

import os

# One BLAS thread unless the caller chose otherwise: the autoencoder update
# runs on a worker thread beside PPO, and a spinning BLAS worker takes the core
# it runs on. This pins any program that imports redloco before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
