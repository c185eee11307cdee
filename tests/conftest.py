"""Pytest setup: one BLAS thread.

The package multiplies many small matrices; with a multi-threaded BLAS each
such product pays thread start-up and can take milliseconds instead of
microseconds.  The variables are read when numpy loads its BLAS, so they are
set here, before any test module imports numpy; subprocesses started by the
tests inherit them.  Values already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
