"""Pin the BLAS pool to one thread before numpy loads.

OpenBLAS starts a thread per core by default.  On a small machine those
threads contend with any other job, and the time-budgeted acceptance
tests then miss their budgets; the solvers' output bytes do not depend on
the thread count (tests/test_cli.py checks it), so one thread loses
nothing.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
