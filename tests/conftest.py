"""Pin the BLAS and OpenMP pools to one thread, as the CLI does by default.

pytest imports this file before any test module, so the variables are
set before numpy loads; a value already in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("CTCFUSE_THREADS") or "1")
