"""Pin the BLAS and OpenMP pools the way the package does for every caller.

pytest imports this file before any test module, and importing ``ctcfuse``
sets the pool variables before numpy loads (a value already set wins).
"""

import ctcfuse  # noqa: F401
