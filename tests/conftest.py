import os
import sys

# One BLAS thread unless the caller chose a count: on these matrix sizes a
# second OpenBLAS thread only spins (perfbench/README.md, "The BLAS thread
# finding").  OpenBLAS reads this when numpy first loads, which is after
# this file.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))
