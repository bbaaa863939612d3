"""Structured pruning testbed for small selective state-space language models."""

__version__ = "0.1.0"

# BLAS and OpenMP pool sizes, pinned to one thread by the command line
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
