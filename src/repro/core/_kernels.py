"""Whether numba is importable — the benchmark fingerprint, nothing else."""

import importlib.util

# Shim for benchmarks/e2e/harness.py:32; the follow-up [benchmark] PR removes it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
