"""The product size from which an iteration counts as large."""

#: Kept only because ``benchmarks/e2e/worker.py`` counts iterations at or above it.
DENSE_STATE_FLOOR = 2048
