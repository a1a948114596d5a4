"""Benchmark of the braggsim CLI: timed invocations, output checks and
traced per-layer runs. See perfbench/README.md."""
