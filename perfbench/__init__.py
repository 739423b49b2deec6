"""Benchmark for sismob: seeded scenario workloads, output checks, layer tracing."""
