"""Benchmark of the commonkv session API: workloads, timing, memory and tracing."""
