"""The repository benchmark: cold-process workloads, end-to-end host
metrics, and a traced per-layer breakdown (see README.md)."""
