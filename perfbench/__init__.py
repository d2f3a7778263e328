"""The repository benchmark: three workloads against the public API of ``repro``."""
