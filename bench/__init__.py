"""The repository benchmark: workloads, span tracing, runner and comparison."""
