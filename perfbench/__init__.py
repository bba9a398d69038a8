"""decaylab benchmark package: workloads, oracles, output checks and tracing."""
