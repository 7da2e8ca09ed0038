"""Layer benchmark: four served workloads, end to end and layer by layer."""
