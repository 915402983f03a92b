"""The Fig. 1 instance micro-benchmark.

The k-means workload's calibrated throughputs (0.44 GB/h, and 6.2 GB/h
for the small reference set) live in :mod:`repro.cloud.catalog` as
``KMEANS_THROUGHPUT_GB_H`` and ``KMEANS_FAST_THROUGHPUT_GB_H``.
"""

from .instance_bench import InstanceMeasurement, run_instance_benchmark

__all__ = [
    "InstanceMeasurement",
    "run_instance_benchmark",
]
