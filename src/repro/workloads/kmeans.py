"""The k-means clustering workload (paper Section 6.1).

The paper's evaluation application is Apache Mahout's MapReduce k-means:
40 million randomly generated points (32 GB) clustered against 10,000
reference points.  Map tasks assign points to the nearest reference
centroid and emit per-centroid partial sums (tiny output); the reduce
phase recomputes centroids.

This module generates the synthetic equivalent: the dataset geometry, the
derived job descriptions for both the planner and the engine, and the
throughput calibration (0.44 GB/h per m1.large with 10 k references;
6.2 GB/h with the small reference set of Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.problem import PlannerJob
from ..mapreduce.job import MapReduceJob
from ..sim.rng import generator
from ..units import MB_PER_GB

#: Paper calibration: bytes per point such that 40 M points = 32 GB.
BYTES_PER_POINT = int(32 * MB_PER_GB * 1024 * 1024) // 40_000_000

#: Measured throughput (GB/h per node) as a function of reference-set
#: size: the per-point work is dominated by the distance computations
#: against every reference point.
CALIBRATION_REFERENCES = 10_000
CALIBRATION_GB_PER_HOUR = 0.44
FAST_REFERENCES = 710  # yields the paper's 6.2 GB/h variant


@dataclass(frozen=True)
class KMeansDataset:
    """Geometry of a synthetic k-means input."""

    num_points: int
    dimensions: int = 58  # BYTES_PER_POINT / 8-byte doubles, a la Mahout
    num_references: int = CALIBRATION_REFERENCES

    def __post_init__(self) -> None:
        if self.num_points <= 0 or self.dimensions <= 0 or self.num_references <= 0:
            raise ValueError("dataset dimensions must be positive")

    @property
    def size_gb(self) -> float:
        return self.num_points * BYTES_PER_POINT / (MB_PER_GB * 1024 * 1024)

    @classmethod
    def paper_dataset(cls) -> "KMeansDataset":
        """40 M points / 32 GB / 10 k references (Section 6.1)."""
        return cls(num_points=40_000_000)

    @classmethod
    def for_size_gb(cls, size_gb: float, num_references: int = CALIBRATION_REFERENCES) -> "KMeansDataset":
        points = max(1, int(size_gb * MB_PER_GB * 1024 * 1024 / BYTES_PER_POINT))
        return cls(num_points=points, num_references=num_references)

    # -- throughput model ----------------------------------------------------

    def throughput_gb_per_hour(self, base: float = CALIBRATION_GB_PER_HOUR) -> float:
        """Per-node throughput for this reference-set size.

        Work per input byte scales linearly with the number of reference
        points, anchored at the paper's measured 0.44 GB/h for 10 k.
        """
        return base * CALIBRATION_REFERENCES / self.num_references

    def throughput_scale(self) -> float:
        """Multiplier vs. the calibration workload (PlannerJob knob)."""
        return CALIBRATION_REFERENCES / self.num_references

    # -- job derivations ----------------------------------------------------

    def planner_job(self, name: str = "kmeans") -> PlannerJob:
        return PlannerJob(
            name=name,
            input_gb=self.size_gb,
            map_output_ratio=self.map_output_ratio(),
            reduce_output_ratio=1.0,
            throughput_scale=self.throughput_scale(),
        )

    def engine_job(self, name: str = "kmeans", split_mb: float = 64.0) -> MapReduceJob:
        return MapReduceJob(
            name=name,
            input_path=f"/{name}/points",
            input_mb=self.size_gb * MB_PER_GB,
            split_mb=split_mb,
            map_output_ratio=self.map_output_ratio(),
            reduce_output_ratio=1.0,
            num_reducers=max(1, min(8, self.num_references // 1500)),
        )

    def map_output_ratio(self) -> float:
        """Map emits one partial sum per (task, centroid): tiny output."""
        output_bytes = self.num_references * (self.dimensions * 8 + 16)
        per_task_fraction = output_bytes / (self.size_gb * MB_PER_GB * 1024 * 1024)
        # One emission per map task wave; bounded away from zero so the
        # reduce/download phases stay exercised.
        return max(min(per_task_fraction * 512, 0.01), 1e-4)


def generate_points(
    dataset: KMeansDataset, count: int | None = None, seed: int = 0
) -> np.ndarray:
    """Sample synthetic input points (for tests/examples; the simulator
    itself only needs sizes).  Points are drawn from a mixture of
    Gaussians so clustering is non-trivial."""
    rng = generator(seed, "kmeans-points")
    count = count if count is not None else min(dataset.num_points, 100_000)
    centers = rng.normal(0.0, 5.0, size=(8, dataset.dimensions))
    assignments = rng.integers(0, len(centers), size=count)
    return centers[assignments] + rng.normal(0.0, 1.0, size=(count, dataset.dimensions))


def generate_references(dataset: KMeansDataset, seed: int = 0) -> np.ndarray:
    rng = generator(seed, "kmeans-references")
    return rng.normal(0.0, 5.0, size=(dataset.num_references, dataset.dimensions))


def assign_points(points: np.ndarray, references: np.ndarray) -> np.ndarray:
    """The map function's core: nearest reference per point (vectorized)."""
    distances = (
        np.sum(points**2, axis=1)[:, None]
        - 2 * points @ references.T
        + np.sum(references**2, axis=1)[None, :]
    )
    return np.argmin(distances, axis=1)


def recompute_centroids(
    points: np.ndarray, assignments: np.ndarray, k: int
) -> np.ndarray:
    """The reduce function's core: mean of assigned points per centroid."""
    centroids = np.zeros((k, points.shape[1]))
    for index in range(k):
        members = points[assignments == index]
        if len(members):
            centroids[index] = members.mean(axis=0)
    return centroids
