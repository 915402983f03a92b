"""Hadoop-like MapReduce engine on the simulation kernel.

Task-level execution substrate: jobs split into map/reduce tasks
(:mod:`job`), simulated nodes with slots and leases (:mod:`cluster`),
stock and location-aware schedulers (:mod:`scheduler`), the event-driven
engine (:mod:`engine`), and HDFS-style baseline storage (:mod:`hdfs`).
"""

from .cluster import (
    CLIENT_SITE,
    DEFAULT_BOOT_SECONDS,
    S3_SITE,
    Cluster,
    SimNode,
    build_topology,
    wire_node,
)
from .engine import MapReduceEngine
from .hdfs import (
    CONDUCTOR_CHUNK_OVERHEAD_S,
    HDFS_CHUNK_OVERHEAD_S,
    HdfsDeployment,
    build_hdfs,
)
from .job import MapReduceJob, Task, TaskKind, TaskState
from .scheduler import HadoopScheduler, LocationAwareScheduler, Scheduler

__all__ = [
    "CLIENT_SITE",
    "CONDUCTOR_CHUNK_OVERHEAD_S",
    "Cluster",
    "DEFAULT_BOOT_SECONDS",
    "HDFS_CHUNK_OVERHEAD_S",
    "HadoopScheduler",
    "HdfsDeployment",
    "LocationAwareScheduler",
    "MapReduceEngine",
    "MapReduceJob",
    "S3_SITE",
    "Scheduler",
    "SimNode",
    "Task",
    "TaskKind",
    "TaskState",
    "build_hdfs",
    "build_topology",
    "wire_node",
]
