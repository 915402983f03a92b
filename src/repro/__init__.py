"""Conductor (NSDI 2012) reproduction.

``repro`` implements the system described in *Orchestrating the Deployment
of Computations in the Cloud with Conductor* (Wieder, Bhatotia, Post,
Rodrigues; NSDI 2012): an LP-driven planner plus deployment layer that
chooses which cloud services to use for a MapReduce job, deploys the plan
through a resource abstraction layer, and adapts at runtime.

Subpackages
-----------
``repro.lp``
    LP/MILP modeling + solving substrate (CPLEX stand-in).
``repro.sim``
    Discrete-event simulation kernel and network model.
``repro.cloud``
    Cloud service descriptions, AWS July-2011 catalog, pricing, spot
    markets and trace generators.
``repro.storage``
    Conductor's storage abstraction layer (namenode, backends, client,
    chunked filesystem driver, Fig. 15 throughput).
``repro.mapreduce``
    Hadoop-like MapReduce engine with stock and location-aware schedulers.
``repro.pig``
    Pig-Latin dialect, logical plans, and the compiler to multi-stage
    MapReduce pipelines (the Section 2.1 substrate).
``repro.core``
    Conductor proper: LP model builder, planner, job controller,
    predictors (paper's and extended), pipeline planner with
    reliability-aware storage tiers, accounting, baseline deployment
    strategies.
``repro.workloads``
    The Fig. 1 instance micro-benchmark.
"""

__version__ = "0.5.0"

__all__ = ["__version__"]
