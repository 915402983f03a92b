"""Cloud service substrate: descriptions, catalog, pricing, spot price traces.

The planner consumes :class:`ServiceDescription` objects — either built
programmatically, loaded from the paper's XML format
(:mod:`repro.cloud.descriptions`), or taken from the July-2011 AWS catalog
(:mod:`repro.cloud.catalog`).  Spot price traces live in
:mod:`repro.cloud.spot` (the trace type) and :mod:`repro.cloud.traces`
(the synthetic generators); the predictors that read them are in
:mod:`repro.core.predictor`.
"""

from .catalog import (
    CHUNK_MB,
    EC2_LARGE_PRICE,
    KMEANS_FAST_THROUGHPUT_GB_H,
    KMEANS_THROUGHPUT_GB_H,
    ec2_c1_xlarge,
    ec2_m1_large,
    ec2_m1_xlarge,
    ec2_spot_m1_large,
    hybrid_cloud,
    instance_types,
    local_cluster,
    public_cloud,
    s3,
)
from .catalog_full import (
    INSTANCE_SPECS,
    RESERVED_M1_LARGE,
    InstanceSpec,
    ReservedOffer,
    ecu_efficiency,
    full_instance_catalog,
    measured_throughput,
    projected_throughput,
    spec_by_name,
)
from .descriptions import (
    DescriptionError,
    load_services,
    parse_services,
    save_services,
    to_xml,
)
from .services import UNLIMITED, ResourceKind, ServiceDescription, validate_catalog
from .spot import SpotTrace, summarize_costs
from .traces import aws_like_trace, constant_trace, electricity_like_trace

__all__ = [
    "CHUNK_MB",
    "DescriptionError",
    "EC2_LARGE_PRICE",
    "INSTANCE_SPECS",
    "InstanceSpec",
    "KMEANS_FAST_THROUGHPUT_GB_H",
    "KMEANS_THROUGHPUT_GB_H",
    "RESERVED_M1_LARGE",
    "ReservedOffer",
    "ResourceKind",
    "ServiceDescription",
    "SpotTrace",
    "UNLIMITED",
    "aws_like_trace",
    "constant_trace",
    "ec2_c1_xlarge",
    "ec2_m1_large",
    "ec2_m1_xlarge",
    "ec2_spot_m1_large",
    "ecu_efficiency",
    "electricity_like_trace",
    "full_instance_catalog",
    "hybrid_cloud",
    "instance_types",
    "load_services",
    "local_cluster",
    "measured_throughput",
    "parse_services",
    "projected_throughput",
    "public_cloud",
    "s3",
    "save_services",
    "spec_by_name",
    "summarize_costs",
    "to_xml",
    "validate_catalog",
]
