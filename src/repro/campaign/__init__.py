"""repro.campaign — parallel, resumable simulation campaigns.

The figure suite is a cross product of {workload × policy × SB size ×
prefetcher}; this package turns those ad-hoc loops into declarative
campaigns: :class:`Job`/:class:`Campaign` describe the matrix,
:func:`run_campaign` executes it on a process pool with retries and cache
tiers, :class:`ResultStore` persists every result on disk keyed by config
hash, and :mod:`repro.campaign.progress` reports live telemetry.
"""

from repro.campaign.executor import (
    CampaignReport,
    JobOutcome,
    default_worker_count,
    execute_job,
    run_campaign,
    run_job,
)
from repro.campaign.job import (
    Campaign,
    Job,
    register_workload,
    workload_factory,
)
from repro.campaign.manifest import ManifestError, campaign_from_manifest, load_manifest
from repro.campaign.progress import (
    CampaignTelemetry,
    ConsoleProgress,
    ProgressEvent,
)
from repro.campaign.store import (
    SCHEMA_VERSION,
    ResultCodecError,
    ResultStore,
    decode_multicore_result,
    decode_result,
    encode_multicore_result,
    encode_result,
)

__all__ = [
    "Campaign",
    "CampaignReport",
    "CampaignTelemetry",
    "ConsoleProgress",
    "Job",
    "JobOutcome",
    "ManifestError",
    "ProgressEvent",
    "ResultCodecError",
    "ResultStore",
    "SCHEMA_VERSION",
    "campaign_from_manifest",
    "decode_multicore_result",
    "decode_result",
    "default_worker_count",
    "encode_multicore_result",
    "encode_result",
    "execute_job",
    "load_manifest",
    "register_workload",
    "run_campaign",
    "run_job",
    "workload_factory",
]
