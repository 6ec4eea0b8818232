"""EDM: endurance-aware data migration simulator for SSD storage clusters.

Reproduction of "EDM: An Endurance-Aware Data Migration Scheme for Load
Balancing in SSD Storage Clusters" (IPPS 2014), built as a performance-first
vectorized simulation engine.

Stable public API (everything in ``__all__``):
    SimConfig          -- one simulation configuration (workload x cluster x policy)
    simulate           -- run a configuration: ``simulate(cfg, recorders=())``
    sweep              -- run a grid with caching + parallelism (+ time-series export)
    SweepResult        -- a completed sweep; ``iter_results()`` is the documented
                          way to read full metrics (cached or not),
                          ``records`` holds what the parent kept per config
    default_grid       -- the 96-config six-policy evaluation grid; the paper's
                          64 configs are ``policies=("baseline", "cdf", "hdf", "cmt")``
    EnduranceModel     -- per-OSD rated P/E budgets parsed from an ``--endurance`` spec
    ServiceModel       -- per-OSD service rates + queue bound parsed from a
                          ``--service`` spec (``rate:800;queue:64``)
    TopologyPlan       -- elastic-cluster reshaping schedule parsed from a
                          ``--topology`` spec (``add:4@128/cap:2;drain:0@192``)
    RedundancyScheme   -- m+k chunk-group placement scheme parsed from a
                          ``--redundancy`` spec (``rep:3`` / ``ec:4+2``)
    SpecError          -- what every spec grammar (faults / endurance /
                          service / topology / redundancy) raises on a
                          malformed or invalid spec string
    Recorder           -- observer protocol for per-epoch engine hooks
    TimeSeriesRecorder -- per-epoch series capture with downsampling
    TimeSeries         -- captured series + .npz/JSON/CSV exporters
    resolve_policy     -- canonical policy name (resolves the ``edm`` alias)
    config_hash        -- content hash keying the result cache
    Tracer             -- span timer: ``simulate(cfg, tracer=Tracer())`` puts
                          phase timings in ``metrics["timings"]``
    RunLogWriter       -- the one JSONL run log's writer (see edm.obs.runlog):
                          run, fault, topology, service, decision and span
                          records from ``edm run --run-log`` and sweeps
    read_run_log       -- parse + schema-validate a run log back into records
    DecisionRecorder   -- captures per-migration decision records (``--explain``)
    query_decisions    -- filter decisions by chunk / osd / epoch / trigger / policy
    attribution_summary-- per-policy fraction of moves each score term decided
    export_chrome_trace-- convert a run log's span records to Perfetto/Chrome JSON
    openmetrics_text   -- a run's metrics dict as OpenMetrics text exposition
    MetricsSnapshotRecorder -- live ``.prom`` snapshots during a run
"""

from edm.config import SimConfig, config_hash
from edm.endurance import EnduranceModel
from edm.engine.core import simulate
from edm.faults import FaultEvent, FaultPlan
from edm.obs import (
    DecisionRecorder,
    RunLogWriter,
    Tracer,
    attribution_summary,
    export_chrome_trace,
    query_decisions,
    read_run_log,
)
from edm.policies import resolve_policy
from edm.redundancy import RedundancyScheme
from edm.service import ServiceModel
from edm.spec import SpecError
from edm.sweep import SweepResult, default_grid, sweep
from edm.telemetry import (
    MetricsSnapshotRecorder,
    Recorder,
    TimeSeries,
    TimeSeriesRecorder,
    openmetrics_text,
)
from edm.topology import TopologyPlan

__version__ = "0.10.0"

__all__ = [
    "DecisionRecorder",
    "EnduranceModel",
    "FaultEvent",
    "FaultPlan",
    "MetricsSnapshotRecorder",
    "ServiceModel",
    "SimConfig",
    "SpecError",
    "SweepResult",
    "Recorder",
    "RedundancyScheme",
    "RunLogWriter",
    "TimeSeries",
    "TimeSeriesRecorder",
    "TopologyPlan",
    "Tracer",
    "attribution_summary",
    "config_hash",
    "default_grid",
    "export_chrome_trace",
    "openmetrics_text",
    "query_decisions",
    "read_run_log",
    "resolve_policy",
    "simulate",
    "sweep",
    "__version__",
]
