"""The metrics catalogue: one row per key of a run's metrics dict.

A row is the one place a key's facts live: its help text, how the
OpenMetrics exporter (:func:`edm.telemetry.openmetrics_text`) exposes
it -- at the end of a run, and mid-run in a live snapshot -- and which
``edm report`` column shows it.  To add a metric, add its
row here and the code that computes it; without the row,
:class:`~edm.engine.metrics.MetricsAccumulator` refuses to return the key.

Rows are in exposition order: exported families render in this order, and
report columns appear in it -- hence the service block before the topology
block, although the metrics dict emits topology first.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """One metrics-dict key.

    ``type`` is its OpenMetrics type: ``gauge``, ``counter``, or ``info`` for
    a label of the ``edm_run`` info sample; None when it is not exported.
    ``name`` is the family name where that differs from the key.  ``column``
    and ``fmt`` are the report header and format spec; ``scenario`` is the
    field of :data:`edm.config.SCENARIOS` whose presence shows the
    column, None when it always shows.
    """

    key: str
    help: str
    type: str | None = None
    name: str | None = None
    column: str | None = None
    fmt: str = ""
    scenario: str | None = None

    @property
    def family(self) -> str:
        return self.name or self.key


METRICS = (
    # Run identity: the labels of the edm_run info sample, in label order.
    Metric("workload", "Workload trace the run replayed.", "info", "run"),
    Metric("policy", "Migration policy, by canonical name.", "info", "run"),
    Metric("num_osds", "OSDs at the start of the run.", "info", "run"),
    Metric("seed", "Seed of the run.", "info", "run"),
    Metric("skew", "Popularity skew of the workload.", "info", "run"),
    # The paper's three axes: load balance, wear, migration cost.
    Metric("epochs", "Epochs simulated.", "counter"),
    Metric("total_requests", "Requests routed over the run.", "counter", "requests"),
    Metric("total_writes", "Write requests among them.", "counter", "writes"),
    Metric("load_cov_mean", "Per-epoch load coefficient of variation, averaged over epochs.",
           "gauge", column="load CoV", fmt=".4f"),
    Metric("load_peak_ratio_mean", "Mean per-epoch max/mean load ratio.",
           "gauge", column="peak ratio", fmt=".3f"),
    Metric("load_cov_final", "Load CoV of the latest epoch simulated.", "gauge"),
    Metric("wear_mean", "Mean erase count across SSDs.", "gauge"),
    Metric("wear_max", "Max erase count across SSDs.", "gauge"),
    Metric("wear_min", "Min erase count across SSDs.", "gauge"),
    Metric("wear_spread", "Max - min erase count across SSDs.",
           "gauge", column="wear spread", fmt=".0f"),
    Metric("wear_cov", "Erase-count CoV across SSDs.", "gauge", column="wear CoV", fmt=".4f"),
    Metric("migrations_total", "Chunks migrated over the run.", "counter", "migrations"),
    Metric("migration_cost_mb", "Data moved by migration, MB.",
           "gauge", "migration_cost_megabytes", column="migration MB", fmt=".0f"),
    # Faulted runs.
    Metric("faults", "Fault plan, as a canonical spec."),
    Metric("fault_failures", "OSD failure events fired.", "counter"),
    Metric("fault_slow_events", "Slow-disk events fired.", "counter"),
    Metric("fault_hiccups", "Hiccup events fired.", "counter"),
    Metric("replacement_moves_total", "Chunks re-placed off failed OSDs.",
           "counter", "replacement_moves"),
    Metric("replacement_burst_max", "Most chunks re-placed off one failed OSD."),
    Metric("fault_recovery_epochs", "Epochs until survivor load CoV recovered (-1: never).",
           "gauge"),
    Metric("load_cov_alive_mean", "Load CoV over surviving OSDs, mean.", "gauge"),
    Metric("wear_cov_alive", "Erase-count CoV across surviving OSDs."),
    Metric("osds_alive_final", "OSDs alive after the latest epoch simulated.",
           "gauge", "osds_alive"),
    # Rated runs.
    Metric("endurance", "Endurance model, as a canonical spec."),
    Metric("remaining_life_min", "Min remaining rated P/E cycles, alive OSDs.", "gauge"),
    Metric("remaining_life_mean", "Mean remaining rated P/E cycles, alive OSDs.", "gauge"),
    Metric("remaining_life_cov", "Remaining-life CoV across alive OSDs.", "gauge"),
    Metric("predicted_first_wearout_epoch",
           "Predicted epoch of the next wear-out (-1: none in sight).", "gauge"),
    Metric("wearouts_total", "OSDs worn out during the run.", "counter", "wearouts"),
    Metric("wearout_replacements_total", "Chunks re-placed off worn-out OSDs.",
           "counter", "wearout_replacements"),
    Metric("first_wearout_epoch", "Epoch of the first wear-out (-1: none).", "gauge"),
    # Serviced runs.
    Metric("service", "Service model, as a canonical spec."),
    Metric("service_lat_p50", "Request latency p50, in epochs of service time.",
           "gauge", "service_lat_p50_epochs", column="lat p50", fmt=".3g", scenario="service"),
    Metric("service_lat_p99", "Request latency p99, in epochs of service time.",
           "gauge", "service_lat_p99_epochs", column="lat p99", fmt=".3g", scenario="service"),
    Metric("service_lat_p999", "Request latency p99.9, in epochs of service time.",
           "gauge", "service_lat_p999_epochs", column="lat p999", fmt=".3g", scenario="service"),
    Metric("migration_spike_ratio", "Mean latency in migration epochs / clean epochs.",
           column="mig spike", fmt=".3g", scenario="service"),
    Metric("service_lat_mean", "Mean finite request latency, in epochs of service time."),
    Metric("service_requests_total", "Requests offered to the service model.",
           "counter", "service_requests"),
    Metric("service_dropped_total", "Requests dropped by bounded queues.",
           "counter", "service_dropped"),
    Metric("service_stalled_total", "Accepted requests with infinite latency (rate 0)."),
    Metric("service_lost_work", "Queued and pending work lost with dead OSDs, in requests."),
    Metric("migration_spike_lat_max", "Max latency in migration epochs."),
    Metric("queue_depth_mean", "Queue depth over alive OSDs, mean over epochs."),
    Metric("queue_depth_max", "Max queue depth of any alive OSD."),
    Metric("queue_depth_cov_mean", "Queue-depth CoV over alive OSDs, mean over epochs."),
    # Elastic runs.
    Metric("topology", "Topology plan, as a canonical spec."),
    Metric("osds_total_final", "OSD ids at end of run, dead and drained included."),
    Metric("osds_added_total", "OSDs added by scale-out."),
    Metric("osds_drained_total", "OSDs drained and retired."),
    Metric("cold_wear_mean", "Mean erase count of the OSDs scale-out added."),
    Metric("cold_wear_max", "Max erase count of the OSDs scale-out added."),
    Metric("cold_load_share_final", "Share of final-epoch load on the OSDs scale-out added.",
           column="cold share", fmt=".3f", scenario="topology"),
    Metric("drain_moves_total", "Chunks evacuated off drained OSDs.",
           column="drain moves", fmt=".0f", scenario="topology"),
    # Redundant runs.
    Metric("redundancy", "Redundancy scheme, as a canonical spec."),
    Metric("redundancy_group_width", "OSDs one placement group spans."),
    Metric("reconstruction_chunks_total", "Chunks rebuilt from group survivors.",
           "counter", "reconstruction_chunks"),
    Metric("reconstruction_reads_total", "Surviving-chunk reads for rebuilds.",
           "counter", "reconstruction_reads",
           column="recon reads", fmt=".0f", scenario="redundancy"),
    Metric("reconstruction_read_mb", "Data read for rebuilds, MB.",
           "gauge", "reconstruction_read_megabytes"),
    Metric("reconstruction_write_mb", "Data rewritten by rebuilds, MB.",
           "gauge", "reconstruction_write_megabytes",
           column="recon MB", fmt=".0f", scenario="redundancy"),
    Metric("data_loss_chunks_total", "Chunks whose group lacked enough survivors to rebuild.",
           "counter", "data_loss_chunks", column="lost chunks", fmt=".0f", scenario="redundancy"),
    # The per-OSD vector: one osd-labelled sample per OSD.
    Metric("per_osd_wear", "Erase count per OSD at end of run.", "gauge", "osd_wear"),
)

#: Every catalogued key.
KEYS = frozenset(m.key for m in METRICS)

#: The rows the report shows, in column order.
COLUMNS = tuple(m for m in METRICS if m.column)
