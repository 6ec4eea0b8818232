"""Runtime observability: tracing, structured run logs, decision provenance.

Three pillars, all off the hot path by default:

* :mod:`edm.obs.trace` -- :class:`Tracer` span timing (context manager +
  decorator, monotonic clocks, nested spans); :data:`NULL_TRACER` is the
  always-off default the engine and sweep instrument against.
  :mod:`edm.obs.trace_export` turns a run log's ``span`` records into
  Chrome/Perfetto ``trace_event`` JSON timelines.
* :mod:`edm.obs.runlog` -- the one JSONL run log (:class:`RunLogWriter`,
  :func:`read_run_log`, :func:`validate_record`): one ``run_start``/``run_end``
  pair per config emitted from inside workers, with its fault, topology,
  service, decision and span records, plus sweep-level records.
* :mod:`edm.obs.decisions` -- migration decision provenance: per-pick score
  decompositions captured by :class:`DecisionRecorder`, written as the run
  log's ``decision`` records and queried by ``edm explain``.

Plus :mod:`edm.obs.log` (the package logger behind ``-v``/``--log-level``)
and :mod:`edm.obs.progress` (the live sweep progress line).
"""

from edm.obs.decisions import (
    Decision,
    DecisionRecorder,
    attribution_summary,
    query_decisions,
)
from edm.obs.log import configure as configure_logging
from edm.obs.log import get_logger
from edm.obs.progress import ProgressLine
from edm.obs.runlog import (
    RUNLOG_SCHEMA_VERSION,
    RunLogWriter,
    new_id,
    read_run_log,
    validate_record,
)
from edm.obs.trace import NULL_TRACER, NullTracer, Tracer
from edm.obs.trace_export import export_chrome_trace, to_chrome_trace

__all__ = [
    "Decision",
    "DecisionRecorder",
    "NULL_TRACER",
    "NullTracer",
    "ProgressLine",
    "RUNLOG_SCHEMA_VERSION",
    "RunLogWriter",
    "Tracer",
    "attribution_summary",
    "configure_logging",
    "export_chrome_trace",
    "get_logger",
    "new_id",
    "query_decisions",
    "read_run_log",
    "to_chrome_trace",
    "validate_record",
]
