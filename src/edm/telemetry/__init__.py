"""Telemetry: observer hooks, per-epoch time series, exporters, and figures.

The engine accepts any number of :class:`Recorder` observers; the built-in
:class:`TimeSeriesRecorder` captures the paper's longitudinal curves into a
:class:`TimeSeries` with ``.npz``/JSON/CSV exporters,
:func:`openmetrics_text` renders a run's metrics as OpenMetrics text, and
:mod:`edm.telemetry.plots` renders the figures as SVG.  The package needs
only NumPy and reads one series format, the current one.
"""

from edm.telemetry.openmetrics import (
    MetricsSnapshotRecorder,
    openmetrics_text,
    write_openmetrics,
)
from edm.telemetry.recorder import EpochBlock, Recorder
from edm.telemetry.timeseries import SERIES_FORMAT_VERSION, TimeSeries, TimeSeriesRecorder

__all__ = [
    "EpochBlock",
    "MetricsSnapshotRecorder",
    "Recorder",
    "SERIES_FORMAT_VERSION",
    "TimeSeries",
    "TimeSeriesRecorder",
    "openmetrics_text",
    "write_openmetrics",
]
