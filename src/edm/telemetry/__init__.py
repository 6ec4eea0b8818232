"""Telemetry: observer hooks, per-epoch time series, exporters, and figures.

The engine accepts any number of :class:`Recorder` observers; the built-in
:class:`TimeSeriesRecorder` captures the paper's longitudinal curves into a
:class:`TimeSeries` with ``.npz``/JSON/CSV exporters, and
:mod:`edm.telemetry.plots` renders the figures as SVG.  The package needs
only NumPy and reads one series format, the current one.
"""

from edm.telemetry.openmetrics import (
    MetricsRegistry,
    MetricsSnapshotRecorder,
    registry_from_metrics,
)
from edm.telemetry.recorder import EpochBlock, Recorder
from edm.telemetry.timeseries import SERIES_FORMAT_VERSION, TimeSeries, TimeSeriesRecorder

__all__ = [
    "EpochBlock",
    "MetricsRegistry",
    "MetricsSnapshotRecorder",
    "Recorder",
    "SERIES_FORMAT_VERSION",
    "TimeSeries",
    "TimeSeriesRecorder",
    "registry_from_metrics",
]
