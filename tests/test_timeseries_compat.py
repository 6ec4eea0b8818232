"""TimeSeries format compatibility: a file written in the current format
round-trips through save -> load exactly, every column and the meta.  Files
in an older format are rejected (see ``test_npz_missing_column_rejected`` in
``test_telemetry.py``)."""

import numpy as np
import pytest

from edm.engine.core import simulate
from edm.telemetry import SERIES_FORMAT_VERSION, TimeSeries, TimeSeriesRecorder
from edm.telemetry.timeseries import _ARRAY_FIELDS


@pytest.fixture
def live_series(small_cfg):
    """A series written by the current engine."""
    rec = TimeSeriesRecorder(record_every=4)
    simulate(small_cfg, recorders=(rec,))
    return rec.series


def test_current_format_file_round_trips_exactly(tmp_path, live_series):
    assert live_series.meta["format_version"] == SERIES_FORMAT_VERSION
    loaded = TimeSeries.load_npz(live_series.save_npz(tmp_path / "v5.npz"))
    assert loaded.meta == live_series.meta
    for name in _ARRAY_FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(live_series, name)), name
