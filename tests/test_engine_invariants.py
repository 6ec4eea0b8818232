"""Migration invariants: no chunk lost or duplicated, wear only grows."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import make_state
from edm.engine.core import apply_migrations, simulate
from edm.engine.state import OSD_COLUMNS, ClusterState, init_state


def test_osd_columns_are_the_per_osd_fields():
    # __post_init__, grow and validate iterate the table, so an osd_* field
    # outside it would neither start filled nor grow with the cluster.
    assert set(OSD_COLUMNS) == {f.name for f in fields(ClusterState) if f.name.startswith("osd_")}


def test_grow_fills_each_column(small_cfg):
    state = make_state(small_cfg)
    n0 = state.num_osds
    state.grow(2, osd_capacity=0.5, osd_rated_life=None)
    assert state.num_osds == n0 + 2
    for name, fill in OSD_COLUMNS.items():
        col = getattr(state, name)
        assert col.dtype == np.asarray(fill).dtype, name
        assert (col[n0:] == (0.5 if name == "osd_capacity" else fill)).all(), name
    state.validate()
    with pytest.raises(TypeError, match="osd_speed"):
        state.grow(1, osd_speed=2.0)


@pytest.mark.parametrize("name", OSD_COLUMNS)
def test_validate_checks_every_column_width(small_cfg, name):
    state = make_state(small_cfg)
    setattr(state, name, getattr(state, name)[:-1])
    with pytest.raises(AssertionError, match=f"{name} width"):
        state.validate()


@pytest.mark.parametrize("policy", ["baseline", "cdf", "hdf", "cmt"])
def test_full_run_conserves_chunks(policy, make_cfg):
    cfg = make_cfg(policy=policy)
    metrics = simulate(cfg)
    # The owner map is total by construction; simulate() also runs
    # state.validate().  Check the run actually happened.
    assert metrics["epochs"] == cfg.epochs
    assert metrics["total_requests"] >= cfg.epochs * 1
    if policy == "baseline":
        assert metrics["migrations_total"] == 0
    assert metrics["migration_cost_mb"] == metrics["migrations_total"] * cfg.chunk_size_mb


def test_apply_migrations_dedups_and_validates(small_cfg):
    cfg = small_cfg
    state = make_state(cfg)
    owner_before = state.chunk_owner.copy()
    moves = np.array(
        [
            [0, 3],    # valid
            [0, 1],    # duplicate chunk -> dropped, first wins
            [5, 99],   # dst out of range -> dropped
            [-1, 2],   # chunk out of range -> dropped
            [9, 1],    # no-op: chunk 9 already on OSD 1
            [10, 2],   # valid
        ]
    )
    applied = apply_migrations(state, moves, cfg)
    assert applied == 2
    assert state.chunk_owner[0] == 3
    assert state.chunk_owner[10] == 2
    assert state.migrations_total == 2
    # Every chunk still owned exactly once, all owners valid.
    state.validate()
    assert np.bincount(state.chunk_owner, minlength=cfg.num_osds).sum() == cfg.num_chunks
    # Untouched chunks kept their owner.
    untouched = np.setdiff1d(np.arange(cfg.num_chunks), [0, 10])
    assert (state.chunk_owner[untouched] == owner_before[untouched]).all()


def test_apply_migrations_charges_destination_wear(small_cfg):
    cfg = small_cfg
    state = make_state(cfg)
    apply_migrations(state, np.array([[0, 3]]), cfg)
    assert state.osd_wear[3] == cfg.migration_write_cost * cfg.wear_per_write
    assert state.osd_wear[:3].sum() == 0


def test_apply_migrations_duplicate_destination_charges_per_move(small_cfg):
    """Two chunks landing on the same OSD charge migration wear twice, not once."""
    cfg = small_cfg
    state = make_state(cfg)
    applied = apply_migrations(state, np.array([[0, 3], [8, 3]]), cfg)
    assert applied == 2
    per_move = cfg.migration_write_cost * cfg.wear_per_write
    assert state.osd_wear[3] == pytest.approx(2 * per_move)
    assert state.osd_wear[:3].sum() == 0


def test_apply_migrations_dropped_moves_charge_no_wear(small_cfg):
    """Duplicates, out-of-range moves, and no-ops must not leave wear behind."""
    cfg = small_cfg
    state = make_state(cfg)
    moves = np.array(
        [
            [0, 3],    # valid -> charged
            [0, 2],    # duplicate chunk -> dropped, no charge on OSD 2
            [5, 99],   # dst out of range -> dropped
            [-1, 2],   # chunk out of range -> dropped
            [9, 1],    # no-op (already on OSD 1) -> dropped
        ]
    )
    applied = apply_migrations(state, moves, cfg)
    assert applied == 1
    per_move = cfg.migration_write_cost * cfg.wear_per_write
    assert state.osd_wear.sum() == pytest.approx(per_move)
    assert state.osd_wear[3] == pytest.approx(per_move)


def test_migrate_interval_longer_than_run(small_cfg, make_cfg):
    """An interval past the horizon means zero migrations, finite metrics."""
    cfg = make_cfg(migrate_interval=small_cfg.epochs * 4)
    metrics = simulate(cfg)
    assert metrics["epochs"] == cfg.epochs
    assert metrics["migrations_total"] == 0
    assert np.isfinite(metrics["load_cov_mean"])
    assert np.isfinite(metrics["wear_cov"])


def test_single_epoch_run(make_cfg):
    """epochs=1 is the smallest legal run and must finalize cleanly."""
    cfg = make_cfg(epochs=1)
    metrics = simulate(cfg)
    assert metrics["epochs"] == 1
    assert np.isfinite(metrics["load_cov_mean"])


def test_empty_moves_is_noop(small_cfg):
    state = make_state(small_cfg)
    assert apply_migrations(state, np.empty((0, 2)), small_cfg) == 0
    assert state.migrations_total == 0


def test_wear_monotone_and_positive(small_cfg):
    metrics = simulate(small_cfg)
    wear = np.array(metrics["per_osd_wear"])
    assert (wear >= 0).all()
    assert wear.sum() > 0
    assert metrics["wear_max"] >= metrics["wear_min"] >= 0


def test_init_state_round_robin_blocks(small_cfg):
    state = init_state(small_cfg)
    counts = np.bincount(state.chunk_owner, minlength=small_cfg.num_osds)
    assert (counts == small_cfg.chunks_per_osd).all()


def test_never_migrated_sentinel_clears_cooldown_at_epoch_zero(make_cfg):
    """The chunk_last_migrated sentinel is -(10**9) -- far enough in the
    past that every chunk is migration-eligible at epoch 0 under any sane
    cooldown, without the int64-overflow risk a -inf-style minimum would
    carry in the ``epoch - last_migrated`` subtraction."""
    cfg = make_cfg(migration_cooldown_epochs=10**6)
    state = init_state(cfg)
    assert (state.chunk_last_migrated == -(10**9)).all()
    assert state.epoch == 0
    assert state.eligible_mask(cfg).all()
    # The subtraction stays far from int64 limits even at the last epoch.
    ages = state.epoch + cfg.epochs - state.chunk_last_migrated
    assert (ages < np.iinfo(np.int64).max // 2).all()
