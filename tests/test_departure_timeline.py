"""Seeded departure-timeline property test.

About 200 plans on 4-12 OSDs draw ``fail`` / ``slow`` / ``hiccup`` faults,
``add`` / ``drain`` topology events and sometimes a ``pe:`` rating, on
plain, ``rep:3`` and ``ec:4+2`` clusters.  Every draw is structurally
valid for its grammar (ids in range, no OSD failed or drained twice, no
group wider than the cluster), so only the config-time dry run of the
compiled timeline can reject one.  Every config it accepts must run to the
end, and its alive count must never fall below the survivor floor --
wear-outs included, which the dry run cannot foresee.

The rejection count is pinned: a dry run that grows stricter or looser
shows here first.  So is a digest of every accepted run's fired events.
"""

import hashlib
import json

import numpy as np
import pytest

from edm.config import POLICIES, WORKLOADS, SimConfig
from edm.engine import core
from edm.engine.core import simulate
from edm.faults import FaultPlan, Timeline
from edm.redundancy import RedundancyScheme
from edm.spec import SpecError
from edm.telemetry import Recorder, TimeSeriesRecorder
from edm.telemetry.timeseries import _ARRAY_FIELDS
from edm.topology import TopologyPlan

SIZING = dict(epochs=24, requests_per_epoch=512, chunks_per_osd=6)
PLANS = 200
ENDURANCE = ("", "", "pe:120", "pe:90@0-1,100000@2-3")


def draw_plans(count=PLANS, seed=20261019):
    """``count`` seeded SimConfig keyword dicts, each one plan."""
    rng = np.random.default_rng(seed)
    plans = []
    for _ in range(count):
        n = int(rng.integers(4, 13))
        schemes = ("", "rep:3", "ec:4+2") if n >= 6 else ("", "rep:3")
        epochs = SIZING["epochs"]
        faults, topology = [], []
        failed, drained = set(), set()
        grown = []  # (epoch, count) of every add so far
        for _ in range(int(rng.integers(1, 7))):
            kind = ("fail", "slow", "hiccup", "add", "drain")[int(rng.integers(5))]
            epoch = int(rng.integers(0, epochs))
            if kind == "add":
                count = int(rng.integers(1, 3))
                grown.append((epoch, count))
                topology.append(f"add:{count}@{epoch}")
            elif kind == "drain":
                # Any id that exists by the drain's epoch, drained once.
                width = n + sum(c for e, c in grown if e <= epoch)
                osd = int(rng.integers(width))
                if osd not in drained:
                    drained.add(osd)
                    topology.append(f"drain:{osd}@{epoch}")
            else:
                osd = int(rng.integers(n))
                if kind == "fail" and osd not in failed and len(failed) + 1 < n:
                    failed.add(osd)
                    faults.append(f"fail:{osd}@{epoch}")
                elif kind == "slow":
                    faults.append(f"slow:{osd}@{epoch}x0.5")
                elif kind == "hiccup":
                    dur = int(rng.integers(1, 6))
                    faults.append(f"hiccup:{osd}@{epoch}+{dur}x0.25")
        endurance = ENDURANCE[int(rng.integers(len(ENDURANCE)))]
        plans.append(dict(
            num_osds=n,
            policy=POLICIES[int(rng.integers(len(POLICIES)))],
            workload=WORKLOADS[int(rng.integers(len(WORKLOADS)))],
            seed=int(rng.integers(1, 10_000)),
            redundancy=schemes[int(rng.integers(len(schemes)))],
            faults=";".join(faults),
            topology=";".join(topology),
            endurance=endurance.replace("2-3", f"2-{n - 1}"),
            **SIZING,
        ))
    return plans


def structurally_valid(kw):
    """Whether every grammar on its own accepts ``kw``'s specs."""
    n = kw["num_osds"]
    try:
        for grammar, name in ((FaultPlan, "faults"), (TopologyPlan, "topology"),
                              (RedundancyScheme, "redundancy")):
            grammar.parse(kw[name], num_osds=n)
    except SpecError:
        return False
    return True


class FiredEvents(Recorder):
    """Every fired departure-timeline event and the alive count per epoch."""

    def __init__(self):
        self.fired = []
        self.alive = []

    def on_event(self, state, event, moved):
        self.fired.append((event.epoch, event.kind, event.osd, moved))

    def on_block(self, state, block):
        self.alive += [int(block.alive.sum())] * len(block)

    def finalize(self, state, final_load):
        return None


def accepted(kw):
    """Whether config time accepts ``kw``."""
    try:
        SimConfig(**kw)
    except SpecError:
        return False
    return True


def run_plan(kw):
    """Run ``kw``; returns ``(fired, alive, survivor floor)``."""
    cfg = SimConfig(**kw)
    seen = FiredEvents()
    simulate(cfg, recorders=(seen,))
    return seen.fired, seen.alive, max(1, cfg.plans["redundancy"].group_width)


SAMPLE = [kw for kw in draw_plans() if structurally_valid(kw)]
ACCEPTED = [kw for kw in SAMPLE if accepted(kw)]

# Every accepted plan's fired (epoch, kind, osd, moved) sequence, hashed.
# The sequences match, event for event, those of the separate fault and
# topology runtimes this timeline replaced.
FIRED_DIGEST = "aafb68cdd2f09fbe8c65bb0dfd122686f0030a6af01c70a3f9c418152bc7b16d"


def test_sample_is_structurally_valid_and_covers_every_kind():
    assert len(SAMPLE) == PLANS
    specs = ";".join(kw["faults"] + ";" + kw["topology"] for kw in SAMPLE)
    for kind in ("fail:", "slow:", "hiccup:", "add:", "drain:"):
        assert kind in specs, kind
    assert {kw["redundancy"] for kw in SAMPLE} == {"", "rep:3", "ec:4+2"}
    assert any(kw["endurance"] for kw in SAMPLE)


def test_rejection_rate_is_pinned():
    rejected = [kw for kw in SAMPLE if kw not in ACCEPTED]
    assert len(rejected) == 13
    for kw in rejected:
        # Structurally valid draws: only the dry run's one shape rejects.
        with pytest.raises(SpecError, match=r"^fault plan '.*' and topology plan "
                           r"'.*' leave \d+ alive at epoch \d+, so '.*' would cross "
                           r"the survivor floor of \d+"):
            SimConfig(**kw)


@pytest.mark.parametrize("i", range(len(ACCEPTED)))
def test_accepted_plans_run_above_the_survivor_floor(i):
    fired, alive, floor = run_plan(ACCEPTED[i])
    assert len(alive) == SIZING["epochs"]
    assert min(alive) >= floor


def test_fired_sequences_are_pinned():
    fired = [run_plan(kw)[0] for kw in ACCEPTED]
    assert sum(map(len, fired)) == 1030
    assert hashlib.sha256(json.dumps(fired).encode()).hexdigest() == FIRED_DIGEST


# Every layer fires at epoch 4: the add and the drain, then the failure,
# hiccup and slow-down, then OSD 0's wear-out, whose rating it reaches then.
EVERY_LAYER = dict(
    num_osds=8, chunks_per_osd=8, epochs=24, requests_per_epoch=1024, seed=1,
    topology="add:2@4;drain:3@4", faults="slow:2@4x0.5;hiccup:4@4+3x0.25;fail:1@4",
    endurance="pe:800@0,100000@1-7",
)
LAYER_RANK = {"add": 0, "drain": 0, "fail": 1, "slow": 1, "hiccup": 1, "wearout": 2}
BURST_TRIGGER = {"fail": "fault", "wearout": "wearout", "drain": "drain"}


class EventMoveSpy(Recorder):
    """Checks each event's ``moved`` against the ``on_move`` batches that
    fired since the previous event or block."""

    def __init__(self):
        self.events = []   # (epoch, event, moved)
        self.batches = []  # (trigger, size) since the last event or block

    def on_move(self, state, chunks, src, dst, trigger):
        if trigger != "threshold":  # a migration round's batch is no event's
            self.batches.append((trigger, chunks.size))

    def on_event(self, state, event, moved):
        trigger = BURST_TRIGGER.get(event.kind)
        if trigger is None:
            assert moved == 0 and self.batches == [], event
        else:
            # An OSD that held no chunks moves none and fires no batch.
            assert self.batches == ([(trigger, moved)] if moved else []), event
        self.batches = []
        self.events.append((state.epoch, event, moved))

    def on_block(self, state, block):
        assert self.batches == []


def test_every_timeline_layer_reaches_on_event_once_in_order(monkeypatch):
    cfg = SimConfig(**EVERY_LAYER)  # before the spy: the dry run steps too
    fired, real = [], Timeline.step

    def step(self, state, epoch, layer, *before):
        events = real(self, state, epoch, layer, *before)
        fired.extend(events)
        return events

    monkeypatch.setattr(Timeline, "step", step)
    spy = EventMoveSpy()
    simulate(cfg, recorders=(spy,))
    # Each fired event reaches the hook once, in firing order ...
    assert len(spy.events) == len(fired)
    assert all(ev is want for (_, ev, _), want in zip(spy.events, fired))
    # ... which is layer order within an epoch.
    ranks = [(epoch, LAYER_RANK[ev.kind]) for epoch, ev, _ in spy.events]
    assert ranks == sorted(ranks)
    assert {ev.kind for _, ev, _ in spy.events} == set(LAYER_RANK)
    assert {rank for epoch, rank in ranks if epoch == 4} == {0, 1, 2}
    assert all(moved > 0 for _, ev, moved in spy.events if ev.kind in BURST_TRIGGER)


class Replay(Recorder):
    """A per-epoch twin: walks each block's rows one by one, keeping copies."""

    def on_run_start(self, cfg, state):
        self.epochs, self.rows, self.sizes = [], [], []

    def on_service(self, service):
        self.service = service

    def on_block(self, state, block):
        self.sizes.append(len(block))
        rows = zip(block.epochs, block.load, block.wear, block.requests, block.writes)
        for epoch, load, wear, requests, writes in rows:
            self.epochs.append(epoch)
            self.rows.append((load.tobytes(), wear.tobytes(), int(requests), int(writes)))


@pytest.mark.parametrize("kw", [
    EVERY_LAYER,
    # Wear-outs alone, at epochs no plan schedules.
    dict(num_osds=8, epochs=32, requests_per_epoch=512, seed=7, endurance="pe:900"),
], ids=["every-layer", "wearouts"])
def test_block_size_never_changes_a_run(kw, monkeypatch):
    """With a service model: blocks of 1, 3 and the default size give
    byte-identical metrics, time series and service epoch series, and a
    per-epoch twin sees every epoch once, in order, with the same rows."""
    cfg = SimConfig(**kw, service="rate:120;queue:64")
    runs = []
    for size in (1, 3, core.EPOCH_BLOCK):
        monkeypatch.setattr(core, "EPOCH_BLOCK", size)
        series, replay = TimeSeriesRecorder(record_every=1), Replay()
        metrics = simulate(cfg, recorders=(series, replay))
        assert replay.epochs == list(range(cfg.epochs))
        assert max(replay.sizes) == size
        runs.append((
            json.dumps(metrics),
            [getattr(series.series, k).tobytes() for k in _ARRAY_FIELDS],
            {k: v.tobytes() for k, v in replay.service.epoch_series().items()},
            replay.rows,
        ))
    assert runs[0] == runs[1] == runs[2]
    assert json.loads(runs[0][0])["wearouts_total"] > 0
