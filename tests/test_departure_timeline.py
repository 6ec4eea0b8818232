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
from edm.engine.core import simulate
from edm.faults import FaultPlan
from edm.redundancy import RedundancyScheme
from edm.spec import SpecError
from edm.telemetry import Recorder
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

    def on_fault(self, state, event, moved):
        self.fired.append((event.epoch, event.kind, event.osd, moved))

    def on_topology(self, state, event, moved):
        self.fired.append((event.epoch, event.kind, event.osd, moved))

    def on_epoch(self, state, load, stats):
        self.alive.append(int(state.osd_alive.sum()))

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
