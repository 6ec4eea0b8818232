"""Simulation configuration and content hashing.

A SimConfig fully determines a simulation run: identical configs produce
bit-identical metrics.  ``config_hash`` is the content key used by the
result cache -- any field change (or an engine format bump) invalidates
previously cached pickles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

# Bump when the engine's semantics or the metrics format change, so stale
# cached results from older engines are never returned.
# 2: observer-hook engine API; policy aliases canonicalized before hashing.
# 3: fault injection (``faults`` field, alive/capacity state) and CMT
#    destination scoring normalized by cluster-wide scales.
# 4: endurance model (``endurance`` field, rated-lifetime / wear-rate state,
#    wear-out failures) and CMT's predicted-wear-out destination term.
# 5: request-level service model (``service`` field, queue/latency state,
#    tail-latency metrics block).  Metrics-format change only: unserviced
#    configs compute bit-identical values, re-keyed so old cache entries
#    without the latency block are never returned.
ENGINE_VERSION = 5

# Version of the *seed material* fed to rng_seed_sequence.  Deliberately
# decoupled from ENGINE_VERSION: bumping the cache format must not reseed
# every workload stream, or results silently change across engine releases.
# Frozen at 2 so fault-free configs draw the exact streams they always have;
# bump only to intentionally re-randomize every workload.
SEED_SCHEMA_VERSION = 2

# The fields that make up the seed material: exactly what
# SEED_SCHEMA_VERSION=2 hashed, so a field added to SimConfig stays out of
# the traffic seed unless it is listed here (which re-seeds every workload).
# None of the fields added since -- fault scenarios, the endurance, service,
# topology and redundancy models and their knobs -- describe the *traffic*:
# a degraded, rated, serviced, elastic or redundant cluster replays exactly
# the plain run's request stream.  ``policy`` and the migration knobs do not
# describe the traffic either, but dropping them re-seeds every workload, so
# that waits for a deliberate SEED_SCHEMA_VERSION bump.
SEED_FIELDS = (
    "workload", "num_osds", "policy", "skew", "seed",
    "epochs", "requests_per_epoch", "chunks_per_osd",
    "heat_alpha", "load_alpha",
    "wear_per_write", "migration_write_cost", "chunk_size_mb",
    "migrate_interval", "overload_tolerance", "max_migrations_per_interval",
    "migration_cooldown_epochs", "wear_weight",
)

# The scenario spec fields, in parse, cache-name and report order, with the
# tag that prefixes each one's digest in ``SimConfig.cache_name`` and the
# label ``edm report`` prints for an empty spec.
SCENARIO_FIELDS = (
    ("faults", "f", "healthy"),
    ("endurance", "e", "unrated"),
    ("service", "q", "untimed"),
    ("topology", "t", "static"),
    ("redundancy", "g", "plain"),
)

WORKLOADS = ("deasna", "deasna2", "lair62", "lair62b")
# Canonical policy names.  Kept as a literal tuple (the config layer cannot
# import edm.policies -- policies import this module); the registry in
# edm.policies asserts at import time that its classes match this list, and
# tests/test_policies.py pins the two against each other.
POLICIES = ("baseline", "cdf", "hdf", "cmt", "pswl", "consolidate")

# Accepted spellings for canonical policy names.  Aliases are resolved before
# validation and hashing, so SimConfig(policy="edm") and policy="cmt" are the
# same config (and hit the same cache entry).
POLICY_ALIASES = {"edm": "cmt"}


@dataclass(frozen=True)
class SimConfig:
    """One simulation configuration.

    The first five fields mirror the cache-key filename
    ``<workload>-<N>osd-<policy>-s<skew>-r<seed>.pkl``; the rest are engine
    knobs with defaults sized so a full 64-config sweep stays well under a
    minute on one core.  ``plans``, an attribute rather than a field, maps
    each :data:`SCENARIO_FIELDS` name to its parsed spec, and
    ``"timeline"`` to the compiled departure timeline
    (:func:`edm.faults.compile_timeline`).
    """

    workload: str = "deasna"
    num_osds: int = 16
    policy: str = "cmt"
    skew: float = 0.02
    seed: int = 12345

    # Engine sizing
    epochs: int = 256
    requests_per_epoch: int = 8192
    chunks_per_osd: int = 64

    # Heat / load tracking (exponential moving averages)
    heat_alpha: float = 0.3
    load_alpha: float = 0.5

    # Wear model: each write costs this many erase-count units; migrating a
    # chunk rewrites it wholesale on the destination SSD.
    wear_per_write: float = 1.0
    migration_write_cost: float = 64.0
    chunk_size_mb: float = 64.0

    # Migration policy knobs
    migrate_interval: int = 8
    overload_tolerance: float = 0.05
    max_migrations_per_interval: int = 8
    migration_cooldown_epochs: int = 16
    wear_weight: float = 1.0

    # Fault scenario: empty string = healthy cluster.  Parsed and
    # canonicalized by edm.faults.plan (e.g. "fail:3@100;slow:5@50x0.5"), so
    # equivalent spellings hash to the same cache entry.  The spec never
    # feeds the workload RNG: faulted and healthy runs see identical traffic.
    faults: str = ""

    # Endurance model: empty string = unlimited rated lifetime.  Parsed and
    # canonicalized by edm.endurance.spec (e.g. "pe:5000" or
    # "pe:3000@0-3,10000@4-7"); an OSD whose consumed cycles reach its rating
    # fails at the next epoch boundary.  Like ``faults``, the spec never
    # feeds the workload RNG.
    endurance: str = ""
    # EWMA smoothing for the per-OSD wear rate that drives epochs-to-wear-out
    # prediction, and the weight of that predicted-wear-out term in CMT's
    # destination score (0 disables the term).
    wear_rate_alpha: float = 0.3
    endurance_weight: float = 1.0

    # Service model: empty string = no request-level timing (requests stay
    # pure units of load).  Parsed and canonicalized by edm.service.spec
    # (e.g. "rate:800;queue:64" or "rate:800;rate:400@0-3"); enables per-OSD
    # bounded queues and p50/p99/p999 latency metrics.  Like ``faults`` and
    # ``endurance``, the spec never feeds the workload RNG.
    service: str = ""
    # Request-equivalents of service time one migrated chunk charges to each
    # of its source and destination queues, and the window over which that
    # pending work drains into the queues (1/cooldown per epoch).
    service_migration_cost: float = 64.0
    service_cooldown_epochs: int = 8

    # Topology plan: empty string = static cluster.  Parsed and canonicalized
    # by edm.topology.spec (e.g. "add:4@128/cap:2,rate:1600,pe:10000" or
    # "drain:2@64"); scale-out grows the cluster at epoch boundaries with
    # cold drives of the given device class, drain evacuates and retires an
    # OSD through the policy's destination scoring.  Like ``faults``, the
    # spec never feeds the workload RNG: the chunk set -- and therefore the
    # traffic -- is fixed at the initial cluster size, so an elastic run
    # replays exactly the static run's request stream.
    topology: str = ""

    # Redundancy scheme: empty string = independent chunks.  Parsed and
    # canonicalized by edm.redundancy.spec (``rep:3`` / ``ec:4+2``);
    # consecutive chunks form placement groups whose members must live on
    # pairwise-distinct OSDs (round-robin initial layout instead of the
    # contiguous default), and a failed OSD's chunks are *reconstructed* --
    # surviving group members read, a fresh copy written -- instead of
    # merely re-placed.  Like ``faults``, the spec never feeds the workload
    # RNG: traffic is drawn per chunk, so a redundant run replays exactly
    # the plain run's request stream against a different layout.
    redundancy: str = ""

    def __post_init__(self) -> None:
        if self.policy in POLICY_ALIASES:
            object.__setattr__(self, "policy", POLICY_ALIASES[self.policy])
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}, expected one of {WORKLOADS}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}, expected one of {POLICIES} "
                f"or an alias in {sorted(POLICY_ALIASES)}"
            )
        if self.num_osds < 2:
            raise ValueError("num_osds must be >= 2")
        if self.epochs < 1:
            raise ValueError(
                f"epochs must be >= 1, got {self.epochs}: a zero-epoch run has no "
                "load vector to finalize and never drives observer hooks"
            )
        if self.requests_per_epoch < 1 or self.chunks_per_osd < 1:
            raise ValueError("requests_per_epoch and chunks_per_osd must be >= 1")
        if not 0.0 < self.heat_alpha <= 1.0:
            raise ValueError(f"heat_alpha must be in (0, 1], got {self.heat_alpha}")
        if not 0.0 < self.load_alpha <= 1.0:
            raise ValueError(f"load_alpha must be in (0, 1], got {self.load_alpha}")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if self.migrate_interval < 1:
            raise ValueError(f"migrate_interval must be >= 1, got {self.migrate_interval}")
        if self.max_migrations_per_interval < 1:
            raise ValueError(
                "max_migrations_per_interval must be >= 1, "
                f"got {self.max_migrations_per_interval}"
            )
        if not 0.0 < self.wear_rate_alpha <= 1.0:
            raise ValueError(f"wear_rate_alpha must be in (0, 1], got {self.wear_rate_alpha}")
        if self.endurance_weight < 0:
            raise ValueError(f"endurance_weight must be >= 0, got {self.endurance_weight}")
        if self.service_migration_cost < 0:
            raise ValueError(
                f"service_migration_cost must be >= 0, got {self.service_migration_cost}"
            )
        if self.service_cooldown_epochs < 1:
            raise ValueError(
                f"service_cooldown_epochs must be >= 1, got {self.service_cooldown_epochs}"
            )
        # Parse each scenario spec against the cluster size and store its
        # canonical string, so equivalent spellings hash alike.  Imported
        # here: edm.redundancy.runtime and edm.engine.state import this module.
        from edm.endurance import EnduranceModel
        from edm.engine.state import init_state
        from edm.faults import FaultEvent, FaultPlan, Timeline, compile_timeline, departure_room
        from edm.redundancy import RedundancyScheme
        from edm.service import ServiceModel
        from edm.spec import SpecError
        from edm.topology import TopologyPlan

        plans = {}
        for (name, _, _), parser in zip(
            SCENARIO_FIELDS,
            (FaultPlan, EnduranceModel, ServiceModel, TopologyPlan, RedundancyScheme),
        ):
            plans[name] = parser.parse(getattr(self, name), num_osds=self.num_osds)
            object.__setattr__(self, name, plans[name].spec)
        # Not a field: never hashed, compared or serialized by to_dict.
        object.__setattr__(self, "plans", plans)
        fault_plan, _, svc, topo_plan, _ = plans.values()
        if svc and svc.default is None:
            for ev in topo_plan.adds:
                if ev.rate is None:
                    raise SpecError(
                        f"topology event {TopologyPlan.render(ev)!r} adds OSDs "
                        f"with no service rate, and service spec "
                        f"{self.service!r} has no default rate band; "
                        f"give the add a 'rate:' attribute or add a "
                        f"default rate"
                    )
        # One dry run of the departure timeline rejects the first departure
        # the survivor floor refuses.  Wear-outs depend on traffic, so they
        # are the only departures the floor can still refuse at run time.
        plans["timeline"] = compile_timeline(fault_plan, topo_plan)

        def refuse(state, event):
            render = event.render() if isinstance(event, FaultEvent) else TopologyPlan.render(event)
            alive = state.survivor_floor + departure_room(state)
            needs = f" that redundancy scheme {self.redundancy!r} needs" if self.redundancy else ""
            raise SpecError(
                f"fault plan {self.faults!r} and topology plan {self.topology!r} "
                f"leave {alive} alive at epoch {event.epoch}, so {render!r} "
                f"would cross the survivor floor of {state.survivor_floor}{needs}"
            )

        if plans["timeline"]:
            Timeline(plans["timeline"], refuse=refuse).dry_run(init_state(self))

    @property
    def num_chunks(self) -> int:
        return self.num_osds * self.chunks_per_osd

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(**d)

    def cache_name(self) -> str:
        """Filename stem matching the historical .repro-cache key format.

        Each non-empty scenario spec appends its :data:`SCENARIO_FIELDS`
        tag and a short spec digest (``-f1a2b3c4`` for faults), so the same
        base config under different scenarios never collides on filename;
        configs with no scenario keep the historical stem byte-for-byte.
        """
        stem = f"{self.workload}-{self.num_osds}osd-{self.policy}-s{self.skew:g}-r{self.seed}"
        for name, tag, _ in SCENARIO_FIELDS:
            spec = getattr(self, name)
            if spec:
                stem += f"-{tag}{hashlib.sha256(spec.encode()).hexdigest()[:8]}"
        return stem


def config_hash(cfg: SimConfig) -> str:
    """Stable content hash of a config plus the engine version.

    An *empty* ``topology`` or ``redundancy`` is dropped from the
    payload: a static, plain config computes bit-identical metrics with or
    without the field, so introducing it must not invalidate any
    pre-existing cache entry.

    ``service_metrics_rev`` re-keys only serviced configs: revision 2 fixed
    the degraded-mode queue-depth aggregates (dead OSDs no longer counted as
    permanent zeros) and gave the latency histogram a dedicated overflow
    bin, so serviced cache entries written by the old accounting are never
    returned; unserviced configs are untouched.
    """
    payload = {"engine_version": ENGINE_VERSION, **cfg.to_dict()}
    if not payload.get("topology"):
        payload.pop("topology", None)
    if not payload.get("redundancy"):
        payload.pop("redundancy", None)
    if payload.get("service"):
        payload["service_metrics_rev"] = 2
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def seed_material_hash(cfg: SimConfig) -> str:
    """Stable hash of the fields that identify a config's workload streams.

    Unlike :func:`config_hash` (the cache key), this hashes only the
    fields in :data:`SEED_FIELDS` -- scenario layers degrade or time the
    *cluster*, never the traffic, so such runs replay exactly the plain
    run's request stream -- and pins :data:`SEED_SCHEMA_VERSION` instead of
    :data:`ENGINE_VERSION`, so engine format bumps don't silently reseed
    every workload.
    """
    payload = {"engine_version": SEED_SCHEMA_VERSION}
    payload.update((name, getattr(cfg, name)) for name in SEED_FIELDS)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def rng_seed_sequence(cfg: SimConfig):
    """Deterministic per-config seed material.

    Mixes the user seed with the config's seed-material hash so two configs
    sharing a seed (e.g. same seed, different policy) still draw distinct
    workload streams, while staying reproducible across processes and
    platforms.
    """
    import numpy as np

    digest = seed_material_hash(cfg)
    words = [int(digest[i : i + 8], 16) for i in range(0, 32, 8)]
    return np.random.SeedSequence([cfg.seed, *words])
