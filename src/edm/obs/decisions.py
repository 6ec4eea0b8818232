"""Decision provenance: why each migration landed where it did.

EDM's core claim is that CMT's blended load/wear scoring picks *better*
destinations than pure load balancing.  Aggregate outcomes (CoVs, wear
spread) show *that* it wins; this module records *why*: one
:class:`Decision` per destination pick -- interval migration, failure
re-placement, wear-out re-placement, or drain evacuation -- carrying the
winning OSD's
per-term score decomposition (CMT: load, wear, wear-out risk; the other
policies: projected load) and the full losing candidate set with scores.

The capture path is strictly opt-in: the engine only runs policies through
their explained selection when a recorder overrides
:meth:`~edm.telemetry.Recorder.on_decision`, and the explained path picks
bit-identically to the plain one (``tests/test_decisions.py`` pins both),
so an explained run's metrics equal an unexplained run's and unexplained
runs never leave the fused-kernel hot path.

:class:`DecisionRecorder` is the built-in sink: a bounded ring buffer
(oldest decisions evicted first) plus an optional ``emit`` callback that
streams each record the moment it fires -- ``edm run --explain --run-log
PATH`` binds it to the run log's ``decision`` records
(:mod:`edm.obs.runlog`, which checks them against :data:`DECISION_FIELDS`
and the cross-field rules here).  Query a written log back with
:func:`~edm.obs.read_run_log` and :func:`query_decisions` (the ``edm
explain`` CLI), and summarize which score term was *decisive* -- the term
that gave the winner its margin over the runner-up -- per policy with
:func:`attribution_summary`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from edm.telemetry.recorder import Recorder

#: What drove a destination pick.
TRIGGERS = ("threshold", "fault", "wearout", "drain")

#: Fields every serialized decision record must carry, with their types.
DECISION_FIELDS = {
    "epoch": int,
    "trigger": str,
    "policy": str,
    "chunk": int,
    "src": int,
    "dst": int,
    "candidates": list,
    "terms": dict,
    "scores": list,
}


@dataclass(frozen=True)
class Decision:
    """One destination pick: the winner, the losers, and the arithmetic.

    ``terms`` maps score-term names to per-candidate values aligned with
    ``candidates`` (lower total wins); ``scores`` is their left-to-right
    fold -- exactly what the policy argmin'd, so ``dst`` is always
    ``candidates[argmin(scores)]``.
    """

    epoch: int
    trigger: str  # "threshold" | "fault" | "wearout" | "drain"
    policy: str
    chunk: int
    src: int
    dst: int
    candidates: tuple[int, ...]
    terms: dict[str, tuple[float, ...]] = field(compare=False)
    scores: tuple[float, ...] = field(compare=False)

    def to_record(self) -> dict:
        """Serialize to the :data:`DECISION_FIELDS` of a ``decision`` record."""
        return {
            "epoch": self.epoch,
            "trigger": self.trigger,
            "policy": self.policy,
            "chunk": self.chunk,
            "src": self.src,
            "dst": self.dst,
            "candidates": list(self.candidates),
            "terms": {k: list(v) for k, v in self.terms.items()},
            "scores": list(self.scores),
        }


def winner_index(record: dict) -> int:
    """Index of the winning candidate within ``record["candidates"]``."""
    return record["candidates"].index(record["dst"])


def runner_up_index(record: dict) -> int | None:
    """Index of the best losing candidate, or None for a forced pick.

    The runner-up is the lowest-scored candidate other than the winner
    (first index on ties, matching argmin semantics).
    """
    scores = record["scores"]
    win = winner_index(record)
    best = None
    for i, s in enumerate(scores):
        if i == win:
            continue
        if best is None or s < scores[best]:
            best = i
    return best


def decisive_term(record: dict) -> str | None:
    """The score term that gave the winner its margin over the runner-up.

    For each term, the winner's *advantage* is ``term[runner_up] -
    term[winner]`` (positive when the term favored the winner); the decisive
    term is the one with the largest advantage -- remove it and the winner's
    lead shrinks the most.  Single-term policies always report that term
    ("load was decisive" is the honest answer for pure load balancing).
    Returns None for forced picks (a single candidate has no runner-up).
    """
    ru = runner_up_index(record)
    if ru is None:
        return None
    win = winner_index(record)
    best_name = None
    best_margin = None
    for name, vals in record["terms"].items():
        margin = vals[ru] - vals[win]
        if best_margin is None or margin > best_margin:
            best_name, best_margin = name, margin
    return best_name


def _check_decision(record: dict) -> list[str]:
    """Cross-field problems: the trigger, the lengths, and the winner."""
    problems: list[str] = []
    if record["trigger"] not in TRIGGERS:
        problems.append(f"unknown trigger {record['trigger']!r}")
    n = len(record["candidates"])
    if len(record["scores"]) != n:
        problems.append(f"scores length {len(record['scores'])} != candidates {n}")
    for name, vals in record["terms"].items():
        if len(vals) != n:
            problems.append(f"term {name!r} length {len(vals)} != candidates {n}")
    if not problems and record["dst"] not in record["candidates"]:
        problems.append(f"dst {record['dst']} not among candidates")
    return problems


class DecisionRecorder(Recorder):
    """Captures decisions into a bounded ring buffer and an optional sink.

    ``capacity`` bounds in-memory retention (oldest evicted first -- a
    million-epoch run cannot OOM the recorder); ``emit`` is called with
    every decision's record fields the moment it fires -- bound to a
    :class:`~edm.obs.RunLogWriter`'s ``decision`` records, even an
    interrupted run keeps its provenance on disk.  Attaching this recorder
    is what flips the engine onto the explained selection path.
    """

    def __init__(self, capacity: int = 4096, emit: Callable[..., object] | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.decisions: deque[Decision] = deque(maxlen=capacity)
        self.emit = emit
        self.total = 0  # all decisions seen, including ring-evicted ones

    def on_decision(self, state, decision: Decision) -> None:
        self.decisions.append(decision)
        self.total += 1
        if self.emit is not None:
            self.emit(**decision.to_record())

    def records(self) -> list[dict]:
        """The retained decisions, serialized (oldest first)."""
        return [d.to_record() for d in self.decisions]

    def attribution(self) -> dict:
        """Attribution summary over the retained decisions (see module docs)."""
        return attribution_summary(self.records())


def query_decisions(
    records: list[dict],
    chunk: int | None = None,
    osd: int | None = None,
    epoch: int | None = None,
    trigger: str | None = None,
    policy: str | None = None,
) -> list[dict]:
    """Filter decision records; ``osd`` matches source *or* destination."""
    out = []
    for r in records:
        if chunk is not None and r["chunk"] != chunk:
            continue
        if osd is not None and r["src"] != osd and r["dst"] != osd:
            continue
        if epoch is not None and r["epoch"] != epoch:
            continue
        if trigger is not None and r["trigger"] != trigger:
            continue
        if policy is not None and r["policy"] != policy:
            continue
        out.append(r)
    return out


def attribution_summary(records: list[dict]) -> dict:
    """Per-policy: how often each score term was the decisive one.

    Returns ``{policy: {"decisions": n, "forced": f, "decisive": {term:
    fraction}}}`` where fractions are over the non-forced decisions (picks
    with at least one losing candidate).  This is the paper's argument in
    one number: for CMT, the fraction of moves where ``wear`` (or
    ``wearout_risk``) -- not ``load`` -- determined the destination.
    """
    out: dict[str, dict] = {}
    for r in records:
        cell = out.setdefault(
            r["policy"], {"decisions": 0, "forced": 0, "counts": {}}
        )
        cell["decisions"] += 1
        term = decisive_term(r)
        if term is None:
            cell["forced"] += 1
        else:
            cell["counts"][term] = cell["counts"].get(term, 0) + 1
    for cell in out.values():
        contested = cell["decisions"] - cell["forced"]
        cell["decisive"] = {
            term: count / contested for term, count in sorted(cell["counts"].items())
        }
        del cell["counts"]
    return out


def format_decision(record: dict) -> str:
    """Human-readable per-decision breakdown (the ``edm explain`` output).

    One header line (who moved where, and why the round fired), then one
    line per candidate with every score term and the total, winner and
    runner-up marked.
    """
    win = winner_index(record)
    ru = runner_up_index(record)
    dterm = decisive_term(record)
    lines = [
        f"epoch {record['epoch']} [{record['trigger']}] {record['policy']}: "
        f"chunk {record['chunk']} osd {record['src']} -> osd {record['dst']}"
        + (f"  (decisive term: {dterm})" if dterm else "  (forced: sole candidate)")
    ]
    names = list(record["terms"])
    header = "    osd   " + "".join(f"{n:>14s}" for n in names) + f"{'total':>14s}"
    lines.append(header)
    for i, cand in enumerate(record["candidates"]):
        mark = "*" if i == win else ("~" if i == ru else " ")
        row = f"  {mark} {cand:<6d}"
        row += "".join(f"{record['terms'][n][i]:>14.6g}" for n in names)
        row += f"{record['scores'][i]:>14.6g}"
        lines.append(row)
    lines.append("  (* winner, ~ runner-up)")
    return "\n".join(lines)


def format_attribution(summary: dict) -> str:
    """Render :func:`attribution_summary` as aligned text lines."""
    lines = []
    for policy, cell in sorted(summary.items()):
        parts = [f"{policy}: {cell['decisions']} decisions"]
        if cell["forced"]:
            parts.append(f"{cell['forced']} forced")
        for term, frac in cell["decisive"].items():
            parts.append(f"{term} decisive {frac * 100:.1f}%")
        lines.append("  " + ", ".join(parts))
    return "\n".join(lines) if lines else "  (no decisions)"
