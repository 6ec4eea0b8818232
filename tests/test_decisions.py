"""Decision provenance: explained picks, recorder sinks, attribution, CLI."""

import functools
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from conftest import cfg_factory, make_state
from edm.cli import main
from edm.engine.core import simulate
from edm.obs import RUNLOG_SCHEMA_VERSION, RunLogWriter, read_run_log, validate_record
from edm.obs.decisions import (
    Decision,
    DecisionRecorder,
    attribution_summary,
    decisive_term,
    format_attribution,
    format_decision,
    query_decisions,
    runner_up_index,
    winner_index,
)
from edm.policies import POLICIES, get_policy
from edm.policies.base import destination_picker, sum_terms

FAULTED_ENDURED = dict(faults="fail:1@12", endurance="pe:2000")


def logged(record: dict) -> dict:
    """A decision's fields as the run log's ``decision`` record."""
    return {
        "event": "decision", "schema": RUNLOG_SCHEMA_VERSION, "ts": 1.5,
        "sweep_id": "s", "pid": 1, "run_id": "r", "config": "c", **record,
    }


def decision_sink(path):
    """A DecisionRecorder ``emit`` bound to a run log's decision records."""
    return functools.partial(RunLogWriter(path).emit, "decision", run_id="r", config="c")


def crafted_state(cfg, rng_seed=7):
    """A mid-run state with uneven heat/wear so picks are non-trivial."""
    rng = np.random.default_rng(rng_seed)
    n, c = cfg.num_osds, cfg.num_chunks
    state = make_state(
        cfg,
        heat=rng.uniform(0.1, 3.0, size=c),
        wear=rng.uniform(0.0, 500.0, size=n),
        load_ema=rng.uniform(0.5, 2.0, size=n),
    )
    if cfg.endurance:
        # Finite rated budgets + varied wear rates => finite, varied
        # wear-out risk, so the risk term actually participates in scoring.
        state.osd_rated_life[:] = 2000.0
        state.osd_wear_rate[:] = np.linspace(1.0, 5.0, n)
    return state


# --- explained pick == plain pick, by construction ---------------------------


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("endurance", ["", "pe:2000"])
def test_explain_destination_matches_pick(policy_name, endurance):
    cfg = cfg_factory(policy="cmt", endurance=endurance)
    state = crafted_state(cfg)
    policy = get_policy(policy_name)
    rng = np.random.default_rng(3)
    for trial in range(20):
        k = int(rng.integers(1, cfg.num_osds + 1))
        candidates = rng.choice(cfg.num_osds, size=k, replace=False)
        keep = rng.random(k) < 0.7
        keep[int(rng.integers(k))] = True
        proj = rng.uniform(0.1, 4.0, size=cfg.num_osds)
        pick = destination_picker(policy, candidates, state, cfg)
        dst, terms, scores = pick(proj, keep)
        # Every candidate is scored; narrowed to ``keep`` (as the run's
        # emitter narrows a decision), they are the subset scorer's.
        want = policy.scorer(candidates[keep], state, cfg)(proj)
        assert list(terms) == list(want)
        for key in terms:
            np.testing.assert_array_equal(terms[key][keep], want[key])
        np.testing.assert_array_equal(scores[keep], sum_terms(want))
        assert dst == int(candidates[keep][np.argmin(scores[keep])])
        # The folded terms ARE the scores (left-to-right addition order).
        folded = None
        for term in terms.values():
            folded = term if folded is None else folded + term
        np.testing.assert_array_equal(folded, scores)


def explained_terms(policy, cfg, state):
    pick = destination_picker(policy, np.arange(cfg.num_osds), state, cfg)
    return pick(np.ones(cfg.num_osds), np.ones(cfg.num_osds, dtype=bool))[1]


def test_cmt_terms_include_wear_and_risk():
    cfg = cfg_factory(policy="cmt", endurance="pe:2000")
    terms = explained_terms(get_policy("cmt"), cfg, crafted_state(cfg))
    assert list(terms) == ["load", "wear", "wearout_risk"]


def test_unrated_cmt_has_no_risk_term():
    cfg = cfg_factory(policy="cmt")
    terms = explained_terms(get_policy("cmt"), cfg, crafted_state(cfg))
    assert list(terms) == ["load", "wear"]


# --- explained runs are bit-identical and capture every trigger --------------


def test_explained_run_metrics_bit_identical():
    cfg = cfg_factory(policy="cmt", **FAULTED_ENDURED)
    plain = simulate(cfg)
    rec = DecisionRecorder(capacity=100_000)
    explained = simulate(cfg, recorders=(rec,))
    assert explained == plain
    assert rec.total > 0


def test_explained_run_captures_all_triggers():
    cfg = cfg_factory(policy="cmt", num_osds=8, epochs=48, **FAULTED_ENDURED)
    rec = DecisionRecorder(capacity=100_000)
    simulate(cfg, recorders=(rec,))
    records = rec.records()
    triggers = {r["trigger"] for r in records}
    assert "threshold" in triggers
    assert triggers <= {"threshold", "fault", "wearout"}
    assert all(validate_record(logged(r)) == [] for r in records)
    assert all(r["policy"] == "cmt" for r in records)
    # Every record's dst is the argmin of its scores over its candidates.
    for r in records:
        assert r["dst"] == r["candidates"][int(np.argmin(r["scores"]))]


# sha256 of the sorted-key JSON of an all-trigger run's decision records.
ALL_TRIGGERS_DIGEST = "950b180a5b75835901edf330b834398076f880daa583ce76ace71cb9ce470440"


def test_all_trigger_decision_stream_pinned():
    # Scale-out, drain, failure and wear-outs in one run: every departure
    # event's re-placement burst, and the wear baseline of added drives.
    cfg = cfg_factory(
        policy="cmt", num_osds=8, epochs=48, topology="add:2@8;drain:5@20", **FAULTED_ENDURED
    )
    rec = DecisionRecorder(capacity=100_000)
    simulate(cfg, recorders=(rec,))
    records = rec.records()
    triggers = Counter(r["trigger"] for r in records)
    assert triggers == {"threshold": 35, "drain": 10, "wearout": 10, "fault": 7}
    # Decision records were stamped ``"schema": 1`` until they joined the
    # run log, which stamps every record itself; hashing with that stamp
    # put back keeps the digest pinned since before the move.
    blob = json.dumps([{"schema": 1, **r} for r in records], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == ALL_TRIGGERS_DIGEST


def test_unexplained_run_never_calls_hook():
    calls = []

    class Spy(DecisionRecorder):
        def on_decision(self, state, decision):
            calls.append(decision)

    # A recorder that does NOT override on_decision leaves the engine on the
    # plain path even when other recorders are attached.
    from edm.telemetry import Recorder

    cfg = cfg_factory(policy="cmt", faults="fail:1@12")
    simulate(cfg, recorders=(Recorder(),))
    assert calls == []  # nothing overrode the hook
    simulate(cfg, recorders=(Spy(),))
    assert calls  # overriding is what opts in


def test_fault_replacement_decisions_name_dead_osd_as_src():
    cfg = cfg_factory(policy="cmt", num_osds=8, faults="fail:2@12")
    rec = DecisionRecorder(capacity=100_000)
    simulate(cfg, recorders=(rec,))
    fault_decisions = [r for r in rec.records() if r["trigger"] == "fault"]
    assert fault_decisions
    assert all(r["src"] == 2 for r in fault_decisions)
    assert all(r["epoch"] == 12 for r in fault_decisions)
    assert all(2 not in r["candidates"] for r in fault_decisions)


# --- recorder sinks ----------------------------------------------------------


def fake_decision(epoch=3, chunk=7, dst=1, scores=(0.5, 0.2, 0.9)):
    candidates = tuple(range(len(scores)))
    return Decision(
        epoch=epoch,
        trigger="threshold",
        policy="cmt",
        chunk=chunk,
        src=0,
        dst=dst,
        candidates=candidates,
        terms={"load": scores},
        scores=scores,
    )


def test_ring_buffer_bounds_memory():
    rec = DecisionRecorder(capacity=10)
    for i in range(25):
        rec.on_decision(None, fake_decision(epoch=i))
    assert rec.total == 25
    assert len(rec.decisions) == 10
    assert [d.epoch for d in rec.decisions] == list(range(15, 25))


def test_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        DecisionRecorder(capacity=0)


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "dec.jsonl"
    rec = DecisionRecorder(capacity=2, emit=decision_sink(path))  # ring smaller than stream
    for i in range(5):
        rec.on_decision(None, fake_decision(epoch=i))
    records = read_run_log(path)
    assert len(records) == 5  # the file keeps everything the ring evicted
    assert [r["epoch"] for r in records] == list(range(5))
    assert all(r["event"] == "decision" for r in records)
    assert all(r["schema"] == RUNLOG_SCHEMA_VERSION for r in records)
    assert [{k: r[k] for k in rec.records()[0]} for r in records[-2:]] == rec.records()


def test_read_decision_log_strictness(tmp_path):
    path = tmp_path / "dec.jsonl"
    DecisionRecorder(emit=decision_sink(path)).on_decision(None, fake_decision())
    with open(path, "a") as f:
        f.write("{broken\n")
        newer = logged(fake_decision().to_record())
        newer["schema"] = RUNLOG_SCHEMA_VERSION + 1
        f.write(json.dumps(newer) + "\n")
    with pytest.raises(ValueError, match="not JSON"):
        read_run_log(path)
    # Forward compat: bad lines and newer-schema records skip, old ones load.
    assert len(read_run_log(path, strict=False)) == 1


def test_validate_decision_flags_problems():
    good = logged(fake_decision().to_record())
    assert validate_record(good) == []
    assert validate_record([]) == ["record is list, not dict"]
    missing = {k: v for k, v in good.items() if k != "trigger"}
    assert any("trigger" in p for p in validate_record(missing))
    assert validate_record({**good, "schema": "2"}) == ["decision: schema '2' is not an int"]
    assert any(
        "newer" in p
        for p in validate_record({**good, "schema": RUNLOG_SCHEMA_VERSION + 1})
    )
    assert any("chunk is not an int" in p for p in validate_record({**good, "chunk": 1.5}))
    assert any("unknown trigger" in p for p in validate_record({**good, "trigger": "x"}))
    assert any("length" in p for p in validate_record({**good, "scores": [1.0]}))
    assert any("not among" in p for p in validate_record({**good, "dst": 99}))


# --- query / attribution -----------------------------------------------------


def test_query_filters_and_osd_matches_src_or_dst():
    records = [fake_decision(epoch=e, chunk=c).to_record() for e, c in [(1, 5), (2, 6)]]
    assert len(query_decisions(records, epoch=1)) == 1
    assert len(query_decisions(records, chunk=6)) == 1
    assert len(query_decisions(records, osd=0)) == 2  # src of both
    assert len(query_decisions(records, osd=1)) == 2  # dst of both
    assert query_decisions(records, trigger="fault") == []
    assert len(query_decisions(records, policy="cmt")) == 2


def test_winner_runner_up_and_decisive_term():
    r = Decision(
        epoch=0, trigger="threshold", policy="cmt", chunk=0, src=3, dst=1,
        candidates=(0, 1, 2),
        terms={"load": (0.30, 0.25, 0.20), "wear": (0.10, 0.05, 0.30)},
        scores=(0.40, 0.30, 0.50),
    ).to_record()
    assert winner_index(r) == 1
    assert runner_up_index(r) == 0
    # Winner beat the runner-up on load by 0.05 and wear by 0.05... make wear
    # decisive by construction: advantage load=0.05, wear=0.05 -> first max
    # wins (load).  Flip the wear gap to be larger:
    r["terms"]["wear"] = [0.20, 0.05, 0.30]
    assert decisive_term(r) == "wear"
    forced = fake_decision(scores=(0.5,)).to_record()
    forced["dst"] = 0
    assert runner_up_index(forced) is None
    assert decisive_term(forced) is None


def test_attribution_summary_fractions():
    records = []
    # Two contested decisions decided by load, one forced.
    for scores in [(0.1, 0.9), (0.2, 0.8)]:
        records.append(fake_decision(dst=0, scores=scores).to_record())
    records.append(fake_decision(dst=0, scores=(0.5,)).to_record())
    summary = attribution_summary(records)
    assert summary["cmt"]["decisions"] == 3
    assert summary["cmt"]["forced"] == 1
    assert summary["cmt"]["decisive"] == {"load": 1.0}
    text = format_attribution(summary)
    assert "cmt: 3 decisions" in text and "load decisive 100.0%" in text
    assert format_attribution({}) == "  (no decisions)"


def test_format_decision_marks_winner_and_runner_up():
    text = format_decision(fake_decision().to_record())
    assert "chunk 7 osd 0 -> osd 1" in text
    assert "decisive term: load" in text
    lines = text.splitlines()
    assert any(line.startswith("  * 1") for line in lines)
    assert any(line.startswith("  ~ 0") for line in lines)


# --- CLI ---------------------------------------------------------------------


def run_args(**kw):
    args = [
        "run", "--workload", "deasna", "--osds", "8", "--policy", "cmt",
        "--epochs", "48", "--requests", "1024",
        "--faults", "fail:1@16", "--endurance", "pe:20000",
    ]
    for flag, val in kw.items():
        args.append(f"--{flag.replace('_', '-')}")
        if val is not True:
            args.append(str(val))
    return args


def test_run_explain_bare_prints_attribution(capsys):
    assert main(run_args() + ["--explain"]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays pure metrics JSON
    assert "decision attribution" in captured.err
    assert "cmt:" in captured.err


def test_run_explain_path_then_explain_cli(tmp_path, capsys):
    """Acceptance: `edm explain --chunk C --epoch E log` prints the winning
    destination's per-term decomposition and the runner-up candidates."""
    log = tmp_path / "runs.jsonl"
    assert main(run_args(explain=True, run_log=log)) == 0
    capsys.readouterr()
    records = [r for r in read_run_log(log) if r["event"] == "decision"]
    fault = next(r for r in records if r["trigger"] == "fault" and len(r["candidates"]) > 1)
    assert (
        main(["explain", str(log), "--chunk", str(fault["chunk"]), "--epoch", str(fault["epoch"])])
        == 0
    )
    out = capsys.readouterr().out
    assert f"chunk {fault['chunk']} osd {fault['src']} -> osd {fault['dst']}" in out
    for term in fault["terms"]:
        assert term in out  # per-term decomposition columns
    assert "* winner, ~ runner-up" in out
    assert "decisions matched" in out


def test_explain_cli_summary_and_limit(tmp_path, capsys):
    log = tmp_path / "runs.jsonl"
    assert main(run_args(explain=True, run_log=log)) == 0
    capsys.readouterr()
    assert main(["explain", str(log), "--summary"]) == 0
    out = capsys.readouterr().out
    assert "epoch" not in out.splitlines()[0]  # no per-decision dumps
    assert main(["explain", str(log), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "more decisions (raise --limit)" in out


def test_explain_cli_empty_log_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["explain", str(empty)]) == 1
