"""Campaign telemetry: partition-independence and the disabled path.

The acceptance bar from the redesign: a ``jobs=N`` campaign's merged
snapshot must be bit-identical to the serial run's in everything except
wall-clock timers, and with telemetry off nothing may be collected.
"""

from __future__ import annotations

import pytest

from repro.faults import CampaignResult, run_campaign
from repro.telemetry import Telemetry, sort_events, validate_event

from tests.conftest import figure1_setup, spec_for

THREADS = 4
INJECTIONS = 8
SEED = 2012


def _campaign(program, jobs):
    spec = spec_for(program, fault="flip", nthreads=THREADS,
                    injections=INJECTIONS, seed=SEED,
                    output_globals=("result",), telemetry=True)
    return run_campaign(spec, program=program,
                        setup=figure1_setup(THREADS), jobs=jobs)


@pytest.fixture(scope="module")
def serial_and_pooled(figure1_program):
    return _campaign(figure1_program, 1), _campaign(figure1_program, 4)


def test_partitioning_changes_only_timers(serial_and_pooled):
    serial, pooled = serial_and_pooled
    assert serial.stats == pooled.stats
    assert serial.telemetry.counters == pooled.telemetry.counters
    assert serial.telemetry.gauges == pooled.telemetry.gauges
    assert serial.telemetry.hists == pooled.telemetry.hists
    # Timers exist in both but carry wall-clock, so only names align.
    assert set(serial.telemetry.timers) <= set(pooled.telemetry.timers) | {
        "campaign.chunk_ns"}


def test_traces_are_record_identical(serial_and_pooled):
    serial, pooled = serial_and_pooled
    assert sort_events(serial.trace_events) == sort_events(pooled.trace_events)


def test_trace_is_schema_valid_and_complete(serial_and_pooled):
    serial, _ = serial_and_pooled
    events = serial.trace_events
    for event in events:
        validate_event(event)
    kinds = [e["kind"] for e in events]
    assert kinds.count("campaign_start") == 1
    assert kinds.count("campaign_end") == 1
    assert kinds.count("injection_start") == INJECTIONS
    assert kinds.count("injection_end") == INJECTIONS
    # Golden run + every injection each bracket a machine run.
    assert kinds.count("run_start") == INJECTIONS + 1
    assert kinds.count("run_end") == INJECTIONS + 1
    # Every event is seed-stamped and (inj, seq) keys are unique.
    keys = {(e["inj"], e["seq"]) for e in events}
    assert len(keys) == len(events)
    assert all("seed" in e for e in events)


def test_write_trace_roundtrip(serial_and_pooled, tmp_path):
    serial, _ = serial_and_pooled
    path = str(tmp_path / "campaign.jsonl")
    count = serial.write_trace(path)
    assert count == len(serial.trace_events)
    from repro.telemetry import read_trace
    assert read_trace(path) == sort_events(serial.trace_events)


def test_campaign_counters_cover_the_stack(serial_and_pooled):
    serial, _ = serial_and_pooled
    tel = serial.telemetry
    assert tel.counter("campaign.injections") == INJECTIONS
    outcome_total = sum(v for k, v in tel.counters.items()
                       if k.startswith("campaign.outcome."))
    assert outcome_total == INJECTIONS
    # Monitor + interpreter facts flowed into the same merged snapshot.
    assert tel.counter("interp.runs") == INJECTIONS + 1
    assert tel.counter("monitor.checks") > 0
    assert tel.counter("interp.steps") > 0


def test_disabled_campaign_collects_nothing(figure1_program):
    spec = spec_for(figure1_program, fault="flip", nthreads=THREADS,
                    injections=2, seed=SEED, output_globals=("result",))
    result = run_campaign(spec, program=figure1_program,
                          setup=figure1_setup(THREADS))
    assert isinstance(result, CampaignResult)
    assert result.telemetry is None
    assert result.trace_events == []
    with pytest.raises(ValueError, match="without telemetry"):
        result.write_trace("/tmp/never-written.jsonl")


def test_disabled_run_collects_nothing(figure1_program):
    result = figure1_program.run_protected(
        THREADS, seed=0, setup=figure1_setup(THREADS))
    assert result.telemetry is None


def test_enabled_run_snapshot_matches_result(figure1_program):
    tel = Telemetry(context={"inj": -1, "seed": 0})
    result = figure1_program.run_protected(
        THREADS, seed=0, setup=figure1_setup(THREADS), telemetry=tel)
    snap = result.telemetry
    assert snap is not None
    assert snap.counter("interp.steps") == result.steps
    assert snap.counter("interp.runs") == 1
    assert snap.gauge("interp.parallel_cycles") == int(result.parallel_time)
    kinds = [e["kind"] for e in snap.events]
    assert kinds == (["run_start"]
                     + ["thread_metrics"] * THREADS
                     + ["run_end"])
    metrics = [e for e in snap.events if e["kind"] == "thread_metrics"]
    assert [m["tid"] for m in metrics] == list(range(THREADS))
    assert sum(m["steps"] for m in metrics) == result.steps
    for m in metrics:
        assert m["cycles"] >= 0
        assert m["sync_wait"] >= 0
        assert m["queue_stall"] >= 0


def test_drain_time_holds_check_time_and_changes_no_count(figure1_program):
    """``monitor.drain_ns`` times the whole consumer side, so it holds
    every ``monitor.check_ns`` interval; timing it changes nothing the
    run counts."""
    setup = figure1_setup(THREADS)
    plain = figure1_program.run_protected(THREADS, seed=0, setup=setup)
    timed = figure1_program.run_protected(THREADS, seed=0, setup=setup,
                                          telemetry=Telemetry())
    snap = timed.telemetry
    checks = snap.timers["monitor.check_ns"][1]
    assert snap.timers["monitor.drain_ns"][1] >= checks > 0

    def facts(run):
        monitor = run.monitor
        return (run.steps, run.parallel_time, run.output_signature(),
                [str(v) for v in run.violations], monitor.messages_received,
                monitor.messages_processed, monitor.queue_pressure(),
                monitor.stats.instances_checked)

    assert facts(plain) == facts(timed)
    assert (snap.counter("monitor.messages_received"),
            snap.counter("monitor.messages_processed"),
            snap.counter("monitor.queue_full_events"),
            snap.counter("monitor.checks")) == (
        plain.monitor.messages_received, plain.monitor.messages_processed,
        plain.monitor.queue_pressure(), plain.monitor.stats.instances_checked)
