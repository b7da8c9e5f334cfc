"""Tests for the two-level branch table and the monitor protocol."""

from repro.analysis import Category
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.monitor import (
    BranchTable,
    ConditionMessage,
    MODE_FEED,
    MODE_FULL,
    Monitor,
    OutcomeMessage,
)


def make_info(static_id=0, kind="shared", **kwargs) -> CheckedBranchInfo:
    defaults = dict(static_id=static_id, function_name="f", block_name="b",
                    check_kind=kind, category=Category.SHARED)
    defaults.update(kwargs)
    return CheckedBranchInfo(**defaults)


KEY = ((), ())


def cond(info, tid, values=(), key=KEY) -> ConditionMessage:
    return ConditionMessage(info, tid, key, values)


def outcome(info, tid, taken=True, key=KEY) -> OutcomeMessage:
    return OutcomeMessage(info, tid, key, taken)


class TestBranchTable:
    def test_reports_merge_into_one_instance(self):
        table = BranchTable(2)
        info = make_info()
        e1 = table.file(cond(info, 0, (5,)))
        e2 = table.file(outcome(info, 0, True))
        e3 = table.file(cond(info, 1, (5,)))
        assert e1 is e2 is e3
        assert e1.values == {0: (5,), 1: (5,)}
        assert e1.outcomes == {0: True}

    def test_levels_separate_instances(self):
        table = BranchTable(2)
        info = make_info()
        a = table.file(outcome(info, 0, key=((1,), (0,))))
        b = table.file(outcome(info, 0, key=((2,), (0,))))   # call path
        c = table.file(outcome(info, 0, key=((1,), (1,))))   # loop iter
        d = table.file(outcome(make_info(static_id=9), 0, key=((1,), (0,))))
        assert len({id(x) for x in (a, b, c, d)}) == 4

    def test_occurrence_counter_separates_repeats(self):
        """Same (call path, static id, loop iters) executed twice by the
        same thread must produce two instances, aligned by occurrence."""
        table = BranchTable(2)
        info = make_info()
        first_t0 = table.file(outcome(info, 0, True))
        second_t0 = table.file(outcome(info, 0, False))
        first_t1 = table.file(outcome(info, 1, True))
        second_t1 = table.file(outcome(info, 1, False))
        assert first_t0 is first_t1
        assert second_t0 is second_t1
        assert first_t0 is not second_t0

    def test_completeness_countdown(self):
        """A branch instance completes after a condition and an outcome
        from every thread."""
        table = BranchTable(2)
        info = make_info()
        entry = table.file(cond(info, 0))
        assert entry.remaining == 3
        table.file(outcome(info, 0))
        table.file(cond(info, 1))
        assert entry.remaining == 1
        table.file(outcome(info, 1))
        assert entry.remaining == 0

    def test_store_check_completes_on_values_alone(self):
        """Store-value checks have no outcome message."""
        table = BranchTable(3)
        info = make_info(kind="store_shared")
        entry = table.file(cond(info, 0, (1,)))
        assert entry.remaining == 2
        table.file(cond(info, 1, (1,)))
        table.file(cond(info, 2, (1,)))
        assert entry.remaining == 0

    def test_discard_checked(self):
        table = BranchTable(2)
        info = make_info()
        entry = table.file(outcome(info, 0))
        entry.checked = True
        assert len(table) == 1
        assert table.discard_checked() == 1
        assert len(table) == 0


def make_monitor(nthreads=2, mode=MODE_FULL, capacity=64) -> Monitor:
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=capacity))
    return Monitor(metadata, nthreads, mode=mode)


def send_pair(monitor, info, tid, values, taken, key=KEY):
    assert monitor.try_send(tid, ConditionMessage(info, tid, key, values))
    assert monitor.try_send(tid, OutcomeMessage(info, tid, key, taken))


class TestMonitor:
    def test_clean_instance_checks_quietly(self):
        monitor = make_monitor()
        info = make_info()
        send_pair(monitor, info, 0, (5,), True)
        send_pair(monitor, info, 1, (5,), True)
        monitor.drain(100)
        assert monitor.stats.instances_checked == 1
        assert not monitor.detected

    def test_violation_recorded(self):
        monitor = make_monitor()
        info = make_info()
        send_pair(monitor, info, 0, (5,), True)
        send_pair(monitor, info, 1, (5,), False)
        monitor.drain(100)
        assert monitor.detected
        assert monitor.first_violation().rule == "shared-outcome"

    def test_incomplete_instance_checked_at_finalize(self):
        monitor = make_monitor(nthreads=3)
        info = make_info()
        send_pair(monitor, info, 0, (5,), True)
        send_pair(monitor, info, 1, (5,), False)  # thread 2 never reports
        monitor.drain(100)
        assert not monitor.detected  # incomplete: not checked eagerly
        monitor.finalize()
        assert monitor.detected

    def test_round_robin_drain_interleaves(self):
        monitor = make_monitor()
        info = make_info()
        for _ in range(3):
            monitor.try_send(0, OutcomeMessage(info, 0, KEY, True))
        monitor.try_send(1, OutcomeMessage(info, 1, KEY, True))
        assert monitor.drain(2) == 2
        # one from each queue despite queue 0 having more
        assert len(monitor.queues[0]) == 2
        assert len(monitor.queues[1]) == 0

    def test_full_queue_reports_backpressure(self):
        monitor = make_monitor(capacity=2)
        info = make_info()
        assert monitor.try_send(0, OutcomeMessage(info, 0, KEY, True))
        assert monitor.try_send(0, OutcomeMessage(info, 0, KEY, True))
        assert not monitor.try_send(0, OutcomeMessage(info, 0, KEY, True))
        assert monitor.queue_pressure() == 1

    def test_feed_mode_discards_without_checking(self):
        monitor = make_monitor(mode=MODE_FEED)
        info = make_info()
        send_pair(monitor, info, 0, (5,), True)
        send_pair(monitor, info, 1, (5,), False)   # would be a violation
        monitor.drain(100)
        monitor.finalize()
        assert not monitor.detected
        assert monitor.stats.instances_checked == 0
        assert monitor.messages_received == 4

    def test_feed_mode_never_blocks_producers(self):
        monitor = make_monitor(mode=MODE_FEED, capacity=2)
        info = make_info()
        for _ in range(50):
            assert monitor.try_send(0, OutcomeMessage(info, 0, KEY, True))
