"""Tests for the Lamport SPSC queue, including a property test that
model-checks FIFO behaviour under arbitrary push/pop interleavings."""

import pytest
from hypothesis import given, strategies as st

from repro.monitor import SpscQueue


class TestBasics:
    def test_empty_initially(self):
        q = SpscQueue(4)
        assert q.is_empty and not q.is_full
        assert len(q) == 0
        assert q.try_pop() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpscQueue(0)

    def test_push_pop_order(self):
        q = SpscQueue(8)
        for i in range(5):
            assert q.try_push(i)
        assert [q.try_pop() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert q.is_empty

    def test_full_rejects_and_counts(self):
        q = SpscQueue(2)
        assert q.try_push("a") and q.try_push("b")
        assert q.is_full
        assert not q.try_push("c")
        assert q.full_events == 1
        assert len(q) == 2

    def test_capacity_is_usable_slots(self):
        q = SpscQueue(3)
        assert q.capacity == 3
        assert all(q.try_push(i) for i in range(3))
        assert not q.try_push(99)

    def test_wraparound(self):
        q = SpscQueue(3)
        for round_ in range(10):
            assert q.try_push(round_)
            assert q.try_pop() == round_

    def test_slots_cleared_on_pop(self):
        q = SpscQueue(2)
        q.try_push("payload")
        q.try_pop()
        assert all(slot is None for slot in q._buffer)


class TestFifoProperty:
    @given(st.lists(
        st.one_of(st.tuples(st.just("push"), st.integers()),
                  st.tuples(st.just("pop"), st.just(0))),
        max_size=200),
        st.integers(min_value=1, max_value=7))
    def test_behaves_like_bounded_deque(self, ops, capacity):
        """Differential test against a plain list model."""
        q = SpscQueue(capacity)
        model = []
        for op, value in ops:
            if op == "push":
                ok = q.try_push(value)
                assert ok == (len(model) < capacity)
                if ok:
                    model.append(value)
            else:
                got = q.try_pop()
                expected = model.pop(0) if model else None
                assert got == expected
            assert len(q) == len(model)
            assert q.is_empty == (not model)
            assert q.is_full == (len(model) == capacity)
