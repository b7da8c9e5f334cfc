"""Messages program threads send to the monitor.

Each checked branch produces two messages per dynamic execution, exactly
like the paper's instrumentation (Figure 5):

* :class:`ConditionMessage` — the ``sendBranchCondition`` payload: the
  branch's static id, the runtime key (call-site path + outer-loop
  iteration numbers), the sending thread, and the condition basis values;
* :class:`OutcomeMessage` — the ``sendBranchAddr`` payload: the same
  identifiers plus the boolean branch outcome (TAKEN / NOTTAKEN).

Both carry the pre-computed :class:`~repro.instrument.config.CheckedBranchInfo`
so the monitor never needs to look the branch up.  These are plain
``__slots__`` classes (not dataclasses): they sit on the hottest path of
the whole simulator — two allocations per checked dynamic branch.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.instrument.config import CheckedBranchInfo

#: The runtime half of the hash key: (call-site id path, iteration number
#: of each enclosing loop, outermost first).
RuntimeKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


def runtime_key_function(loop_ids: Sequence[int]) -> Callable[
        [Tuple[int, ...], Dict[int, int]], RuntimeKey]:
    """The site's key ``(callsite, tuple(iters.get(l, -1) for l in
    loop_ids))`` as a function of the thread's ``(callsite, iters)``,
    unrolled for the common depths of 0-2 enclosing loops."""
    ids = tuple(loop_ids)
    if not ids:
        return lambda callsite, iters: (callsite, ())
    if len(ids) == 1:
        (a,) = ids
        return lambda callsite, iters: (callsite, (iters.get(a, -1),))
    if len(ids) == 2:
        a, b = ids
        return lambda callsite, iters: (
            callsite, (iters.get(a, -1), iters.get(b, -1)))
    return lambda callsite, iters: (
        callsite, tuple([iters.get(lid, -1) for lid in ids]))


class BranchMessage:
    """Common header of both message kinds."""

    __slots__ = ("info", "thread_id", "key")

    #: True on OutcomeMessage; lets the monitor dispatch without isinstance.
    is_outcome = False


class ConditionMessage(BranchMessage):
    """Condition basis values, shipped immediately before the branch."""

    __slots__ = ("values",)

    is_outcome = False

    def __init__(self, info: CheckedBranchInfo, thread_id: int,
                 key: RuntimeKey, values: Tuple = ()):
        self.info = info
        self.thread_id = thread_id
        self.key = key
        self.values = values

    def __repr__(self) -> str:
        return "ConditionMessage(#%d t%d %r %r)" % (
            self.info.static_id, self.thread_id, self.key, self.values)


class OutcomeMessage(BranchMessage):
    """The branch decision, shipped as the branch executes."""

    __slots__ = ("taken",)

    is_outcome = True

    def __init__(self, info: CheckedBranchInfo, thread_id: int,
                 key: RuntimeKey, taken: bool = False):
        self.info = info
        self.thread_id = thread_id
        self.key = key
        self.taken = taken

    def __repr__(self) -> str:
        return "OutcomeMessage(#%d t%d %r taken=%r)" % (
            self.info.static_id, self.thread_id, self.key, self.taken)
