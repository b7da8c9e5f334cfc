"""The monitor's two-level branch table (paper Section III-B).

The paper keys each runtime branch instance by a *static identifier*
(position of the branch in the program) plus a *runtime identifier* (the
call-site path of the enclosing invocation and the iteration numbers of
all outer loops), and splits the table in two levels — call-site × static
id first, loop iterations second — "to achieve better utilization of the
memory and reduction of access times".

We add a third component the paper leaves implicit: an *occurrence
index*.  When the same call site is re-executed (e.g. the caller spins in
a loop the callee knows nothing about), identical (static, runtime) keys
repeat; the table then matches the k-th occurrence reported by each
thread against the k-th of every other, which keeps SPMD instances
aligned without ever mixing distinct dynamic instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.instrument.config import CheckedBranchInfo
from repro.monitor.messages import BranchMessage


@dataclass
class InstanceEntry:
    """All reports for one dynamic instance of one branch."""

    info: CheckedBranchInfo
    #: reports still missing from the worker threads; complete at 0
    remaining: int = 0
    #: thread id -> condition basis values (from sendBranchCondition)
    values: Dict[int, Tuple] = field(default_factory=dict)
    #: thread id -> branch outcome (from sendBranchAddr)
    outcomes: Dict[int, bool] = field(default_factory=dict)
    checked: bool = False


class BranchTable:
    """Two-level hash table plus per-thread occurrence counters."""

    def __init__(self, nthreads: int):
        self.nthreads = nthreads
        # level 1: (call-site path, static id) -> level 2 dict
        # level 2: (loop iterations, occurrence) -> InstanceEntry
        self._table: Dict[Tuple[Tuple[int, ...], int],
                          Dict[Tuple[Tuple[int, ...], int], InstanceEntry]] = {}
        # (call-site path, static id, loop iters, thread, is outcome)
        # -> occurrences seen
        self._occurrence: Dict[Tuple, int] = {}

    def file(self, message: BranchMessage) -> InstanceEntry:
        """File one report into its instance and return the instance.
        With the occurrence index an instance gets at most one report per
        (thread, kind), so completeness counts down from a condition and
        an outcome per thread (store-value checks send no outcome)."""
        call_path, loop_iters = message.key
        info = message.info
        thread_id = message.thread_id
        is_outcome = message.is_outcome
        static_id = info.static_id
        occ_key = (call_path, static_id, loop_iters, thread_id, is_outcome)
        occurrence = self._occurrence.get(occ_key, 0)
        self._occurrence[occ_key] = occurrence + 1
        level1_key = (call_path, static_id)
        level2 = self._table.get(level1_key)
        if level2 is None:
            level2 = self._table[level1_key] = {}
        level2_key = (loop_iters, occurrence)
        entry = level2.get(level2_key)
        if entry is None:
            reports = (self.nthreads if info.check_kind.startswith("store")
                       else 2 * self.nthreads)
            entry = level2[level2_key] = InstanceEntry(info, reports)
        if is_outcome:
            entry.outcomes[thread_id] = message.taken
        else:
            entry.values[thread_id] = message.values
        entry.remaining -= 1
        return entry

    def pending_entries(self) -> List[InstanceEntry]:
        return [entry for level2 in self._table.values()
                for entry in level2.values() if not entry.checked]

    def discard_checked(self) -> int:
        """Free completed instances (keeps the table bounded on long runs)."""
        freed = 0
        for level1_key in list(self._table):
            level2 = self._table[level1_key]
            for level2_key in list(level2):
                if level2[level2_key].checked:
                    del level2[level2_key]
                    freed += 1
            if not level2:
                del self._table[level1_key]
        return freed

    def __len__(self) -> int:
        return sum(len(level2) for level2 in self._table.values())
