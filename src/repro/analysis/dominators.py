"""Immediate dominators via the Cooper–Harvey–Kennedy algorithm.

Used by the loop analysis (back-edge detection needs dominance) and
available to passes that need dominance queries.  The IR verifier keeps
its own slower set-based computation on purpose, so this module can be
tested against it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.cfg import CFG
from repro.ir import BasicBlock, Function


class DominatorTree:
    """Immediate-dominator map plus O(depth) dominance queries."""

    def __init__(self, function: Function, cfg: Optional[CFG] = None):
        self.function = function
        self.cfg = cfg if cfg is not None else CFG(function)
        #: idom[b] — immediate dominator; the entry maps to itself.
        self.idom: Dict[BasicBlock, BasicBlock] = {}
        self._order_index: Dict[int, int] = {}
        self._compute()

    def _compute(self) -> None:
        order = self.cfg.reachable_rpo()
        for index, block in enumerate(order):
            self._order_index[id(block)] = index
        entry = self.function.entry
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {b: None for b in order}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in order:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in self.cfg.predecessors[block]:
                    if idom.get(pred) is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom[block] is not new_idom:
                    idom[block] = new_idom
                    changed = True
        self.idom = {b: d for b, d in idom.items() if d is not None}

    def _intersect(self, a: BasicBlock, b: BasicBlock,
                   idom: Dict[BasicBlock, Optional[BasicBlock]]) -> BasicBlock:
        index = self._order_index
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[a]  # type: ignore[assignment]
            while index[id(b)] > index[id(a)]:
                b = idom[b]  # type: ignore[assignment]
        return a

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True iff ``a`` dominates ``b`` (reflexive)."""
        entry = self.function.entry
        current = b
        while True:
            if current is a:
                return True
            if current is entry:
                return False
            parent = self.idom.get(current)
            if parent is None or parent is current:
                return False
            current = parent

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)
