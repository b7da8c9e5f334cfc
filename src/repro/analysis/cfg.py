"""Control-flow-graph utilities: predecessor maps and orderings.

:class:`BasicBlock.predecessors` recomputes edges by scanning the whole
function; passes that need repeated queries build a :class:`CFG` once.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir import BasicBlock, Function


class CFG:
    """Cached predecessor/successor maps plus traversal orders."""

    def __init__(self, function: Function):
        self.function = function
        self.predecessors: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in function.blocks}
        self.successors: Dict[BasicBlock, List[BasicBlock]] = {}
        for block in function.blocks:
            succs = list(block.successors())
            self.successors[block] = succs
            for succ in succs:
                self.predecessors[succ].append(block)

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks in reverse postorder from the entry (forward dataflow
        order); unreachable blocks are appended at the end."""
        order = self.reachable_rpo()
        seen = {id(block) for block in order}
        order.extend(block for block in self.function.blocks
                     if id(block) not in seen)
        return order

    def reachable_rpo(self) -> List[BasicBlock]:
        """The blocks reachable from the entry in reverse postorder —
        predecessors before successors except on back edges."""
        entry = self.function.entry
        seen = {id(entry)}
        postorder: List[BasicBlock] = []
        stack = [(entry, iter(self.successors[entry]))]
        while stack:
            current, succs = stack[-1]
            for succ in succs:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, iter(self.successors[succ])))
                    break
            else:
                postorder.append(current)
                stack.pop()
        postorder.reverse()
        return postorder

    def reachable(self) -> List[BasicBlock]:
        seen = set()
        result = []
        stack = [self.function.entry]
        while stack:
            block = stack.pop()
            if id(block) in seen:
                continue
            seen.add(id(block))
            result.append(block)
            stack.extend(self.successors[block])
        return result
