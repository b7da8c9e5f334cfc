"""The SPMD interpreter: simulated threads over the shared-memory machine.

This is the substrate that replaces the paper's real 32-core machine.
Every worker "thread" is an interpreter context with its own frame stack,
cycle clock, call-site stack, and loop-iteration counters; a scheduler
interleaves them deterministically (always advancing the thread with the
lowest cycle clock, plus optional seeded jitter for schedule diversity).
The monitor drains its queues between scheduling quanta, modeling the
paper's asynchronous monitor thread.

Faults are injected through a :class:`FaultHook` given the chance to
observe/alter every branch decision — the simulator's analogue of the
paper's PIN-based injector.
"""

from __future__ import annotations

import enum
import operator
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    GuestCrash,
    GuestDeadlock,
    GuestHang,
    SimulationError,
)
from repro.instrument.config import CheckedBranchInfo
from repro.ir import (
    BarrierWait,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    Cmp,
    Constant,
    EnterLoop,
    FLOAT,
    Function,
    FunctionRef,
    GetTid,
    INT,
    Instruction,
    Jump,
    LoadElem,
    LoadGlobal,
    LockAcquire,
    LockRelease,
    LoopTick,
    Module,
    Output,
    Phi,
    ReadLocal,
    Ret,
    SendBranchCondition,
    StoreElem,
    StoreGlobal,
    UnaryOp,
    Value,
    WriteLocal,
)
from repro.monitor import ConditionMessage, Monitor, OutcomeMessage
from repro.monitor.messages import runtime_key_function
from repro.runtime.costmodel import CostModel
from repro.runtime.memory import SharedMemory
from repro.runtime.sync import SimBarrier, SimMutex
from repro.telemetry import Telemetry, TelemetrySnapshot, active
from repro.runtime.values import (
    float_to_int,
    int_div,
    int_mod,
    wrap_int,
)

#: Precomputed binop dispatch (interpreter hot path): one dict lookup +
#: call instead of walking an if/elif chain per executed instruction.
#: ``div``/``mod`` stay out of the table — they need the executing
#: thread's id for the simulated-crash report.
_BINOP_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda lhs, rhs: lhs << (rhs & 63),
    "shr": lambda lhs, rhs: lhs >> (rhs & 63),
    "min": min,
    "max": max,
}

_CMP_FUNCS: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED_LOCK = "blocked_lock"
    BLOCKED_BARRIER = "blocked_barrier"
    BLOCKED_QUEUE = "blocked_queue"
    DONE = "done"
    CRASHED = "crashed"


class Frame:
    """One activation record: function, program counter, registers."""

    __slots__ = ("function", "block", "index", "regs", "call_inst")

    def __init__(self, function: Function, args: Tuple,
                 call_inst: Optional[Instruction] = None):
        self.function = function
        self.block: BasicBlock = function.entry
        self.index = 0
        self.regs: Dict[int, Any] = {}
        for param, value in zip(function.params, args):
            self.regs[id(param)] = value
        self.call_inst = call_inst


class ThreadContext:
    """One simulated worker thread."""

    __slots__ = ("tid", "frames", "status", "cycles", "outputs",
                 "callsite_key", "loop_iters", "branch_count",
                 "pending", "steps", "ghost_skip", "sync_wait",
                 "queue_stall", "send")

    def __init__(self, tid: int, function: Function):
        self.tid = tid
        self.frames: List[Frame] = [Frame(function, ())]
        self.status = ThreadStatus.RUNNABLE
        self.cycles: float = 0.0
        self.outputs: List[Any] = []
        #: Simulated cycles this thread spent waiting at locks/barriers
        #: (the per-thread share of Machine.sync_wait_cycles).
        self.sync_wait: float = 0.0
        #: Simulated cycles this thread lost to full-monitor-queue stalls.
        self.queue_stall: float = 0.0
        #: Call-site id path of the current activation, as a ready-made
        #: tuple (it is half of every runtime hash key).
        self.callsite_key: Tuple[int, ...] = ()
        self.loop_iters: Dict[int, int] = {}
        self.branch_count = 0
        #: Deferred action while blocked on a full monitor queue:
        #: ("send", message) or ("branch", message, target_block).
        self.pending: Optional[Tuple] = None
        #: Monitor.sender of this thread; None when the run has no monitor.
        self.send: Optional[Callable] = None
        self.steps = 0
        #: Optimizer-ghost kinds already charged at the current program
        #: point (a scheduling quantum may end mid-ghost; see
        #: Machine._run_quantum_ghost).
        self.ghost_skip = 0

    @property
    def frame(self) -> Frame:
        return self.frames[-1]

    @property
    def done(self) -> bool:
        return self.status in (ThreadStatus.DONE, ThreadStatus.CRASHED)


class FaultHook:
    """Injection interface; the default hook is a no-op (golden runs)."""

    def before_branch(self, machine: "Machine", thread: ThreadContext,
                      branch: Branch, frame: Frame, taken: bool) -> bool:
        """Observe/modify the decision of a dynamic branch instance."""
        return taken


class RunResult:
    """Everything a run produced; consumed by campaigns and benchmarks."""

    def __init__(self):
        self.status = "ok"   # ok | crash | hang | deadlock
        self.failure_message = ""
        self.failing_thread: Optional[int] = None
        self.outputs: Dict[int, List[Any]] = {}
        self.cycles: Dict[int, float] = {}
        self.parallel_time: float = 0.0
        self.branch_counts: Dict[int, int] = {}
        self.violations: List = []
        self.steps = 0
        self.monitor: Optional[Monitor] = None
        self.memory: Optional[SharedMemory] = None
        #: Synchronization census (the duplication model prices its
        #: determinism enforcement off these).
        self.lock_acquisitions = 0
        self.barrier_episodes = 0
        #: Simulated cycles threads spent waiting at barriers/locks.
        self.sync_wait_cycles: float = 0.0
        #: Per-thread shares of the synchronization wait and of the
        #: monitor-queue stall cycles (tid -> cycles); the vectors the
        #: triage performance-anomaly arm compares within a similarity
        #: class.
        self.thread_sync_wait: Dict[int, float] = {}
        self.thread_queue_stall: Dict[int, float] = {}
        #: Metrics snapshot; None unless the run was given a collector.
        self.telemetry: Optional[TelemetrySnapshot] = None

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    def output_signature(self, output_globals=()) -> Tuple:
        """Canonical value for golden-result comparison: the per-thread
        output streams plus designated result globals."""
        streams = tuple((tid, tuple(self.outputs.get(tid, ())))
                        for tid in sorted(self.outputs))
        arrays = ()
        if self.memory is not None and output_globals:
            snap = self.memory.snapshot(output_globals)
            arrays = tuple((name, tuple(snap[name])) for name in sorted(snap))
        return (self.status, streams, arrays)


class Machine:
    """The simulated multi-core machine executing one program run."""

    def __init__(self, module: Module, nthreads: int,
                 entry: str = "slave",
                 monitor: Optional[Monitor] = None,
                 cost_model: Optional[CostModel] = None,
                 fault_hook: Optional[FaultHook] = None,
                 seed: int = 0,
                 quantum: int = 32,
                 max_steps: int = 20_000_000,
                 schedule_jitter: float = 2.0,
                 halt_on_detection: bool = False,
                 telemetry: Optional[Telemetry] = None):
        if module.bw_metadata is not None and monitor is None:
            raise SimulationError(
                "instrumented module requires a Monitor (mode 'full' or 'feed')")
        self.module = module
        self.nthreads = nthreads
        self.entry_name = entry
        self.monitor = monitor
        self.cost = cost_model if cost_model is not None else CostModel()
        self.hook = fault_hook if fault_hook is not None else FaultHook()
        self.quantum = quantum
        self.max_steps = max_steps
        self.halt_on_detection = halt_on_detection
        self.seed = seed
        #: Live collector or None; hot loops never see the disabled case
        #: (repro.telemetry normalizes it away here, once).
        self.telemetry = active(telemetry)
        self.sync_wait_cycles: float = 0.0
        self._rng = random.Random(seed)
        self._jitter = schedule_jitter

        self.memory = SharedMemory(module)
        entry_fn = module.function_named(entry)
        self.threads = [ThreadContext(tid, entry_fn) for tid in range(nthreads)]
        if monitor is not None:
            for thread in self.threads:
                thread.send = monitor.sender(thread.tid)
        #: static branch id -> the site's runtime key function
        self._key_fns: Dict[int, Callable] = {
            sid: runtime_key_function(info.enclosing_loop_ids)
            for sid, info in (module.bw_metadata.branches.items()
                              if module.bw_metadata is not None else ())}
        self.mutexes: Dict[str, SimMutex] = {}
        self.barriers: Dict[str, SimBarrier] = {}
        for name, g in module.globals.items():
            if g.type.name == "lock":
                self.mutexes[name] = SimMutex(name)
            elif g.type.name == "barrier":
                self.barriers[name] = SimBarrier(name, nthreads)
        self._func_index = {f.name: i for i, f in enumerate(module.function_table)}
        self.total_steps = 0
        #: Per-block (phis, count) cache for _transfer.
        self._phi_cache: Dict[int, Tuple] = {}
        #: Optimizer-ghost support: a module that went through
        #: repro.opt carries opt_summary, and its instructions may carry
        #: (steps, kinds) ghosts to replay.  Unoptimized modules take a
        #: quantum loop with zero ghost overhead.
        self._has_ghosts = getattr(module, "opt_summary", None) is not None
        self._quantum_fn = (self._run_quantum_ghost if self._has_ghosts
                            else self._run_quantum)
        #: id(inst) -> tuple of per-kind cycle costs for its ghost.
        self._ghost_cache: Dict[int, Tuple[float, ...]] = {}

        # Pre-derived costs (hot path).
        self._mem_cost = self.cost.memory_cost(nthreads)
        self._send_cost = self.cost.send_cost(nthreads)
        self._barrier_cost = self.cost.barrier_cost(nthreads)

    # ------------------------------------------------------------------
    # Top-level run loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        from repro.errors import DetectionRaised
        result = RunResult()
        tel = self.telemetry
        wall_started = time.perf_counter_ns() if tel is not None else 0
        if tel is not None:
            tel.event("run_start", nthreads=self.nthreads, seed=self.seed)
        try:
            self._loop()
        except DetectionRaised:
            # halt_on_detection mode: the paper's "raises an exception and
            # stops the program".  The violation itself is collected from
            # the monitor below.
            result.status = "halted"
        except GuestCrash as crash:
            result.status = "crash"
            result.failure_message = str(crash)
            result.failing_thread = crash.thread_id
        except GuestHang as hang:
            result.status = "hang"
            result.failure_message = str(hang)
        except GuestDeadlock as dead:
            result.status = "deadlock"
            result.failure_message = str(dead)
        for thread in self.threads:
            result.outputs[thread.tid] = thread.outputs
            result.cycles[thread.tid] = thread.cycles
            result.branch_counts[thread.tid] = thread.branch_count
            result.thread_sync_wait[thread.tid] = thread.sync_wait
            result.thread_queue_stall[thread.tid] = thread.queue_stall
        result.parallel_time = max(
            (t.cycles for t in self.threads), default=0.0)
        result.steps = self.total_steps
        result.memory = self.memory
        result.monitor = self.monitor
        result.lock_acquisitions = sum(
            m.acquisitions for m in self.mutexes.values())
        result.barrier_episodes = sum(
            b.episodes for b in self.barriers.values())
        result.sync_wait_cycles = self.sync_wait_cycles
        if self.monitor is not None:
            result.violations = list(self.monitor.finalize())
        if tel is not None:
            # End-of-run aggregation: the per-instruction facts come from
            # counters the simulator maintains anyway, so the interpreter
            # hot loop carries no telemetry cost even when enabled.
            tel.add_time_ns("interp.wall_ns",
                            time.perf_counter_ns() - wall_started)
            tel.count("interp.runs")
            tel.count("interp.steps", self.total_steps)
            tel.count("interp.branches",
                      sum(result.branch_counts.values()))
            tel.count("sync.lock_acquisitions", result.lock_acquisitions)
            tel.count("sync.barrier_episodes", result.barrier_episodes)
            tel.count("sync.wait_cycles", int(self.sync_wait_cycles))
            tel.gauge_max("interp.parallel_cycles", int(result.parallel_time))
            summary = getattr(self.module, "opt_summary", None)
            if summary is not None:
                for stats in summary.get("passes", ()):
                    tel.count("opt.pass.%s.removed" % stats["name"],
                              stats["removed"])
                tel.count("opt.instructions_saved",
                          summary["instructions_before"]
                          - summary["instructions_after"])
            for thread in self.threads:
                tel.observe("interp.thread_cycles", thread.cycles)
                tel.observe("interp.thread_steps", thread.steps)
                # One event per thread, integer fields only: the runtime
                # vector the triage performance arm clusters within a
                # similarity class.  Deterministic in the seed (simulated
                # cycles, never wall-clock), so jobs=N merges keep the
                # triage report byte-identical.
                tel.event("thread_metrics", tid=thread.tid,
                          cycles=int(thread.cycles),
                          steps=thread.steps,
                          branches=thread.branch_count,
                          sync_wait=int(thread.sync_wait),
                          queue_stall=int(thread.queue_stall))
            tel.event("run_end", status=result.status,
                      steps=self.total_steps,
                      violations=len(result.violations),
                      detected=result.detected)
            result.telemetry = tel.snapshot()
        return result

    def _loop(self) -> None:
        # Scheduler hot loop: every attribute that is invariant across
        # quanta is hoisted to a local (the loop body runs once per
        # scheduling quantum, tens of thousands of times per run).
        threads = self.threads
        run_quantum = self._quantum_fn
        rng_random = self._rng.random
        jitter = self._jitter
        runnable_status = ThreadStatus.RUNNABLE
        monitor = self.monitor
        drain = monitor.drain if monitor is not None else None
        batch = (monitor.metadata.config.monitor_batch
                 if monitor is not None else 0)
        halt = self.halt_on_detection
        while True:
            # Pick the runnable thread with the lowest jittered clock.
            # One RNG draw per runnable thread in tid order, ties to the
            # lowest tid — exactly `min(runnable, key=cycles+jitter)`,
            # without the per-decision closure and list allocations.
            best = None
            best_key = 0.0
            for t in threads:
                if t.status is runnable_status:
                    key = t.cycles + rng_random() * jitter
                    if best is None or key < best_key:
                        best = t
                        best_key = key
            if best is None:
                if all(t.done for t in threads):
                    return
                if not self._resolve_blocked():
                    raise GuestDeadlock(
                        "no runnable thread: " + ", ".join(
                            "t%d=%s" % (t.tid, t.status.value) for t in threads))
                continue
            run_quantum(best)
            if drain is not None:
                drain(batch)
                if halt and monitor.detected:
                    from repro.errors import DetectionRaised
                    raise DetectionRaised(monitor.first_violation())

    def _resolve_blocked(self) -> bool:
        """Try to unblock queue-stalled producers by draining the monitor."""
        stalled = [t for t in self.threads
                   if t.status is ThreadStatus.BLOCKED_QUEUE]
        if not stalled or self.monitor is None:
            return False
        self.monitor.drain(len(stalled) * 4 + 16)
        progress = False
        for thread in stalled:
            if self._retry_pending(thread):
                progress = True
        return progress

    def _run_quantum(self, thread: ThreadContext) -> None:
        handlers = self._HANDLERS
        frames = thread.frames
        runnable = ThreadStatus.RUNNABLE
        executed = 0
        quantum = self.quantum
        while executed < quantum and thread.status is runnable:
            frame = frames[-1]
            inst = frame.block.instructions[frame.index]
            handlers[type(inst)](self, thread, frame, inst)
            executed += 1
        thread.steps += executed
        self.total_steps += executed
        if self.total_steps > self.max_steps:
            raise GuestHang("exceeded %d interpreted instructions"
                            % self.max_steps)

    def _ghost_costs(self, inst: Instruction, ghost: Tuple) -> Tuple[float, ...]:
        cached = self._ghost_cache.get(id(inst))
        if cached is None:
            kind_cost = self.cost.ghost_kind_cost
            nthreads = self.nthreads
            cached = tuple(kind_cost(kind, nthreads) for kind in ghost[1])
            self._ghost_cache[id(inst)] = cached
        return cached

    def _run_quantum_ghost(self, thread: ThreadContext) -> None:
        """Quantum loop for optimized modules: replay instruction ghosts.

        Ghost kinds are charged *one step at a time* against the quantum
        budget, so scheduling-quantum boundaries fall at exactly the same
        cumulative step counts as the unoptimized run — same number of
        scheduler decisions, same jitter-RNG draws, bit-identical
        interleaving.  A quantum that ends mid-ghost records its progress
        in ``thread.ghost_skip`` and resumes there next time.
        """
        handlers = self._HANDLERS
        frames = thread.frames
        runnable = ThreadStatus.RUNNABLE
        executed = 0
        quantum = self.quantum
        while executed < quantum and thread.status is runnable:
            frame = frames[-1]
            inst = frame.block.instructions[frame.index]
            ghost = getattr(inst, "ghost", None)
            if ghost is not None:
                done = thread.ghost_skip
                total = ghost[0]
                if done < total:
                    costs = self._ghost_costs(inst, ghost)
                    cycles = thread.cycles
                    while done < total and executed < quantum:
                        cycles += costs[done]
                        done += 1
                        executed += 1
                    thread.cycles = cycles
                if done < total or executed >= quantum:
                    thread.ghost_skip = done
                    break
                handlers[type(inst)](self, thread, frame, inst)
                thread.ghost_skip = 0
                executed += 1
            else:
                handlers[type(inst)](self, thread, frame, inst)
                executed += 1
        thread.steps += executed
        self.total_steps += executed
        if self.total_steps > self.max_steps:
            raise GuestHang("exceeded %d interpreted instructions"
                            % self.max_steps)

    # ------------------------------------------------------------------
    # Instruction dispatch
    # ------------------------------------------------------------------

    def _value(self, frame: Frame, v: Value):
        if isinstance(v, Constant):
            return v.value
        key = id(v)
        regs = frame.regs
        if key in regs:
            return regs[key]
        if isinstance(v, FunctionRef):
            return self._func_index[v.function_name]
        raise SimulationError("read of undefined value %r" % v)

    # -- backend-independent register access (fault injector seam) ---------

    def read_value(self, frame: Frame, value: Value):
        """Read ``value`` in ``frame`` — the injector-facing twin of the
        internal ``_value`` (overridden by register-slot backends)."""
        return self._value(frame, value)

    def write_reg(self, frame: Frame, value: Value, new) -> None:
        """Overwrite the register holding ``value`` in ``frame`` (the
        fault injector's corruption primitive)."""
        frame.regs[id(value)] = new

    # -- arithmetic ----------------------------------------------------------

    def _exec_binop(self, thread: ThreadContext, frame: Frame, inst: BinOp) -> None:
        lhs = self._value(frame, inst.lhs)
        rhs = self._value(frame, inst.rhs)
        op = inst.op
        is_float = inst.type is FLOAT
        fn = _BINOP_FUNCS.get(op)
        if fn is not None:
            value = fn(lhs, rhs)
        elif op == "div":
            if is_float:
                lhs, rhs = float(lhs), float(rhs)
                if rhs == 0.0:
                    value = float("inf") if lhs > 0 else (
                        float("-inf") if lhs < 0 else float("nan"))
                else:
                    value = lhs / rhs
            else:
                value = int_div(lhs, rhs, thread.tid)
        elif op == "mod":
            value = int_mod(lhs, rhs, thread.tid)
        else:  # pragma: no cover - constructor rejects unknown ops
            raise SimulationError("unknown binop %s" % op)
        if inst.type is INT:
            value = wrap_int(value)
        elif is_float:
            value = float(value)
        frame.regs[id(inst)] = value
        frame.index += 1
        thread.cycles += self.cost.binop_cost(op, is_float)

    def _exec_unop(self, thread: ThreadContext, frame: Frame, inst: UnaryOp) -> None:
        value = self._value(frame, inst.value)
        if inst.op == "neg":
            value = -value
            value = wrap_int(value) if inst.type is INT else float(value)
        else:  # not
            value = not value
        frame.regs[id(inst)] = value
        frame.index += 1
        thread.cycles += self.cost.alu

    def _exec_cmp(self, thread: ThreadContext, frame: Frame, inst: Cmp) -> None:
        lhs = self._value(frame, inst.lhs)
        rhs = self._value(frame, inst.rhs)
        frame.regs[id(inst)] = self.evaluate_cmp(inst.op, lhs, rhs)
        frame.index += 1
        thread.cycles += self.cost.cmp

    @staticmethod
    def evaluate_cmp(op: str, lhs, rhs) -> bool:
        try:
            return _CMP_FUNCS[op](lhs, rhs)
        except KeyError:
            raise SimulationError("unknown comparison %s" % op) from None

    def _exec_cast(self, thread: ThreadContext, frame: Frame, inst: Cast) -> None:
        value = self._value(frame, inst.value)
        if inst.kind == "itof":
            value = float(value)
        elif inst.kind == "ftoi":
            value = float_to_int(value, thread.tid)
        else:  # btoi
            value = 1 if value else 0
        frame.regs[id(inst)] = value
        frame.index += 1
        thread.cycles += self.cost.cast

    # -- memory ----------------------------------------------------------

    def _exec_load(self, thread: ThreadContext, frame: Frame, inst: LoadGlobal) -> None:
        frame.regs[id(inst)] = self.memory.read_scalar(inst.global_.name, thread.tid)
        frame.index += 1
        thread.cycles += self._mem_cost

    def _exec_store(self, thread: ThreadContext, frame: Frame, inst: StoreGlobal) -> None:
        self.memory.write_scalar(inst.global_.name,
                                 self._value(frame, inst.value), thread.tid)
        frame.index += 1
        thread.cycles += self._mem_cost

    def _exec_loadelem(self, thread: ThreadContext, frame: Frame, inst: LoadElem) -> None:
        index = self._value(frame, inst.index)
        frame.regs[id(inst)] = self.memory.read_elem(inst.array.name, index, thread.tid)
        frame.index += 1
        thread.cycles += self._mem_cost

    def _exec_storeelem(self, thread: ThreadContext, frame: Frame, inst: StoreElem) -> None:
        index = self._value(frame, inst.index)
        self.memory.write_elem(inst.array.name, index,
                               self._value(frame, inst.value), thread.tid)
        frame.index += 1
        thread.cycles += self._mem_cost

    # -- control flow ------------------------------------------------------

    def _transfer(self, thread: ThreadContext, frame: Frame,
                  target: BasicBlock) -> None:
        """Jump to ``target``, executing its phis as one parallel copy."""
        cached = self._phi_cache.get(id(target))
        if cached is None:
            phis = tuple(target.phis())
            cached = (phis, len(phis))
            self._phi_cache[id(target)] = cached
        phis, nphis = cached
        if phis:
            source = frame.block
            values = [self._value(frame, phi.incoming_for(source)) for phi in phis]
            regs = frame.regs
            for phi, value in zip(phis, values):
                regs[id(phi)] = value
        frame.block = target
        frame.index = nphis

    def _exec_branch(self, thread: ThreadContext, frame: Frame, inst: Branch) -> None:
        taken = bool(self._value(frame, inst.cond))
        thread.branch_count += 1
        taken = self.hook.before_branch(self, thread, inst, frame, taken)
        thread.cycles += self.cost.branch
        info: Optional[CheckedBranchInfo] = inst.bw_info
        send = thread.send
        if info is not None and send is not None:
            message = OutcomeMessage(
                info, thread.tid, self._key_fns[info.static_id](
                    thread.callsite_key, thread.loop_iters), taken)
            thread.cycles += self._send_cost
            if not send(message):
                thread.pending = ("branch", message,
                                  inst.then_block if taken else inst.else_block)
                thread.status = ThreadStatus.BLOCKED_QUEUE
                thread.cycles += self.cost.stall
                thread.queue_stall += self.cost.stall
                return
        self._transfer(thread, frame, inst.then_block if taken else inst.else_block)

    def _exec_jump(self, thread: ThreadContext, frame: Frame, inst: Jump) -> None:
        thread.cycles += self.cost.jump
        self._transfer(thread, frame, inst.target)

    def _exec_ret(self, thread: ThreadContext, frame: Frame, inst: Ret) -> None:
        value = self._value(frame, inst.value) if inst.value is not None else None
        thread.frames.pop()
        thread.cycles += self.cost.call
        if not thread.frames:
            thread.status = ThreadStatus.DONE
            return
        caller = thread.frames[-1]
        call_inst = frame.call_inst
        if call_inst is not None:
            if thread.callsite_key:
                thread.callsite_key = thread.callsite_key[:-1]
            if value is not None:
                caller.regs[id(call_inst)] = value
            elif call_inst.type.is_scalar:
                caller.regs[id(call_inst)] = 0  # void callee, wild indirect call
        caller.index += 1

    def _exec_call(self, thread: ThreadContext, frame: Frame, inst: Call) -> None:
        args = tuple(self._value(frame, a) for a in inst.operands)
        thread.callsite_key = thread.callsite_key + (inst.callsite_id,)
        if len(thread.frames) >= 200:
            raise GuestCrash("call stack overflow", thread.tid)
        thread.frames.append(Frame(inst.callee, args, call_inst=inst))
        thread.cycles += self.cost.call

    def _exec_callptr(self, thread: ThreadContext, frame: Frame,
                      inst: CallIndirect) -> None:
        target = self._value(frame, inst.target)
        callee = self.module.function_at(target) if isinstance(target, int) else None
        if callee is None:
            raise GuestCrash("indirect call through invalid pointer %r" % (target,),
                             thread.tid)
        args = tuple(self._value(frame, a) for a in inst.args)
        if len(args) != len(callee.params):
            raise GuestCrash(
                "wild indirect call: %s expects %d args, got %d"
                % (callee.name, len(callee.params), len(args)), thread.tid)
        coerced = []
        for param, arg in zip(callee.params, args):
            if param.type is FLOAT and isinstance(arg, int):
                arg = float(arg)
            elif param.type is INT and isinstance(arg, float):
                raise GuestCrash("wild indirect call: float passed to int "
                                 "parameter of %s" % callee.name, thread.tid)
            coerced.append(arg)
        thread.callsite_key = thread.callsite_key + (inst.callsite_id,)
        if len(thread.frames) >= 200:
            raise GuestCrash("call stack overflow", thread.tid)
        thread.frames.append(Frame(callee, tuple(coerced), call_inst=inst))
        thread.cycles += self.cost.call

    # -- intrinsics --------------------------------------------------------

    def _exec_gettid(self, thread: ThreadContext, frame: Frame, inst: GetTid) -> None:
        frame.regs[id(inst)] = thread.tid
        frame.index += 1
        thread.cycles += self.cost.intrinsic

    def _exec_output(self, thread: ThreadContext, frame: Frame, inst: Output) -> None:
        thread.outputs.append(self._value(frame, inst.value))
        frame.index += 1
        thread.cycles += self.cost.output

    def _exec_lock(self, thread: ThreadContext, frame: Frame, inst: LockAcquire) -> None:
        mutex = self.mutexes[inst.lock.name]
        if mutex.owner == thread.tid:
            # Re-acquisition after being woken by the releaser.
            frame.index += 1
            return
        if mutex.try_acquire(thread.tid):
            thread.cycles = max(thread.cycles + self.cost.lock_base,
                                mutex.last_release + self.cost.lock_transfer)
            frame.index += 1
        else:
            thread.status = ThreadStatus.BLOCKED_LOCK

    def _exec_unlock(self, thread: ThreadContext, frame: Frame, inst: LockRelease) -> None:
        mutex = self.mutexes[inst.lock.name]
        if mutex.owner != thread.tid:
            raise GuestCrash("unlock of @%s not held by thread" % mutex.name,
                             thread.tid)
        woken_tid = mutex.release(thread.tid, thread.cycles)
        thread.cycles += self.cost.lock_base
        frame.index += 1
        if woken_tid is not None:
            woken = self.threads[woken_tid]
            woken.status = ThreadStatus.RUNNABLE
            handoff = mutex.last_release + self.cost.lock_transfer
            if handoff > woken.cycles:
                self.sync_wait_cycles += handoff - woken.cycles
                woken.sync_wait += handoff - woken.cycles
                woken.cycles = handoff
            woken.frames[-1].index += 1  # past its LockAcquire

    def _exec_barrier(self, thread: ThreadContext, frame: Frame,
                      inst: BarrierWait) -> None:
        barrier = self.barriers[inst.barrier.name]
        frame.index += 1  # resume after the barrier when released
        if barrier.arrive(thread.tid, thread.cycles):
            participants = list(barrier.arrived.keys())
            release_at = barrier.release() + self._barrier_cost
            for tid in participants:
                other = self.threads[tid]
                if release_at > other.cycles:
                    self.sync_wait_cycles += release_at - other.cycles
                    other.sync_wait += release_at - other.cycles
                    other.cycles = release_at
                if other is not thread:
                    other.status = ThreadStatus.RUNNABLE
        else:
            thread.status = ThreadStatus.BLOCKED_BARRIER

    # -- instrumentation intrinsics ------------------------------------------

    def _exec_send_cond(self, thread: ThreadContext, frame: Frame,
                        inst: SendBranchCondition) -> None:
        info: CheckedBranchInfo = inst.info
        values = tuple(self._value(frame, v) for v in inst.operands)
        message = ConditionMessage(
            info, thread.tid, self._key_fns[info.static_id](
                thread.callsite_key, thread.loop_iters), values)
        thread.cycles += self._send_cost
        send = thread.send
        if send is not None and not send(message):
            thread.pending = ("send", message)
            thread.status = ThreadStatus.BLOCKED_QUEUE
            thread.cycles += self.cost.stall
            thread.queue_stall += self.cost.stall
            return
        frame.index += 1

    def _exec_enter_loop(self, thread: ThreadContext, frame: Frame,
                         inst: EnterLoop) -> None:
        thread.loop_iters[inst.loop_id] = -1
        frame.index += 1
        thread.cycles += self.cost.intrinsic

    def _exec_loop_tick(self, thread: ThreadContext, frame: Frame,
                        inst: LoopTick) -> None:
        thread.loop_iters[inst.loop_id] = thread.loop_iters.get(inst.loop_id, -1) + 1
        frame.index += 1
        thread.cycles += self.cost.intrinsic

    def _exec_phi(self, thread: ThreadContext, frame: Frame, inst: Phi) -> None:
        # Phis are evaluated by _transfer; stepping onto one means the
        # frame was restored mid-block — just skip.
        frame.index += 1

    # -- local slots (out-of-SSA form; see repro.opt.ssa) --------------------

    def _exec_readlocal(self, thread: ThreadContext, frame: Frame,
                        inst: ReadLocal) -> None:
        key = id(inst.slot)
        regs = frame.regs
        if key in regs:
            value = regs[key]
        else:
            type_ = inst.slot.type
            value = 0.0 if type_ is FLOAT else (False if type_.name == "bool"
                                                else 0)
        regs[id(inst)] = value
        frame.index += 1
        thread.cycles += self.cost.alu

    def _exec_writelocal(self, thread: ThreadContext, frame: Frame,
                         inst: WriteLocal) -> None:
        frame.regs[id(inst.slot)] = self._value(frame, inst.value)
        frame.index += 1
        thread.cycles += self.cost.alu

    # -- queue-stall retry -------------------------------------------------

    def _retry_pending(self, thread: ThreadContext) -> bool:
        if thread.pending is None or self.monitor is None:
            return False
        kind = thread.pending[0]
        message = thread.pending[1]
        if not self.monitor.try_send(thread.tid, message):
            thread.cycles += self.cost.stall
            thread.queue_stall += self.cost.stall
            return False
        if kind == "send":
            thread.frames[-1].index += 1
        else:  # branch: complete the deferred transfer
            target = thread.pending[2]
            self._transfer(thread, thread.frames[-1], target)
        thread.pending = None
        thread.status = ThreadStatus.RUNNABLE
        return True

    _HANDLERS: Dict[type, Callable] = {}


Machine._HANDLERS = {
    BinOp: Machine._exec_binop,
    UnaryOp: Machine._exec_unop,
    Cmp: Machine._exec_cmp,
    Cast: Machine._exec_cast,
    LoadGlobal: Machine._exec_load,
    StoreGlobal: Machine._exec_store,
    LoadElem: Machine._exec_loadelem,
    StoreElem: Machine._exec_storeelem,
    Branch: Machine._exec_branch,
    Jump: Machine._exec_jump,
    Ret: Machine._exec_ret,
    Call: Machine._exec_call,
    CallIndirect: Machine._exec_callptr,
    GetTid: Machine._exec_gettid,
    Output: Machine._exec_output,
    LockAcquire: Machine._exec_lock,
    LockRelease: Machine._exec_unlock,
    BarrierWait: Machine._exec_barrier,
    SendBranchCondition: Machine._exec_send_cond,
    EnterLoop: Machine._exec_enter_loop,
    LoopTick: Machine._exec_loop_tick,
    Phi: Machine._exec_phi,
    ReadLocal: Machine._exec_readlocal,
    WriteLocal: Machine._exec_writelocal,
}
