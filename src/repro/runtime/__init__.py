"""Simulated SPMD runtime: interpreter, shared memory, synchronization,
scheduler, and the cycle cost model of the 32-core target machine."""

from repro.runtime.costmodel import CostModel, default_cost_model
from repro.runtime.interpreter import (
    FaultHook,
    Frame,
    Machine,
    RunResult,
    ThreadContext,
    ThreadStatus,
)
from repro.runtime.closures import (
    ClosureMachine,
    compile_module,
    get_compiled,
)
from repro.runtime.memory import SharedMemory
from repro.runtime.program import (
    BACKENDS,
    ParallelProgram,
    RunConfig,
    resolve_backend,
    resolve_opt_level,
)
from repro.runtime.sync import SimBarrier, SimMutex
from repro.runtime.values import (
    INT_MAX,
    INT_MIN,
    flip_float_bit,
    flip_int_bit,
    flip_value_bit,
    float_to_int,
    int_div,
    int_mod,
    wrap_int,
)

__all__ = [
    "CostModel", "default_cost_model",
    "FaultHook", "Frame", "Machine", "RunResult", "ThreadContext",
    "ThreadStatus", "SharedMemory", "ParallelProgram", "RunConfig",
    "BACKENDS", "resolve_backend", "resolve_opt_level",
    "ClosureMachine", "compile_module", "get_compiled",
    "SimBarrier", "SimMutex",
    "INT_MAX", "INT_MIN", "flip_float_bit", "flip_int_bit", "flip_value_bit",
    "float_to_int", "int_div", "int_mod", "wrap_int",
]
