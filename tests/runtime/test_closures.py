"""Closure backend contract: golden-trace identity with the interpreter
on every observable channel — error-free runs, optimized runs, and
fault-injected runs — plus the lifetime of compiled code."""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.faults import FaultSpec, FaultType, InjectingHook
from repro.ir import Module
from repro.runtime import CostModel, ParallelProgram, RunConfig, get_compiled
from repro.splash2 import kernel

from tests.conftest import FIGURE_1, figure1_setup
from tests.opt.helpers import run_signature

FAST_KERNELS = ("radix", "fft", "water_nsquared")
SLOW_KERNELS = ("fmm", "ocean_contig", "ocean_noncontig", "raytrace")


@pytest.fixture(scope="module")
def figure1_pair():
    return (ParallelProgram(FIGURE_1, "figure1"),
            ParallelProgram(FIGURE_1, "figure1", backend="closure"))


def test_figure1_identity_across_backends(figure1_pair):
    interp, closure = figure1_pair
    for seed in (0, 1, 7):
        for nthreads in (1, 4):
            setup = figure1_setup(nthreads)
            assert (run_signature(closure.run_protected(
                        nthreads, seed=seed, setup=setup))
                    == run_signature(interp.run_protected(
                        nthreads, seed=seed, setup=setup)))
            assert (run_signature(closure.run_baseline(
                        nthreads, seed=seed, setup=setup))
                    == run_signature(interp.run_baseline(
                        nthreads, seed=seed, setup=setup)))


def test_figure1_closure_o2_matches_interpreter_o0(figure1_pair):
    interp, _ = figure1_pair
    optimized = ParallelProgram(FIGURE_1, "figure1", opt_level=2,
                                backend="closure")
    for seed in (0, 5):
        assert (run_signature(optimized.run_protected(
                    4, seed=seed, setup=figure1_setup(4)))
                == run_signature(interp.run_protected(
                    4, seed=seed, setup=figure1_setup(4))))


def _assert_kernel_identity(name):
    spec = kernel(name)
    setup = spec.setup(4)
    interp = ParallelProgram(spec.source, spec.name, entry=spec.entry)
    reference = run_signature(interp.run_protected(4, seed=3, setup=setup))
    closure = ParallelProgram(spec.source, spec.name, entry=spec.entry,
                              backend="closure")
    assert run_signature(closure.run_protected(
        4, seed=3, setup=setup)) == reference
    optimized = ParallelProgram(spec.source, spec.name, entry=spec.entry,
                                opt_level=2, backend="closure")
    assert run_signature(optimized.run_protected(
        4, seed=3, setup=setup)) == reference


@pytest.mark.parametrize("name", FAST_KERNELS)
def test_kernel_identity_across_backends(name):
    _assert_kernel_identity(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_KERNELS)
def test_kernel_identity_across_backends_slow(name):
    _assert_kernel_identity(name)


@pytest.mark.parametrize("fault_type",
                         [FaultType.BRANCH_FLIP, FaultType.BRANCH_CONDITION])
def test_injected_runs_identical(figure1_pair, fault_type):
    interp, closure = figure1_pair
    for tid in (0, 2):
        for branch_index in (1, 8):
            outcomes = {}
            for label, program in (("interp", interp), ("closure", closure)):
                hook = InjectingHook(FaultSpec(fault_type, tid, branch_index))
                result = program.run_protected(4, seed=0,
                                               setup=figure1_setup(4),
                                               fault_hook=hook)
                outcomes[label] = (run_signature(result), hook.activated,
                                   hook.flipped_branch, result.detected)
            assert outcomes["interp"] == outcomes["closure"], (
                fault_type, tid, branch_index)


def test_run_config_backend_overrides_program_default(figure1_pair):
    interp, _ = figure1_pair
    reference = run_signature(interp.run_protected(4, seed=0,
                                                   setup=figure1_setup(4)))
    overridden = interp.run(
        RunConfig(nthreads=4, seed=0, backend="closure"),
        setup=figure1_setup(4))
    assert run_signature(overridden) == reference


def test_backend_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "closure")
    program = ParallelProgram(FIGURE_1, "figure1")
    assert program.backend == "closure"
    monkeypatch.setenv("REPRO_BACKEND", "llvm")
    with pytest.raises(ValueError):
        ParallelProgram(FIGURE_1, "figure1")


def test_get_compiled_memoizes_per_module(figure1_pair):
    _, closure = figure1_pair
    module = closure.protected
    assert get_compiled(module, nthreads=4) is get_compiled(module,
                                                            nthreads=4)
    assert get_compiled(module, nthreads=4) is not get_compiled(module,
                                                                nthreads=2)


def test_compiled_code_is_freed_with_its_module():
    """Compiled code hangs off its module, so dropping a program frees
    both images' modules: live modules stay flat over repeated cold
    builds."""
    spec = kernel("radix")
    counts = []
    for _ in range(3):
        program = ParallelProgram(spec.source, spec.name, entry=spec.entry,
                                  opt_level=2, backend="closure")
        for module in (program.baseline, program.protected):
            get_compiled(module, CostModel(), 4)
        del program, module
        gc.collect()
        counts.append(sum(1 for obj in gc.get_objects()
                          if isinstance(obj, Module)))
    assert counts[0] == counts[1] == counts[2], counts


def test_closure_compiled_program_pickles_and_reruns():
    program = ParallelProgram(FIGURE_1, "figure1", opt_level=2,
                              backend="closure")
    before = program.run_protected(4, seed=3, setup=figure1_setup(4))
    assert program.protected.compiled
    restored = pickle.loads(pickle.dumps(program))
    assert restored.protected.compiled == {}
    after = restored.run_protected(4, seed=3, setup=figure1_setup(4))
    # Steps, parallel_time and every other traced channel match.
    assert run_signature(after) == run_signature(before)
