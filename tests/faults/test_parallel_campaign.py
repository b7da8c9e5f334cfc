"""Campaign determinism across ``jobs`` values — the tentpole contract:
``run_campaign(..., jobs=N)`` is bit-identical to the serial run for any
``N`` and any chunking, and the per-injection fault plans match
spec-for-spec."""

import pytest

from repro.faults import (
    FaultType,
    injection_seed,
    plan_injection,
    run_campaign,
    run_false_positive_trial,
)
from repro.runtime import ParallelProgram
from tests.conftest import FIGURE_1, figure1_setup, spec_for


@pytest.fixture(scope="module")
def program():
    return ParallelProgram(FIGURE_1, "fig1")


SEED = 9
INJECTIONS = 16


def spec(program, fault_type=FaultType.BRANCH_FLIP):
    return spec_for(program, fault=fault_type, nthreads=4,
                    injections=INJECTIONS, seed=SEED,
                    output_globals=("result",))


class TestJobsDeterminism:
    @pytest.mark.parametrize("fault_type", list(FaultType))
    def test_jobs4_matches_serial(self, program, fault_type):
        serial = run_campaign(spec(program, fault_type), program=program,
                              setup=figure1_setup(4), keep_records=True,
                              jobs=1)
        pooled = run_campaign(spec(program, fault_type), program=program,
                              setup=figure1_setup(4), keep_records=True,
                              jobs=4)
        assert serial.stats == pooled.stats
        assert ([r.spec for r in serial.records]
                == [r.spec for r in pooled.records])
        assert ([r.outcome for r in serial.records]
                == [r.outcome for r in pooled.records])

    def test_partitioning_does_not_matter(self, program):
        """Different worker counts produce different chunkings; the
        statistics must not move."""
        stats = [run_campaign(spec(program), program=program,
                              setup=figure1_setup(4), jobs=jobs).stats
                 for jobs in (2, 3)]
        assert stats[0] == stats[1]

    def test_plans_are_partition_independent(self, program):
        """The spec of injection i can be recomputed in isolation —
        exactly what each pool worker does."""
        serial = run_campaign(spec(program), program=program,
                              setup=figure1_setup(4), keep_records=True,
                              jobs=1)
        golden = serial.golden
        for index, record in enumerate(serial.records):
            replanned = plan_injection(FaultType.BRANCH_FLIP,
                                       golden.branch_counts,
                                       SEED, index)
            assert replanned == record.spec

    def test_progress_callback_reaches_total(self, program):
        seen = []
        run_campaign(spec(program), program=program,
                     setup=figure1_setup(4), jobs=2,
                     progress=lambda done, total, secs:
                         seen.append((done, total)))
        assert seen and seen[-1][0] == INJECTIONS
        assert all(total == INJECTIONS for _, total in seen)

    def test_false_positive_trial_jobs_parity(self, program):
        serial = run_false_positive_trial(program, 4, 8, 321,
                                          setup=figure1_setup(4), jobs=1)
        pooled = run_false_positive_trial(program, 4, 8, 321,
                                          setup=figure1_setup(4), jobs=3)
        assert serial == pooled == 0


class TestSeedStability:
    def test_plans_stable_across_processes(self, program):
        """injection_seed is PYTHONHASHSEED-free, so a campaign's fault
        plan is a pure function of (seed, fault type, index) — this is
        what the old ``hash(fault_type.value)`` seeding violated."""
        first = [injection_seed(SEED, FaultType.BRANCH_CONDITION, i)
                 for i in range(4)]
        second = [injection_seed(SEED, FaultType.BRANCH_CONDITION, i)
                  for i in range(4)]
        assert first == second
        assert len(set(first)) == 4
