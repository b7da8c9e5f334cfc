"""End-to-end pipeline tests through the public facade, plus small fault
campaigns asserting real detection capability on every kernel."""

import pytest

from repro import BlockWatch
from repro.faults import CampaignSpec, Outcome, run_campaign
from repro.splash2 import KERNELS
from tests.conftest import FIGURE_1, figure1_setup

KERNEL_NAMES = sorted(KERNELS)


class TestFacade:
    @pytest.fixture(scope="class")
    def bw(self):
        return BlockWatch(FIGURE_1, name="fig1")

    def test_report_contains_all_categories(self, bw):
        text = bw.report()
        for token in ("threadID", "shared", "partial", "none", "tid_eq"):
            assert token in text

    def test_statistics(self, bw):
        stats = bw.statistics()
        assert stats.total == 4
        assert 0 < stats.similar_fraction <= 1

    def test_run_and_baseline(self, bw):
        protected = bw.run(4, setup=figure1_setup(4))
        baseline = bw.run_baseline(4, setup=figure1_setup(4))
        assert protected.status == baseline.status == "ok"
        assert (protected.memory.get_array("result")
                == baseline.memory.get_array("result"))

    def test_overhead_above_one(self, bw):
        assert bw.overhead(4, setup=figure1_setup(4)) > 1.0

    def test_inject_improves_coverage(self, bw):
        spec = bw.spec(fault="flip", nthreads=4, injections=30,
                       output_globals=("result",))
        stats = bw.inject(spec, setup=figure1_setup(4)).stats
        assert stats.coverage_protected > stats.coverage_original


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_every_kernel_detects_something(name, compiled_kernels):
    """A small flip campaign must produce at least one detection on every
    program (raytrace included — some of its branches are still checked)."""
    _kernel, prog = compiled_kernels[name]
    spec = CampaignSpec.for_kernel(name, fault="flip", nthreads=4,
                                   injections=15, seed=5)
    campaign = run_campaign(spec, program=prog)
    stats = campaign.stats
    assert stats.activated > 0
    assert stats.counts.get(Outcome.DETECTED, 0) > 0, stats.counts
    assert stats.coverage_protected >= stats.coverage_original


def test_coverage_gain_on_protected_programs(compiled_kernels):
    """Aggregate sanity: across the suite (minus raytrace, by design),
    BLOCKWATCH must improve flip coverage substantially."""
    gains = []
    for name in ("radix", "ocean_noncontig"):
        _kernel, prog = compiled_kernels[name]
        spec = CampaignSpec.for_kernel(name, fault="flip", nthreads=4,
                                       injections=25, seed=17)
        stats = run_campaign(spec, program=prog).stats
        gains.append(stats.detection_gain)
    assert max(gains) > 0.3
