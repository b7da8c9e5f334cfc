"""Ablation studies of the design choices DESIGN.md calls out.

Not a paper figure: these quantify the two optimizations of Section
III-A and the nesting cutoff on our substrate.

* **Promotion (optimization 1)** — promoting `none` branches to the
  partial check buys detection on none-heavy programs at some extra
  messages.
* **Critical-section elision (optimization 2)** — keeping checks out of
  lock regions saves messages with zero coverage cost by construction.
* **Nesting cutoff** — raising the cutoff beyond 6 recovers raytrace's
  unchecked deep branches (at a hash-key cost the paper declines to pay).
"""

import pytest

from repro.analysis import AnalysisConfig, format_table
from repro.faults import CampaignSpec, run_campaign
from repro.splash2 import kernel


def campaign_coverage(prog, spec, injections=40, seed=9):
    campaign = CampaignSpec.for_kernel(spec.name, fault="flip", nthreads=4,
                                       injections=injections, seed=seed)
    stats = run_campaign(campaign, program=prog).stats
    return stats.coverage_protected


def test_promotion_ablation(benchmark, save_result):
    """Optimization 1 on a none-heavy program (FMM)."""
    spec = kernel("fmm")

    def measure():
        with_promo = spec.program(AnalysisConfig(promote_none_to_partial=True))
        without = spec.program(AnalysisConfig(promote_none_to_partial=False))
        return (with_promo.checked_branch_count(),
                without.checked_branch_count(),
                campaign_coverage(with_promo, spec),
                campaign_coverage(without, spec))

    checked_on, checked_off, cov_on, cov_off = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert checked_on > checked_off
    assert cov_on >= cov_off - 1e-9
    save_result("ablation_promotion", format_table(
        ["promotion", "checked branches", "flip coverage"],
        [["on", checked_on, "%.1f%%" % (100 * cov_on)],
         ["off", checked_off, "%.1f%%" % (100 * cov_off)]],
        title="Ablation: none->partial promotion (FMM)"))


def test_critical_section_elision_ablation(benchmark, save_result):
    """Optimization 2: the elided branches produce no coverage, only
    messages — checking them costs overhead for nothing."""
    spec = kernel("ocean_contig")

    def measure():
        elided = spec.program(AnalysisConfig(elide_critical_sections=True))
        checked = spec.program(AnalysisConfig(elide_critical_sections=False))
        return (elided.checked_branch_count(),
                checked.checked_branch_count(),
                elided.overhead(4, setup=spec.setup(4)),
                checked.overhead(4, setup=spec.setup(4)))

    n_elided, n_checked, ov_elided, ov_checked = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert n_checked >= n_elided
    save_result("ablation_critical_sections", format_table(
        ["critical sections", "checked branches", "overhead @4thr"],
        [["elided (paper)", n_elided, "%.2fx" % ov_elided],
         ["checked", n_checked, "%.2fx" % ov_checked]],
        title="Ablation: critical-section check elision (continuous ocean)"))


def test_nesting_cutoff_ablation(benchmark, save_result):
    """Raytrace's unchecked deep branches come back if the cutoff rises."""
    spec = kernel("raytrace")

    def measure():
        default = spec.program(AnalysisConfig(max_loop_nesting=6))
        deep = spec.program(AnalysisConfig(max_loop_nesting=10))
        shallow = spec.program(AnalysisConfig(max_loop_nesting=3))
        return (shallow.checked_branch_count(),
                default.checked_branch_count(),
                deep.checked_branch_count())

    at3, at6, at10 = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert at3 < at6 < at10
    save_result("ablation_nesting", format_table(
        ["max nesting", "checked branches"],
        [[3, at3], [6, at6], [10, at10]],
        title="Ablation: loop-nesting cutoff (raytrace)"))


def test_redundant_check_elision_ablation(benchmark, save_result):
    """Section VI: 'there may be many branches that depend on the same
    set of variables... it is sufficient to check one of the branches.'"""
    spec = kernel("ocean_contig")

    def measure():
        base = spec.program(AnalysisConfig())
        elided = spec.program(AnalysisConfig(elide_redundant_checks=True))
        return (base.checked_branch_count(),
                elided.checked_branch_count(),
                base.overhead(4, setup=spec.setup(4)),
                elided.overhead(4, setup=spec.setup(4)),
                campaign_coverage(base, spec),
                campaign_coverage(elided, spec))

    n_base, n_elided, ov_base, ov_elided, cov_base, cov_elided = (
        benchmark.pedantic(measure, rounds=1, iterations=1))
    assert n_elided < n_base
    assert ov_elided <= ov_base + 1e-9
    save_result("ablation_redundant", format_table(
        ["redundant checks", "checked branches", "overhead @4thr",
         "flip coverage"],
        [["kept (default)", n_base, "%.2fx" % ov_base,
          "%.1f%%" % (100 * cov_base)],
         ["elided (Section VI)", n_elided, "%.2fx" % ov_elided,
          "%.1f%%" % (100 * cov_elided)]],
        title="Ablation: same-variable redundant-check elision "
              "(continuous ocean)"))


def test_queue_capacity_backpressure(benchmark, save_result):
    """A tiny front-end queue forces producer stalls; the paper sizes the
    queues 'sufficiently large' to avoid exactly this."""
    from repro.instrument import InstrumentConfig
    from repro.runtime import ParallelProgram

    spec = kernel("radix")

    def measure():
        tiny = ParallelProgram(spec.source, "radix.tiny",
                               instrument_config=InstrumentConfig(
                                   queue_capacity=4, monitor_batch=2))
        roomy = ParallelProgram(spec.source, "radix.roomy")
        tiny_run = tiny.run_protected(4, setup=spec.setup(4))
        roomy_run = roomy.run_protected(4, setup=spec.setup(4))
        assert tiny_run.status == roomy_run.status == "ok"
        assert not tiny_run.detected and not roomy_run.detected
        return (tiny_run.monitor.queue_pressure(),
                roomy_run.monitor.queue_pressure())

    tiny_stalls, roomy_stalls = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
    assert tiny_stalls > roomy_stalls
    save_result("ablation_queue_capacity", format_table(
        ["queue capacity", "producer stall events"],
        [["4 slots", tiny_stalls], ["4096 slots (default)", roomy_stalls]],
        title="Ablation: front-end queue sizing (radix)"))


def test_store_checking_ablation(benchmark, save_result):
    """The closing future-work extension: checking shared store values
    catches data-register corruptions no control check can see; this
    ablation reports its cost and reach on a store-heavy custom kernel."""
    from repro.runtime import ParallelProgram

    source = """
    global int nprocs;
    global int n = 24;
    global int table[256];
    global barrier bar;

    func slave() {
      local int t = tid();
      local int stamp = n * 5 + 3;       // shared register
      if (stamp > 100000) { table[255] = 0; }
      local int i;
      for (i = 0; i < n; i = i + 1) {
        table[t * 32 + i %% 32] = stamp + i;
      }
      barrier(bar);
    }
    """.replace("%%", "%")

    def measure():
        plain = ParallelProgram(source, "st.plain")
        checked = ParallelProgram(
            source, "st.checked",
            analysis_config=AnalysisConfig(check_stores=True))
        setup = lambda m: m.set_scalar("nprocs", 4)  # noqa: E731
        plain_run = plain.run_protected(4, setup=setup)
        checked_run = checked.run_protected(4, setup=setup)
        assert plain_run.status == checked_run.status == "ok"
        assert not plain_run.detected and not checked_run.detected
        return (plain.checked_branch_count(),
                checked.checked_branch_count(),
                plain.overhead(4, setup=setup),
                checked.overhead(4, setup=setup))

    n_plain, n_checked, ov_plain, ov_checked = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert n_checked > n_plain
    save_result("ablation_store_checking", format_table(
        ["store checking", "checks", "overhead @4thr"],
        [["off (paper)", n_plain, "%.2fx" % ov_plain],
         ["on (future-work extension)", n_checked, "%.2fx" % ov_checked]],
        title="Ablation: shared-store value checking (custom store-heavy "
              "kernel)"))
