"""Tests for stratified (prediction-guided) campaign planning."""

import pytest

from repro.analysis import AnalysisConfig
from repro.faults import (
    FaultType,
    allocate_stratified,
    plan_stratified,
    record_site_streams,
    run_campaign,
)
from repro.lint.vuln import analyze_program
from repro.runtime import ParallelProgram
from tests.conftest import FIGURE_1, figure1_setup, spec_for

NTHREADS = 4
BUDGET = 12

SPARSE = AnalysisConfig(elide_redundant_checks=True,
                        promote_none_to_partial=False)


@pytest.fixture(scope="module")
def program():
    # The sparse-check profile leaves some branches unchecked, so the
    # analyzer predicts a mix of classes instead of all-monitored.
    return ParallelProgram(FIGURE_1, "fig1sparse", analysis_config=SPARSE)


@pytest.fixture(scope="module")
def spec(program):
    return spec_for(program, fault="flip", nthreads=NTHREADS,
                    injections=BUDGET, seed=77, output_globals=("result",))


@pytest.fixture(scope="module")
def config(spec):
    return spec.campaign_config()


@pytest.fixture(scope="module")
def report(program):
    return analyze_program(program, output_globals=("result",))


class TestAllocate:
    def test_exact_proportional_split(self):
        assert allocate_stratified(10, {"a": 0.6, "b": 0.4}) \
            == {"a": 6, "b": 4}

    def test_largest_remainder_rounds_deterministically(self):
        out = allocate_stratified(10, {"a": 1.0, "b": 1.0, "c": 1.0})
        assert sum(out.values()) == 10
        assert out == {"a": 4, "b": 3, "c": 3}

    def test_every_stratum_gets_at_least_one(self):
        out = allocate_stratified(10, {"big": 0.99, "tiny": 0.01})
        assert out["tiny"] >= 1
        assert sum(out.values()) == 10

    def test_tight_budget_keeps_heaviest_strata(self):
        out = allocate_stratified(2, {"a": 0.5, "b": 0.3, "c": 0.2})
        assert sum(out.values()) == 2
        assert set(out) == {"a", "b"}

    def test_zero_weight_strata_dropped(self):
        assert "empty" not in allocate_stratified(5, {"a": 1.0, "empty": 0.0})

    def test_zero_budget(self):
        assert allocate_stratified(0, {"a": 1.0}) == {}


class TestPlanning:
    def test_streams_are_deterministic(self, program, config, report):
        setup = figure1_setup(NTHREADS)
        s1 = record_site_streams(program, config, setup=setup, report=report)
        s2 = record_site_streams(program, config, setup=setup, report=report)
        assert s1 == s2
        assert sorted(s1) == list(range(NTHREADS))
        known = {s.site_id for s in report.sites}
        assert all(site in known for stream in s1.values()
                   for site in stream)

    def test_plan_spends_exact_budget(self, program, config, report):
        streams = record_site_streams(program, config,
                                      setup=figure1_setup(NTHREADS),
                                      report=report)
        specs, meta = plan_stratified(report, streams,
                                      FaultType.BRANCH_FLIP, BUDGET, 77)
        assert len(specs) == BUDGET
        assert meta["budget"] == BUDGET
        assert sum(c["planned"] for c in meta["classes"].values()) == BUDGET
        assert sum(c["weight"] for c in meta["classes"].values()) \
            == pytest.approx(1.0)
        # every drawn site belongs to the stratum it was drawn for
        for cls, spec in specs:
            site = streams[spec.thread_id][spec.branch_index - 1]
            assert report.class_of(site, meta["model"]) == cls

    def test_plan_is_deterministic(self, program, config, report):
        streams = record_site_streams(program, config,
                                      setup=figure1_setup(NTHREADS),
                                      report=report)
        a = plan_stratified(report, streams, FaultType.BRANCH_FLIP,
                            BUDGET, 77)
        b = plan_stratified(report, streams, FaultType.BRANCH_FLIP,
                            BUDGET, 77)
        assert a == b


class TestStratifiedCampaign:
    def run(self, program, spec, report, **kwargs):
        return run_campaign(spec.replace(plan="stratified"),
                            program=program, setup=figure1_setup(NTHREADS),
                            vuln_report=report, **kwargs)

    def test_meta_and_estimate_shape(self, program, spec, report):
        result = self.run(program, spec, report)
        assert result.stats.injections == BUDGET
        meta = result.stratified
        assert meta is not None
        est = meta["estimate"]
        assert est["injections"] == BUDGET
        assert 0.0 <= est["coverage_protected"] <= 1.0
        assert 0.0 <= est["coverage_original"] <= 1.0
        for cls in meta["classes"].values():
            assert sum(cls["outcomes"].values()) == cls["planned"]

    def test_every_planned_site_activates(self, program, spec, report):
        # Sites come from a golden-equivalent recording with k <= n_j,
        # so the deterministic replay always reaches them.
        result = self.run(program, spec, report, keep_records=True)
        assert all(r.outcome.value != "not-activated"
                   for r in result.records)
        assert len(result.records) == BUDGET

    def test_parallel_matches_serial(self, program, spec, report):
        serial = self.run(program, spec, report)
        fanned = self.run(program, spec, report, jobs=2)
        assert serial.stats == fanned.stats
        assert serial.stratified == fanned.stratified

    def test_computes_report_when_not_given(self, program, spec):
        result = run_campaign(spec.replace(plan="stratified"),
                              program=program,
                              setup=figure1_setup(NTHREADS))
        assert result.stratified is not None

    def test_full_plan_leaves_stratified_unset(self, program, spec):
        result = run_campaign(spec, program=program,
                              setup=figure1_setup(NTHREADS))
        assert result.stratified is None


class TestRejections:
    def test_unknown_plan(self, program, spec):
        with pytest.raises(ValueError, match="plan"):
            run_campaign(spec.replace(plan="quota"), program=program)

    def test_stratified_rejects_journal(self, program, spec, tmp_path):
        with pytest.raises(ValueError):
            run_campaign(spec.replace(plan="stratified",
                                      journal=str(tmp_path / "j.jsonl")),
                         program=program)

    def test_stratified_rejects_resume(self, program, spec):
        with pytest.raises(ValueError):
            run_campaign(spec.replace(plan="stratified", resume=True),
                         program=program)

    def test_stratified_rejects_telemetry(self, program, spec):
        with pytest.raises(ValueError):
            run_campaign(spec.replace(plan="stratified", telemetry=True),
                         program=program)
