"""CampaignSpec: the one serializable description of a campaign.

The contract under test: a spec survives the wire (spec → canonical
JSON → spec) with byte-identical serialization and plan hash, and it is
the only thing the campaign entry points accept.
"""

import json

import pytest

import repro
from repro.errors import SpecError
from repro.faults import CampaignSpec, FaultType, run_campaign
from tests.conftest import FIGURE_1, figure1_setup


def figure1_spec(**overrides):
    base = dict(fault="flip", injections=8, nthreads=4, seed=9,
                output_globals=("result",),
                scalars=(("nprocs", 4),),
                arrays=(("gp", tuple([5, 40, 10, 40] * 16)),))
    base.update(overrides)
    return CampaignSpec.build(FIGURE_1, name="figure1", **base)


class TestRoundTrip:
    def test_json_round_trip_is_byte_identical(self):
        spec = figure1_spec()
        text = spec.to_json()
        again = CampaignSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_round_trip_preserves_plan_hash(self):
        spec = figure1_spec()
        wire = json.loads(spec.to_json())
        again = CampaignSpec.from_dict(wire)
        assert again.plan_hash == spec.plan_hash
        assert again.plan_fingerprint() == spec.plan_fingerprint()

    def test_kernel_spec_round_trips(self):
        spec = CampaignSpec.for_kernel("radix", fault="condition",
                                       injections=5, nthreads=2)
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.is_kernel and again.kernel_name == "radix"

    def test_plan_hash_tracks_the_plan(self):
        spec = figure1_spec()
        assert spec.replace(seed=10).plan_hash != spec.plan_hash
        assert spec.replace(injections=9).plan_hash != spec.plan_hash
        # Journal/store/resume are run-site knobs, not plan inputs.
        assert spec.replace(journal="x.jsonl").plan_hash == spec.plan_hash
        assert spec.replace(resume=True).plan_hash == spec.plan_hash
        assert spec.replace(store="/tmp/s").plan_hash == spec.plan_hash


class TestValidation:
    def test_unknown_field_rejected(self):
        wire = json.loads(figure1_spec().to_json())
        wire["bogus"] = 1
        with pytest.raises(SpecError):
            CampaignSpec.from_dict(wire)

    def test_unknown_schema_rejected(self):
        wire = json.loads(figure1_spec().to_json())
        wire["schema"] = 999
        with pytest.raises(SpecError):
            CampaignSpec.from_dict(wire)

    def test_fault_aliases_normalize(self):
        flip = CampaignSpec.build(FIGURE_1, fault="branch_flip")
        assert flip.fault_type is FaultType.BRANCH_FLIP
        cond = CampaignSpec.build(FIGURE_1, fault="condition")
        assert cond.fault_type is FaultType.BRANCH_CONDITION
        assert flip.fault != cond.fault

    def test_bad_values_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build(FIGURE_1, fault="gamma-ray")
        with pytest.raises(SpecError):
            figure1_spec(injections=0)
        with pytest.raises(SpecError):
            figure1_spec(plan="clever")
        with pytest.raises(SpecError):
            CampaignSpec.for_kernel("no-such-kernel", fault="flip")


class TestExecutionIdentity:
    def test_legacy_positional_requires_config(self):
        """Only a CampaignSpec describes a campaign: the pre-spec call
        shapes fail with one line that says what to pass instead."""
        program = repro.runtime.ParallelProgram(FIGURE_1, "figure1")
        calls = (lambda: run_campaign(program, FaultType.BRANCH_FLIP),
                 lambda: repro.BlockWatch.from_program(program).inject(
                     FaultType.BRANCH_FLIP))
        for call in calls:
            with pytest.raises(TypeError, match="CampaignSpec") as info:
                call()
            assert "\n" not in str(info.value)


class TestBlockWatchSpec:
    @pytest.fixture(scope="class")
    def bw(self):
        return repro.BlockWatch(FIGURE_1, name="figure1")

    def test_spec_builder_inherits_program(self, bw):
        spec = bw.spec(fault="flip", injections=4,
                       output_globals=("result",))
        assert spec.name == "figure1"
        assert spec.fault_type is FaultType.BRANCH_FLIP

    def test_inject_spec_form(self, bw):
        spec = bw.spec(fault="flip", injections=4, seed=9,
                       output_globals=("result",))
        result = bw.inject(spec=spec, setup=figure1_setup(4))
        assert result.stats.injections == 4

    def test_inject_rejects_foreign_spec(self, bw):
        other = CampaignSpec.for_kernel("radix", fault="flip",
                                        injections=4)
        with pytest.raises(SpecError):
            bw.inject(spec=other)
