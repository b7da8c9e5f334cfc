"""Fault injection: models, the injecting hook, and campaign drivers."""

from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    InjectionRecord,
    allocate_stratified,
    golden_run,
    injection_seed,
    plan_injection,
    plan_stratified,
    run_campaign,
    run_false_positive_trial,
    run_one_injection,
)
from repro.faults.injector import InjectingHook, plan_fault
from repro.faults.models import FaultSpec, FaultType
from repro.faults.outcomes import CampaignStats, Outcome
from repro.faults.recording import RecordingHook, record_site_streams
from repro.faults.spec import CampaignSpec, SpecSetup
from repro.faults.validation import check_validation, validate_predictions

__all__ = [
    "CampaignConfig", "CampaignResult", "CampaignSpec", "InjectionRecord",
    "SpecSetup",
    "allocate_stratified", "check_validation",
    "golden_run", "injection_seed", "plan_injection", "plan_stratified",
    "run_campaign", "run_false_positive_trial",
    "run_one_injection", "InjectingHook", "plan_fault",
    "FaultSpec", "FaultType", "CampaignStats", "Outcome",
    "RecordingHook", "record_site_streams", "validate_predictions",
]
