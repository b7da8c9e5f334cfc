"""Prediction-vs-measurement validation of the vulnerability analyzer.

For each selected SPLASH-2 kernel, compiled under the *sparse-check*
profile (redundant checks elided, no ``none`` → ``partial`` promotion —
the configuration where flip faults can actually escape monitoring):

1. run a full branch-flip sweep with per-record outcomes,
2. join every activated injection against the static per-site class
   predicted by :mod:`repro.lint.vuln` (monitored / masked / sdc-prone),
3. report per-class detection and SDC rates, prediction precision and
   recall, and the stratified estimator's coverage error at a quarter of
   the full sweep's budget.

The acceptance bar (enforced by ``repro-lint vuln --validate --check``
and mirrored here): predicted-monitored sites must show a strictly
higher measured detection rate than predicted-SDC-prone sites, and the
stratified estimate must land within ±5 percentage points of the full
sweep.

Knobs: ``REPRO_FAULTS`` (full-sweep injections per kernel, default
120), ``REPRO_JOBS`` (worker processes), ``REPRO_STORE`` (cache for
kernel compiles, goldens, and per-function vulnerability summaries).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.analysis import AnalysisConfig, format_table
from repro.faults import CampaignSpec, check_validation, validate_predictions
from repro.lint.vuln import analyze_program
from repro.splash2 import kernel
from repro.store import default_store

#: Kernels with a non-trivial predicted-class mix under the
#: sparse-check profile (others predict all-monitored, which validates
#: trivially and measures nothing).
KERNELS: Tuple[str, ...] = ("radix", "water_nsquared")

SPARSE = AnalysisConfig(elide_redundant_checks=True,
                        promote_none_to_partial=False)

NTHREADS = 4
SEED = 99
BUDGET_FRACTION = 0.25


def env_injections(default: int = 120) -> int:
    return int(os.environ.get("REPRO_FAULTS", default))


def compute(kernels: Tuple[str, ...] = KERNELS,
            injections: int = None,
            jobs: int = None) -> List[Dict]:
    """One validation result dict per kernel (see
    :func:`repro.faults.validate_predictions` for the schema),
    plus a ``"failures"`` key listing violated acceptance checks."""
    injections = injections if injections is not None else env_injections()
    store = default_store()
    results = []
    for name in kernels:
        spec = CampaignSpec.for_kernel(name, fault="flip",
                                       injections=injections,
                                       nthreads=NTHREADS, seed=SEED)
        program = kernel(name).program(analysis_config=SPARSE)
        report = analyze_program(program,
                                 output_globals=spec.output_globals,
                                 store=store)
        result = validate_predictions(
            spec, program=program, report=report, store=store,
            budget_fraction=BUDGET_FRACTION, jobs=jobs)
        result["failures"] = check_validation(result)
        results.append(result)
    return results


def render() -> str:
    results = compute()
    rows = []
    for result in results:
        for cls in ("monitored", "masked", "sdc-prone"):
            census = result["classes"].get(cls)
            if census is None:
                continue
            rows.append([
                result["program"], cls, census["activated"],
                _rate(census["detection_rate"]),
                _rate(census["sdc_rate"]),
            ])
        rows.append([
            result["program"], "(overall)", result["injections"],
            "precision %s / recall %s" % (_rate(result["precision"]),
                                          _rate(result["recall"])),
            "stratified err %+.1fpp @ %d inj"
            % (100 * result["stratified"]["error"],
               result["stratified"]["budget"]),
        ])
    table = format_table(
        ["kernel", "predicted class", "activated", "detection rate",
         "SDC rate"],
        rows,
        title="Vulnerability-prediction validation: branch-flip faults, "
              "sparse-check profile, %d injections per kernel"
              % results[0]["injections"] if results else "(no kernels)")
    failures = [f for r in results for f in r["failures"]]
    verdict = ("all acceptance checks passed" if not failures
               else "FAILED: " + "; ".join(failures))
    return table + "\n" + verdict


def _rate(value) -> str:
    return "n/a" if value is None else "%.3f" % value
