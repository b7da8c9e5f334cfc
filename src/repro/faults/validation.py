"""Hold the static vulnerability predictor to measured ground truth.

:func:`validate_predictions` joins a full fault-injection sweep against
the per-site predictions of :mod:`repro.lint.vuln`: every injection
record's ``(thread, k)`` coordinates resolve — through the golden
branch streams of :mod:`repro.faults.recording` — to a static site and
therefore to a predicted class, giving per-class *measured* detection
rates, a precision/recall summary for the ``monitored`` prediction, and
a stratified-vs-full coverage comparison.  This is the harness behind
``repro-lint vuln --validate``.

Everything returned is a plain JSON-safe dict (sorted keys, no object
identities), deterministic in the campaign spec.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.campaign import run_campaign
from repro.faults.outcomes import Outcome
from repro.faults.recording import record_site_streams
from repro.faults.spec import CampaignSpec

#: Schema of the validation payload (bump on shape changes).
VALIDATION_SCHEMA = 1

#: Acceptance tolerance: the stratified coverage estimate must land
#: within this many percentage points of the full sweep's measurement.
ESTIMATE_TOLERANCE = 0.05


def _rate(numerator: int, denominator: int) -> Optional[float]:
    return (numerator / denominator) if denominator else None


def validate_predictions(spec: CampaignSpec, program=None, setup=None,
                         report=None, store=None,
                         budget_fraction: float = 0.25,
                         jobs: Optional[int] = None) -> dict:
    """Measure the predictor against the full campaign ``spec`` describes.

    Runs the full sweep (``spec.injections`` uniform injections, records
    kept), attributes every outcome to its predicted class, then runs a
    stratified campaign on ``budget_fraction`` of the injections and
    compares coverage estimates.  ``program`` overrides the compiled
    program (e.g. one built with a custom analysis profile) and
    ``setup`` the spec's default inputs.  ``report`` may be a
    pre-computed :class:`~repro.lint.vuln.VulnReport`; ``store`` caches
    golden runs and per-function summaries.
    """
    from repro.lint.vuln import CLASS_MONITORED, CLASS_SDC, analyze_program

    if program is None:
        program = spec.resolve_program(store)
    if setup is None:
        setup = spec.default_setup()
    config = spec.campaign_config()
    if report is None:
        report = analyze_program(program,
                                 output_globals=config.output_globals,
                                 store=store)
    streams = record_site_streams(program, config, setup=setup,
                                  report=report)
    model = spec.fault

    full = run_campaign(spec, program=program, setup=setup,
                        keep_records=True, jobs=jobs, store=store)

    classes: dict = {}
    detected_total = 0
    detected_monitored = 0
    for record in full.records:
        stream = streams.get(record.spec.thread_id, ())
        k = record.spec.branch_index
        if not 1 <= k <= len(stream):
            continue  # never planned in practice (k comes from counts)
        cls = report.class_of(stream[k - 1], model)
        census = classes.setdefault(cls, {
            "injections": 0, "activated": 0, "detected": 0, "sdc": 0,
            "masked": 0, "crash_hang": 0})
        census["injections"] += 1
        if record.outcome is Outcome.NOT_ACTIVATED:
            continue
        census["activated"] += 1
        if record.outcome is Outcome.DETECTED:
            census["detected"] += 1
            detected_total += 1
            if cls == CLASS_MONITORED:
                detected_monitored += 1
        elif record.outcome is Outcome.SDC:
            census["sdc"] += 1
        elif record.outcome is Outcome.MASKED:
            census["masked"] += 1
        else:
            census["crash_hang"] += 1
    for census in classes.values():
        census["detection_rate"] = _rate(census["detected"],
                                         census["activated"])
        census["sdc_rate"] = _rate(census["sdc"], census["activated"])

    monitored = classes.get(CLASS_MONITORED, {})
    activated_monitored = monitored.get("activated", 0)
    precision = _rate(detected_monitored, activated_monitored)
    recall = _rate(detected_monitored, detected_total)

    budget = max(1, int(config.injections * budget_fraction))
    strat = run_campaign(spec.replace(injections=budget, plan="stratified"),
                         program=program, setup=setup, jobs=jobs,
                         store=store, vuln_report=report)
    estimate = strat.stratified["estimate"]["coverage_protected"]
    measured = full.stats.coverage_protected

    return {
        "schema": VALIDATION_SCHEMA,
        "program": program.name,
        "model": model,
        "nthreads": config.nthreads,
        "seed": config.seed,
        "injections": config.injections,
        "predicted": report.summary()[model],
        "classes": {cls: dict(sorted(census.items()))
                    for cls, census in sorted(classes.items())},
        "precision": precision,
        "recall": recall,
        "coverage_full": measured,
        "stratified": {
            "budget": budget,
            "coverage_estimate": estimate,
            "error": estimate - measured,
            "plan": strat.stratified,
        },
        "sdc_class": CLASS_SDC,
    }


def check_validation(result: dict,
                     tolerance: float = ESTIMATE_TOLERANCE) -> list:
    """Acceptance checks on one validation payload; returns failure
    strings (empty = pass).

    * sites predicted ``monitored`` must have a strictly higher measured
      detection rate than sites predicted ``sdc-prone`` (checked only
      when both classes were exercised);
    * the stratified coverage estimate must land within ``tolerance``
      of the full sweep's measurement.
    """
    from repro.lint.vuln import CLASS_MONITORED, CLASS_SDC

    failures = []
    classes = result["classes"]
    mon = classes.get(CLASS_MONITORED, {}).get("detection_rate")
    sdc = classes.get(CLASS_SDC, {}).get("detection_rate")
    if mon is not None and sdc is not None and not mon > sdc:
        failures.append(
            "detection rate of predicted-monitored sites (%.3f) does not "
            "exceed predicted-sdc-prone sites (%.3f)" % (mon, sdc))
    error = result["stratified"]["error"]
    if abs(error) > tolerance:
        failures.append(
            "stratified estimate off by %.1fpp (>%.0fpp tolerance): "
            "estimate %.4f vs full %.4f"
            % (100 * abs(error), 100 * tolerance,
               result["stratified"]["coverage_estimate"],
               result["coverage_full"]))
    return failures
