"""The ``repro-triage`` command: run a campaign and triage its output.

    repro-triage kernel:radix --fault flip -n 400          # text report
    repro-triage kernel:radix -n 400 --format json
    repro-triage kernel:radix -n 400 --jobs 4 -o report.json --format json
    repro-triage kernel:radix -n 400 --baseline .github/triage-baseline.json
    repro-triage kernel:radix -n 400 --update-baseline

Campaign arguments are exactly those of ``repro-minic inject`` /
``repro-serve submit`` (one shared :class:`repro.CampaignSpec`
translation).  Telemetry defaults to *on* — triage wants the event
subtraces and the performance arm — and can be dropped with
``--no-telemetry``.

With ``--baseline``, the run fails (exit 1) only on failure modes
beyond the baseline: a cluster hash the baseline has never seen, or a
performance anomaly at a (class, thread, metric) the baseline does not
carry.  ``--update-baseline`` regenerates the baseline file atomically.
Exit status: 0 — clean, 1 — drift beyond the baseline, 2 — usage or
I/O problems.  Reports are deterministic: byte-identical under any
``--jobs`` value.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Set, Tuple

from repro.cliutil import (add_shared_options, emit, load_json,
                            update_baseline)

DEFAULT_TRIAGE_BASELINE = ".github/triage-baseline.json"


def _open_store(root: Optional[str]):
    if not root:
        return None
    from repro.store import open_store
    return open_store(root)


def _baseline_keys(payload: dict) -> Tuple[Set[str], Set[Tuple]]:
    """(cluster hashes, perf anomaly coordinates) of one report dict."""
    hashes = {cluster["hash"] for cluster in payload.get("clusters", ())}
    anomalies = set()
    for entry in payload.get("perf", {}).get("classes", ()):
        for anomaly in entry.get("anomalies", ()):
            anomalies.add((entry["rank"], anomaly["tid"],
                           anomaly["metric"]))
    return hashes, anomalies


def _drift(current: dict, baseline: dict) -> List[str]:
    base_hashes, base_anomalies = _baseline_keys(baseline)
    fresh: List[str] = []
    for cluster in current.get("clusters", ()):
        if cluster["hash"] not in base_hashes:
            rep = cluster["representative"]
            fresh.append(
                "new failure mode %s... (%dx %s at %s; rep inj %d: %s)"
                % (cluster["hash"][:12], cluster["members"],
                   cluster["outcome"], cluster["site"],
                   rep["injection"], rep["detail"] or "(no detail)"))
    _, current_anomalies = _baseline_keys(current)
    for rank, tid, metric in sorted(current_anomalies - base_anomalies):
        fresh.append("new perf anomaly: class %d thread %d metric %s"
                     % (rank, tid, metric))
    return fresh


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-triage",
        description="Run a fault-injection campaign and report its "
                    "clustered failure modes plus similarity-based "
                    "performance anomalies.")
    parser.add_argument("program",
                        help="MiniC source file or kernel:NAME")
    parser.add_argument("--entry", default="slave",
                        help="SPMD worker function (default: slave)")
    parser.add_argument("-t", "--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--set", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="set a scalar global before the run")
    parser.add_argument("--fill", action="append", default=[],
                        metavar="ARRAY=V0,V1,...",
                        help="fill an array global before the run")
    parser.add_argument("-n", "--injections", type=int, default=100)
    parser.add_argument("--fault", choices=("flip", "condition"),
                        default="flip")
    parser.add_argument("--outputs", default="",
                        help="comma-separated result globals for SDC "
                             "comparison")
    parser.add_argument("--quantize", type=int, default=0,
                        help="low-order result bits ignored in comparison")
    parser.add_argument("--plan", choices=("full", "stratified"),
                        default="full")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip per-injection event traces (loses the "
                             "trace witness tokens and the performance "
                             "arm)")
    parser.add_argument("--merge-distance", type=int, default=1,
                        metavar="D",
                        help="merge witness buckets within D token edits "
                             "of a same-site bucket (default: 1; 0 = "
                             "exact-hash clusters only)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--baseline", metavar="FILE",
                        help="previous JSON report; fail only on failure "
                             "modes or perf anomalies beyond it")
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the baseline file atomically "
                             "(default target: %s)"
                             % DEFAULT_TRIAGE_BASELINE)
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the report here instead of stdout")
    add_shared_options(parser, "jobs", "opt", "store")
    args = parser.parse_args(argv)

    from repro.cli import campaign_spec_from_args
    from repro.faults.campaign import run_campaign
    from repro.triage import triage_campaign

    store = _open_store(args.store)
    try:
        spec = campaign_spec_from_args(args).replace(
            telemetry=not args.no_telemetry)
        result = run_campaign(spec, jobs=args.jobs, store=store,
                              keep_records=True)
        report = triage_campaign(result, spec=spec, store=store,
                                 merge_distance=args.merge_distance)
    except SystemExit:
        raise
    except Exception as exc:
        print("error: triage failed: %s" % exc, file=sys.stderr)
        return 2

    payload = report.to_dict()
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if args.update_baseline:
        target = args.baseline or DEFAULT_TRIAGE_BASELINE
        return update_baseline(target, json_text,
                               "triage baseline updated: %s (%d cluster(s))"
                               % (target, payload["summary"]["clusters"]))

    text = json_text if args.format == "json" else report.render_text() + "\n"
    status = emit(text, args.output)
    if status:
        return status

    if args.baseline:
        try:
            baseline = load_json(args.baseline, "triage baseline")
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        fresh = _drift(payload, baseline)
        if fresh:
            print("%d finding(s) beyond baseline:" % len(fresh),
                  file=sys.stderr)
            for line in fresh:
                print("  " + line, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
