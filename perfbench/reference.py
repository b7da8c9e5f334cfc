"""Pinned correctness reference for the benchmark, and its gate.

Every workload runs on one engine (backend + opt level); its reference
was produced once by the *other* engine — interpreter -O0 for the
closure -O2 workloads, closure -O2 for the interpreter workload — and
is committed as ``reference.json``.  Both engines promise identical
simulated executions, so any disagreement is a correctness bug in the
code under test, never tolerated noise.

Per (workload, pool entry, kernel) the reference holds:

* the fault-free baseline, FEED and FULL runs of the golden schedule:
  status, output-signature digest, steps, simulated ``parallel_time``
  and the number of monitor detections (always 0);
* the number of branches the instrumentation checks;
* one outcome letter per injection index of the campaign;
* the triage summary (witnesses, detections, clusters).

Regenerate (only when a workload's definition changes)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SCHEMA = 1


def signature_digest(signature) -> str:
    """Stable digest of a run's output signature (``repr`` of nested
    tuples of ints, floats and strings is process-independent)."""
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()[:24]


def run_record(run, output_globals) -> dict:
    """The facts of one fault-free run that the reference pins."""
    return {
        "status": run.status,
        "signature": signature_digest(run.output_signature(output_globals)),
        "steps": int(run.steps),
        "parallel_time": float(run.parallel_time),
        "detections": len(run.violations),
    }


def outcome_letters(records) -> str:
    """One letter per injection: the first letter of its outcome."""
    return "".join(record.outcome.value[0] for record in records)


def triage_record(report) -> dict:
    summary = report.summary
    return {key: summary[key]
            for key in ("witnesses", "detections", "clusters")}


class Gate:
    """Counts checked operations and the ones that disagree with the
    reference; ``problems`` keeps a readable line per mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, what: str, got, want) -> bool:
        self.attempted += 1
        if got == want:
            return True
        self.failed += 1
        self.problems.append("%s: got %r, reference %r" % (what, got, want))
        return False

    def check_outcomes(self, what: str, got: str, want: str) -> None:
        """One operation per injection index."""
        for index in range(max(len(got), len(want))):
            self.check("%s injection %d" % (what, index),
                       got[index:index + 1], want[index:index + 1])

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != REFERENCE_SCHEMA:
        raise SystemExit("reference %s has schema %r, expected %d"
                         % (path, data.get("schema"), REFERENCE_SCHEMA))
    return data


def generate() -> dict:
    """Compute the reference for every workload on its other engine."""
    from workloads import POOL_SEEDS, WORKLOADS, reference_entry

    data = {"schema": REFERENCE_SCHEMA, "workloads": {}}
    for name, workload in WORKLOADS.items():
        backend, opt_level = workload.reference_engine
        entries = []
        for seed in POOL_SEEDS[:workload.pool_size]:
            print("reference %s seed %d on %s -O%d"
                  % (name, seed, backend, opt_level), file=sys.stderr)
            entries.append(reference_entry(workload, seed))
        data["workloads"][name] = {
            "engine": "%s -O%d" % (backend, opt_level),
            "injections": workload.injections,
            "entries": entries,
        }
    return data


def main() -> int:
    from run import SRC, pin_environment
    pin_environment()
    sys.path.insert(0, SRC)
    data = generate()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % REFERENCE_PATH, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
