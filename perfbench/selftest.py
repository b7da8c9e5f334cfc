#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The correctness gate trips on a perturbed reference record, and
   passes on the pinned one.
2. The exact counts of a traced run (``runtime.steps``,
   ``monitor.checks``, ``monitor.messages_received``,
   ``opt.instructions_saved``, ``triage.clusters``, ``sim.*`` and the
   first round's outcome census) repeat identically across two runs
   in separate processes.
3. BENCHMARK.json declares what ``run.py`` reports.

Exits 0 when every check passes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import ROOT, SRC, declared_units, pin_environment

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_METRICS = ("runtime.steps", "monitor.checks",
                 "monitor.messages_received", "opt.instructions_saved",
                 "triage.clusters", "runtime.live_modules",
                 "sim.parallel_cycles", "sim.overhead")


def gate_trips_on_perturbed_reference() -> None:
    from reference import load_reference
    from workloads import WORKLOADS, Bench

    workload = WORKLOADS["radix-flip-closure"]
    pinned = load_reference()
    perturbed = copy.deepcopy(pinned)
    record = perturbed["workloads"][workload.name]["entries"][0][
        "kernels"]["radix"]
    record["outcomes"] = ("m" if record["outcomes"][0] != "m" else "d") \
        + record["outcomes"][1:]
    record["full"]["steps"] += 1
    # One failed outcome, and one failed FULL run per sweep.
    for reference, expect_failed in ((pinned, 0),
                                     (perturbed, 1 + workload.run_sweeps)):
        work_root = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(work_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
        try:
            bench = Bench(workload, 0, reference, workdir)
            bench.setup_once()
            bench.round(0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert bench.gate.failed == expect_failed, bench.gate.problems
        print("ok: gate reports %d of %d failed%s"
              % (bench.gate.failed, bench.gate.attempted,
                 " on the perturbed reference" if expect_failed else ""))


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    facts = next(line for line in lines
                 if line.startswith("# first-round facts "))
    result = json.loads(lines[-1])
    exact = {name: result["metrics"][name]["value"] for name in EXACT_METRICS}
    census = {key: value for key, value in json.loads(
        facts[len("# first-round facts "):]).items()
        if key.startswith("census.")}
    return {"exact": exact, "census": census,
            "per_layer": set(result["metrics"]), "correct": result["correct"]}


def exact_counts_repeat() -> None:
    for workload in ("radix-flip-closure", "fft-cond-interp"):
        first, second = traced_run(workload, 5), traced_run(workload, 5)
        assert first["correct"] and second["correct"]
        assert first["exact"] == second["exact"], (first, second)
        assert first["census"] == second["census"], (first, second)
        assert first["per_layer"] == set(declared_units()["per_layer"])
        print("ok: %s exact counts repeat: %s census %s"
              % (workload, first["exact"], first["census"]))


def benchmark_json_is_well_formed() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]]
    assert len(names) == len(set(names))
    print("ok: BENCHMARK.json declares %d workloads, %d end-to-end and "
          "%d per-layer metrics" % (len(spec["workloads"]),
                                     len(spec["end_to_end"]),
                                     len(spec["per_layer"])))


def main() -> int:
    pin_environment()
    sys.path.insert(0, SRC)
    benchmark_json_is_well_formed()
    gate_trips_on_perturbed_reference()
    exact_counts_repeat()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
