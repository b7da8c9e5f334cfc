#!/usr/bin/env python3
"""Campaign benchmark: one workload, one process, ``jobs=1``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload radix-flip-closure --seed 1 \\
        --seconds 20 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and the metrics in
``BENCHMARK.json``.  A run makes ``--seconds`` worth (on the machine
the workloads were sized on: a fixed count, whatever the speed of the
code) of complete passes of timed rounds over the pinned input pool,
repeats set-up between them, and checks every run, injection and
triage against ``perfbench/reference.json``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also writes its
spans to ``.perfbench_out/``.  The exit code is 0 only if every check
passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import speed  # noqa: F401  (first: lays out the probe's pool)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: What a fresh process runs to time the benchmark's imports, scaled
#: by probes in that process (the first one, cold, is not used).
IMPORT_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:]
import time
import speed
meter = speed.Speedometer()
meter.probe()
before = meter.probe()
started = time.perf_counter()
import reference, spans, workloads
print(repr(meter.scale(time.perf_counter() - started, before)))
"""
#: Variables that would change what a workload runs; cleared.
CLEARED_ENV = ("REPRO_STORE", "REPRO_BACKEND", "REPRO_OPT_LEVEL",
               "REPRO_JOBS")
PINNED_ENV = {"PYTHONHASHSEED": "0"}


def pin_environment() -> None:
    """Re-execute this script under the pinned environment, unless the
    process already runs in it (string hashing is fixed at start-up, so
    ``PYTHONHASHSEED`` cannot be pinned from inside)."""
    if (all(os.environ.get(k) == v for k, v in PINNED_ENV.items())
            and not any(k in os.environ for k in CLEARED_ENV)):
        return
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(sys.argv[0])] + sys.argv[1:],
              env)


def import_seconds() -> float:
    """Seconds the benchmark's imports (the package included) take in a
    fresh process, scaled to the nominal host speed (``speed.py``); the
    process has ended when this returns."""
    return float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC, HERE], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout)


def declared_units() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    BENCHMARK.json, the one definition of the metric set."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from reference import load_reference
    from spans import Tracer
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    bench = Bench(workload, args.seed, load_reference(), workdir,
                  Tracer(enabled=bool(args.trace)))
    try:
        if args.trace:
            metrics = bench.run_traced(args.seconds)
        else:
            metrics = bench.run_untraced(args.seconds, import_seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run's directory is still there
    if set(metrics) != set(units):
        print("perfbench: measured %s but BENCHMARK.json declares %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 2

    gate = bench.gate
    for problem in gate.problems[:20]:
        print("# mismatch: " + problem)
    for line in bench.round_log:
        print("# " + line)
    print("# %s seed %d (pool entry %d): fail_rate %r = %d failed / %d "
          "attempted" % (workload.name, args.seed, bench.start,
                         gate.fail_rate, gate.failed, gate.attempted))
    print("# first-round facts " + json.dumps(bench.first, sort_keys=True))
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "spans-%s-seed%d.jsonl"
                            % (workload.name, args.seed))
        print("# %d spans written to %s"
              % (bench.tracer.write(path), os.path.relpath(path, ROOT)))
    for name in sorted(metrics):
        print("# %-28s %r %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
