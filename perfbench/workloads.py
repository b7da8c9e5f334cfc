"""The benchmark's workloads and the measurement loops that drive them.

A workload is a set of SPLASH-2 kernels plus one engine (backend and
opt level) and one fault model.  Its unit of timed work is a *round*
on one input set of the pinned pool (see ``reference.json``): for each
kernel, a cold build, the fault-free baseline, FEED and FULL runs of
the golden schedule, then a uniform-plan campaign through
``run_campaign`` and ``triage_campaign``.  Every build, run, injection
and triage in a round is checked against the reference, which the
other engine produced.

All work runs in this one process at ``jobs=1``.
"""

from __future__ import annotations

import gc
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import CampaignSpec
from repro.faults.campaign import plan_injection, run_campaign
from repro.faults.injector import InjectingHook
from repro.ir.module import Module
from repro.lint.vuln import analyze_program
from repro.monitor import MODE_FEED, MODE_FULL
from repro.runtime.closures import get_compiled
from repro.runtime.costmodel import CostModel
from repro.runtime.interpreter import FaultHook
from repro.runtime.program import ParallelProgram, RunConfig
from repro.splash2.registry import KERNELS
from repro.store.artifacts import ArtifactStore
from repro.telemetry import Telemetry
from repro.triage import triage_campaign

from reference import Gate, outcome_letters, run_record, triage_record
from spans import LayerPatches, Tracer, median, percentile, span_cost
from speed import Speedometer, release

NTHREADS = 4
#: Seeds of the pinned input pools (a workload uses the first
#: ``pool_size``).  Every run visits its whole pool; ``--seed`` picks
#: the entry it starts at.
POOL_SEEDS = tuple(range(101, 109))
#: Set-up, and the import before it, are repeated this many times per
#: run, spread between the rounds, and the median of each taken.
SETUP_REPS = 8
#: Hooked trials per kernel per traced round (prefix/suffix split).
HOOKED_TRIALS = 6
#: Memory is read once set-up and this many rounds are done: a fixed
#: amount of work, however many rounds a run makes.
MEMORY_ROUNDS = 2
#: A traced pass (a plain and a traced round per input set, plus the
#: probes) costs about this many untraced passes.
TRACED_PASS_COST = 2.5
#: No new pass starts once the rounds have taken this long, so that a
#: very slow machine still ends the run in time.  Only complete passes
#: are ever measured.
PASS_DEADLINE_S = 90.0
#: Fault-free runs of the golden schedule: name -> monitor mode.
FAULT_FREE_MODES = {"baseline": None, "feed": MODE_FEED, "full": MODE_FULL}
#: The ones the end-to-end metrics use; FEED runs only serve the traced
#: run's monitor.send_ms.
UNTRACED_MODES = ("baseline", "full")


@dataclass(frozen=True)
class Workload:
    name: str
    kernels: Tuple[str, ...]
    fault: str
    backend: str
    opt_level: int
    #: Injections per kernel per round.
    injections: int
    #: Input sets in the pool; one round runs one of them.
    pool_size: int
    #: Set-up includes a cold build and codegen (the campaign
    #: workloads); every round builds its kernels cold either way.
    setup_builds: bool
    #: Untraced rounds repeat each build and triage this many times
    #: (short items need more repeats to be steady).
    repeats: int
    #: Untraced rounds make the fault-free runs of every input set in
    #: the pool this many times (the programs do not depend on the
    #: inputs), so that each is timed in every round, spread over the
    #: run, rather than in a burst when its own round comes.
    run_sweeps: int
    #: Nominal seconds of one untraced pass over the pool, measured once
    #: on the seed code.  ``--seconds`` divided by it fixes the number
    #: of passes, so every commit gets the same number of repeats.
    pass_seconds: float

    def passes(self, seconds: float, cost: float = 1.0) -> int:
        """Complete passes over the pool that a run of ``seconds``
        makes; depends on the arguments only, never on measured speed."""
        return max(1, int(round(seconds / (cost * self.pass_seconds))))

    @property
    def reference_engine(self) -> Tuple[str, int]:
        """The engine the pinned reference comes from: never this one."""
        if self.backend == "closure":
            return ("interpreter", 0)
        return ("closure", 2)

    def spec(self, kernel: str, seed: int,
             engine: Optional[Tuple[str, int]] = None) -> CampaignSpec:
        backend, opt_level = engine or (self.backend, self.opt_level)
        return CampaignSpec.for_kernel(
            kernel, fault=self.fault, injections=self.injections,
            nthreads=NTHREADS, seed=seed, input_seed=seed,
            backend=backend, opt_level=opt_level)


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="radix-flip-closure", kernels=("radix",), fault="branch-flip",
        backend="closure", opt_level=2, injections=15, pool_size=4,
        setup_builds=True, repeats=3, run_sweeps=1, pass_seconds=9.0),
    Workload(
        name="fft-cond-interp", kernels=("fft",), fault="branch-condition",
        backend="interpreter", opt_level=0, injections=10, pool_size=4,
        setup_builds=True, repeats=3, run_sweeps=1, pass_seconds=10.0),
    Workload(
        name="splash2-suite", kernels=tuple(KERNELS), fault="branch-flip",
        backend="closure", opt_level=2, injections=2, pool_size=1,
        setup_builds=False, repeats=2, run_sweeps=2, pass_seconds=9.0),
)}


# -- the operations of a round ----------------------------------------------

def build_program(spec: CampaignSpec, store: ArtifactStore) -> ParallelProgram:
    """Cold build through ``store`` (frontend, race lint, similarity,
    instrument, opt, store put), then closure codegen of both images."""
    source, name, entry = spec.resolved_source()
    program = store.get_program(source, name, entry=entry,
                                opt_level=spec.opt_level,
                                backend=spec.backend)
    if spec.backend == "closure":
        cost = CostModel()
        for module in (program.baseline, program.protected):
            get_compiled(module, cost, spec.nthreads)
    return program


def fault_free_runs(program: ParallelProgram, spec: CampaignSpec,
                    tracer: Tracer, modes=tuple(FAULT_FREE_MODES),
                    meter: Optional[Speedometer] = None) -> Tuple[
                        Dict[str, object], Dict[str, float]]:
    """Fault-free runs of the golden schedule in ``modes`` (of
    :data:`FAULT_FREE_MODES`); returns the results and their wall times
    in seconds, scaled by ``meter`` if one is given."""
    setup = spec.default_setup()
    results: Dict[str, object] = {}
    seconds: Dict[str, float] = {}
    for mode in modes:
        config = RunConfig(nthreads=spec.nthreads, seed=spec.seed,
                           monitor_mode=FAULT_FREE_MODES[mode],
                           quantum=spec.quantum)
        before = meter.start() if meter else 0.0
        with tracer.span("runtime." + mode) as span:
            results[mode] = program.run(config, setup=setup)
        seconds[mode] = (meter.scale(span.seconds, before) if meter
                         else span.seconds)
    return results, seconds


def reference_entry(workload: Workload, seed: int) -> dict:
    """The pinned facts of one pool entry, computed on the workload's
    reference engine (see reference.py)."""
    tracer = Tracer()
    kernels = {}
    for kernel in workload.kernels:
        spec = workload.spec(kernel, seed, workload.reference_engine)
        source, name, entry = spec.resolved_source()
        program = ParallelProgram(source, name, entry=entry,
                                  opt_level=spec.opt_level,
                                  backend=spec.backend)
        runs, _ = fault_free_runs(program, spec, tracer)
        result = run_campaign(spec, program=program, jobs=1,
                              keep_records=True)
        report = triage_campaign(result, spec=spec, program=program)
        record = {"checked_branches": program.checked_branch_count(),
                  "outcomes": outcome_letters(result.records),
                  "triage": triage_record(report)}
        for mode, run in runs.items():
            record[mode] = run_record(run, spec.output_globals)
        kernels[kernel] = record
    return {"seed": seed, "kernels": kernels}


class StampingHook(FaultHook):
    """Wraps an :class:`InjectingHook` and stamps the wall time at which
    its fault fires, splitting a trial into prefix and suffix."""

    def __init__(self, inner: InjectingHook):
        self.inner = inner
        self.fired_at: Optional[float] = None

    def before_branch(self, machine, thread, branch, frame, taken):
        taken = self.inner.before_branch(machine, thread, branch, frame,
                                         taken)
        if self.fired_at is None and self.inner.activated:
            self.fired_at = time.perf_counter()
        return taken


#: Per-layer metric -> the span whose self time it reports.
SPAN_METRICS = {
    "frontend.compile_ms": "frontend.compile",
    "analysis.similarity_ms": "analysis.similarity",
    "lint.races_ms": "lint.races",
    "lint.vuln_ms": "lint.vuln",
    "instrument.ms": "instrument",
    "opt.ms": "opt",
    "closures.codegen_ms": "closures.codegen",
    "store.put_ms": "store.put",
    "runtime.baseline_ms": "runtime.baseline",
    "faults.golden_ms": "faults.golden",
    "triage.observe_ms": "triage.observe",
    "triage.build_ms": "triage.build",
}


def record(items: Dict[tuple, List[float]], item: tuple,
           seconds: float) -> None:
    """Record a repeat of ``item``."""
    items.setdefault(item, []).append(seconds)


def item_medians(rounds: List[dict]) -> Dict[tuple, float]:
    """Each timed item's median repeat over ``rounds``."""
    repeats: Dict[tuple, List[float]] = {}
    for times in rounds:
        for item, seconds in times["items"].items():
            repeats.setdefault(item, []).extend(seconds)
    return {item: median(seconds) for item, seconds in repeats.items()}


def per_input_set(medians: Dict[tuple, float], pool: int,
                  kinds: Optional[Tuple[str, ...]] = None) -> float:
    """Sum of the median repeats of the items of ``kinds`` (default:
    all), per input set: an item of one input set counts ``1 / pool``,
    an item that does not depend on the inputs (a build: no seed)
    counts whole."""
    return sum(item_s / (1 if item[1] is None else pool)
               for item, item_s in medians.items()
               if kinds is None or item[0] in kinds)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_modules() -> int:
    """IR modules still reachable after a full collection.  A program
    holds two (baseline and protected image); more than the live
    programs need means compiled modules are being retained."""
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Module))


class Bench:
    """One benchmark process: a workload, a pool position, a gate."""

    def __init__(self, workload: Workload, seed: int, reference: dict,
                 workdir: str, tracer: Optional[Tracer] = None):
        self.workload = workload
        self.entries = reference["workloads"][workload.name]["entries"]
        self.start = seed % len(self.entries)
        self.workdir = workdir
        self.tracer = tracer if tracer is not None else Tracer()
        #: End-to-end timings are scaled to a nominal host speed; the
        #: traced run's spans are left as measured.
        self.meter = Speedometer(enabled=not self.tracer.enabled)
        self.gate = Gate()
        #: Repeats of each build and triage in a round, and the
        #: fault-free runs made.  A traced round makes one build, the
        #: three fault-free runs of its own input set and one triage,
        #: so that its span self times are one of each.
        traced = self.tracer.enabled
        self.repeats = 1 if traced else workload.repeats
        self.run_sweeps = 0 if traced else workload.run_sweeps
        self.modes = tuple(FAULT_FREE_MODES) if traced else UNTRACED_MODES
        #: Exact facts of the first round: outcome census, simulated
        #: cycles, triage clusters (see :meth:`_note_first`).
        self.first: Dict[str, float] = {}
        self._stores = 0
        self.round_log: List[str] = []

    # -- helpers ---------------------------------------------------------

    def entry(self, round_index: int) -> dict:
        return self.entries[(self.start + round_index) % len(self.entries)]

    def fresh_store(self) -> ArtifactStore:
        self._stores += 1
        return ArtifactStore(tempfile.mkdtemp(
            prefix="store%d-" % self._stores, dir=self.workdir))

    def campaign(self, spec: CampaignSpec, kernel: str,
                 program: ParallelProgram, items: Dict[tuple, List[float]],
                 ref: dict):
        """One checked ``run_campaign``; records each trial's wall time
        (``progress=`` callback, which fires after each trial, outside
        its timing) and the rest of the campaign (golden run, planning,
        bookkeeping) in ``items``."""
        what = "%s seed %d %s%s" % (self.workload.name, spec.seed, kernel,
                                    " telemetry on" if spec.telemetry else "")
        meter = self.meter
        trials: List[float] = []
        raw = {"trials": 0.0, "before": meter.start()}
        started_before, spent = raw["before"], meter.spent

        def progress(done: int, total: int, seconds: float) -> None:
            raw["trials"] += seconds
            trials.append(meter.scale(seconds, raw["before"]))
            raw["before"] = meter.start()

        with self.tracer.span("faults.campaign") as campaign:
            result = run_campaign(spec, program=program, jobs=1,
                                  keep_records=True, progress=progress)
        rest = campaign.seconds - raw["trials"] - (meter.spent - spent)
        for index, trial_s in enumerate(trials):
            record(items, ("trial", spec.seed, kernel, index), trial_s)
        record(items, ("campaign_rest", spec.seed, kernel, 0),
               meter.scale(rest, started_before))
        self.gate.check_outcomes(what, outcome_letters(result.records),
                                 ref["outcomes"])
        return result

    def build_all(self, entry: dict, items: Dict[tuple, List[float]]) -> Tuple[
            Dict[str, ParallelProgram], ArtifactStore]:
        """Cold-build every kernel into a fresh store and analyze its
        fault vulnerability; returns programs and store, and records
        the build and analysis seconds in ``items``."""
        span, meter = self.tracer.span, self.meter
        store = self.fresh_store()
        programs = {}
        for kernel in self.workload.kernels:
            spec = self.workload.spec(kernel, entry["seed"])
            before = meter.start()
            with span("build") as built:
                programs[kernel] = build_program(spec, store)
            built_s = meter.scale(built.seconds, before)
            before = meter.start()
            with span("lint.vuln") as vuln:
                analyze_program(programs[kernel],
                                output_globals=spec.output_globals)
            # A build does not depend on the inputs: no seed in the key.
            record(items, ("build", None, kernel, 0), built_s)
            record(items, ("vuln", None, kernel, 0),
                   meter.scale(vuln.seconds, before))
            self.gate.check("seed %d %s checked branches"
                            % (entry["seed"], kernel),
                            programs[kernel].checked_branch_count(),
                            entry["kernels"][kernel]["checked_branches"])
        return programs, store

    def warm_get(self, store: ArtifactStore) -> float:
        """Re-fetch every kernel from a populated store (cache hits)."""
        total = 0.0
        for kernel in self.workload.kernels:
            spec = self.workload.spec(kernel, 0)
            source, name, entry = spec.resolved_source()
            with self.tracer.span("store.get_warm") as got:
                store.get_program(source, name, entry=entry,
                                  opt_level=spec.opt_level,
                                  backend=spec.backend)
            total += got.seconds
        return total

    # -- set-up and rounds -------------------------------------------------

    def setup_once(self) -> float:
        """One set-up; returns its seconds, scaled: the input specs, and
        for the campaign workloads a cold build and codegen of their
        kernel."""
        seed = self.entry(0)["seed"]
        store = self.fresh_store() if self.workload.setup_builds else None
        before = self.meter.start()
        with self.tracer.span("setup") as setup:
            specs = [self.workload.spec(kernel, seed)
                     for kernel in self.workload.kernels]
            for spec in specs:
                spec.default_setup()
                if store is not None:
                    with self.tracer.span("build"):
                        build_program(spec, store)
        seconds = self.meter.scale(setup.seconds, before)
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)
        return seconds

    def round(self, index: int) -> dict:
        """One timed round on pool entry ``start + index``.  Returns
        each item's repeats in the round (``items``), the round's root
        span, and the store and programs built in it."""
        entry = self.entry(index)
        times = {"items": {}, "store": None, "programs": None,
                 "entry": entry, "index": index}
        first = not self.first
        own_runs: Dict[str, Dict[str, object]] = {}
        with self.tracer.span("round") as root:
            for _ in range(self.repeats):
                self._drop(times)
                times["programs"], times["store"] = self.build_all(
                    entry, times["items"])
            programs = times["programs"]
            pool = len(self.entries)
            sweep = [self.entry(index + k) for k in range(pool)]
            for other in sweep * self.run_sweeps or [entry]:
                for kernel in self.workload.kernels:
                    runs = self.fault_free(kernel, programs[kernel], other,
                                           times["items"])
                    if other is entry:
                        own_runs[kernel] = runs
            for kernel in self.workload.kernels:
                self._round_kernel(kernel, programs[kernel], entry,
                                   times["items"], own_runs[kernel], first)
        times["root"] = root
        return times

    def fault_free(self, kernel: str, program: ParallelProgram, entry: dict,
                   items: Dict[tuple, List[float]]) -> Dict[str, object]:
        """Checked fault-free runs of ``program`` on one input set."""
        seed = entry["seed"]
        spec = self.workload.spec(kernel, seed)
        runs, seconds = fault_free_runs(program, spec, self.tracer,
                                        self.modes, self.meter)
        for mode, run in runs.items():
            record(items, (mode, seed, kernel, 0), seconds[mode])
            self.gate.check("%s seed %d %s %s run" % (
                self.workload.name, seed, kernel, mode),
                run_record(run, spec.output_globals),
                entry["kernels"][kernel][mode])
        return runs

    def _round_kernel(self, kernel: str, program: ParallelProgram,
                      entry: dict, items: Dict[tuple, List[float]], runs: dict,
                      first: bool) -> None:
        seed = entry["seed"]
        ref = entry["kernels"][kernel]
        spec = self.workload.spec(kernel, seed)
        what = "%s seed %d %s" % (self.workload.name, seed, kernel)
        result = self.campaign(spec, kernel, program, items, ref)
        for _ in range(self.repeats):
            before = self.meter.start()
            with self.tracer.span("triage") as triage:
                report = triage_campaign(result, spec=spec, program=program)
            record(items, ("triage", seed, kernel, 0),
                   self.meter.scale(triage.seconds, before))
            self.gate.check("%s triage" % what, triage_record(report),
                            ref["triage"])
        if first:
            self._note_first(runs, outcome_letters(result.records), report)

    def _note_first(self, runs: dict, letters: str, report) -> None:
        first = self.first
        for letter in letters:
            key = "census." + letter
            first[key] = first.get(key, 0) + 1
        for mode in runs:
            key = "cycles." + mode
            first[key] = first.get(key, 0.0) + runs[mode].parallel_time
        first["triage.clusters"] = (first.get("triage.clusters", 0)
                                    + report.summary["clusters"])

    def log_round(self, label: str, times: dict) -> None:
        """Keep one readable line per round for the run's report."""
        kinds = {}
        for item, repeats in times["items"].items():
            kind = "campaign" if item[0] in ("trial", "campaign_rest") \
                else "build" if item[0] == "vuln" else item[0]
            kinds[kind] = kinds.get(kind, 0.0) + median(repeats)
        self.round_log.append("%s %d seed %d: wall %.3f s, peak rss %.1f "
                              "MB (median repeats: %s)" % (
            label, times["index"], times["entry"]["seed"],
            times["root"].seconds, peak_rss_mb(), ", ".join(
                "%s %.3f" % (kind, kinds[kind]) for kind in
                ("build", "baseline", "feed", "full", "campaign", "triage")
                if kind in kinds)))

    def _passes(self, rounds: int, run_round) -> None:
        """Run ``rounds`` rounds (whole passes over the pool) through
        ``run_round(index)``; stops after a pass if the gate failed or
        :data:`PASS_DEADLINE_S` has passed."""
        pool = len(self.entries)
        started = time.perf_counter()
        for index in range(rounds):
            if index and index % pool == 0 and (
                    self.gate.failed
                    or time.perf_counter() - started > PASS_DEADLINE_S):
                self.round_log.append("stopped after %d of %d passes"
                                      % (index // pool, rounds // pool))
                return
            run_round(index)

    # -- the untraced run ----------------------------------------------------

    def run_untraced(self, seconds: float,
                     time_import: Callable[[], float]) -> Dict[str, float]:
        """End-to-end metrics, tracing off.

        Rounds make ``workload.passes(seconds)`` complete passes over
        the pool.  Every timed item (one kernel's build, fault-free run,
        trial or triage on one input set) repeats the same number of
        times on every commit, each repeat scaled to the nominal host
        speed (:mod:`speed`); a metric adds up each item's median
        repeat per input set (:func:`per_input_set`).

        ``setup_s`` is the median of :data:`SETUP_REPS` timings of the
        import (``time_import``, a fresh process each, scaled there)
        plus the median of as many set-ups, scaled alike; the repeats
        are spread between the rounds."""
        pool = len(self.entries)
        total = pool * self.workload.passes(seconds)
        imports: List[float] = []
        setups: List[float] = []
        rounds: List[dict] = []
        rss_mb: List[float] = []

        def set_up_until(rep: int) -> None:
            while len(setups) < rep:
                imports.append(time_import())
                setups.append(self.setup_once())

        def run_round(index: int) -> None:
            set_up_until(1 + index * SETUP_REPS // total)
            rounds.append(self.round(index))
            self._drop(rounds[-1])
            self.log_round("round", rounds[-1])
            if len(rounds) == MEMORY_ROUNDS:
                rss_mb.append(peak_rss_mb())

        self._passes(total, run_round)
        set_up_until(SETUP_REPS)
        self.round_log.append(
            "set-up: import %.4f s, set-up %.4f s (median of %d each)"
            % (median(imports), median(setups), len(setups)))
        medians = item_medians(rounds)

        def per_entry(*kinds: str) -> float:
            return per_input_set(medians, pool, kinds)

        injections = self.workload.injections * len(self.workload.kernels)
        return {
            "setup_s": median(imports) + median(setups),
            "campaign_ms_per_inj": 1000.0 * per_entry(
                "trial", "campaign_rest") / injections,
            "triage_s": per_entry("triage"),
            "build_s": per_entry("build", "vuln"),
            "baseline_run_ms": 1000.0 * per_entry("baseline"),
            "protected_run_ms": 1000.0 * per_entry("full"),
            "peak_rss_mb": rss_mb[0] if rss_mb else peak_rss_mb(),
        }

    # -- the traced run ------------------------------------------------------

    def run_traced(self, seconds: float) -> Dict[str, float]:
        """Per-layer metrics.  Every round runs twice on the same input
        set, untraced and with span wrappers on the layer boundaries
        (alternating which goes first); their difference is the tracing
        overhead.  Probes outside both (telemetry-on campaign, hooked
        trials, counting runs) supply the rest.  The rounds make
        ``workload.passes(seconds, TRACED_PASS_COST)`` complete passes
        over the pool."""
        tracer = self.tracer
        tracer.enabled = True
        with LayerPatches(tracer):
            for _ in range(SETUP_REPS):
                self.setup_once()
        setup_roots = [span for span in tracer.spans if span.name == "setup"]
        # Warm-up, not measured: a process's first round pays one-time
        # costs (lazy imports, first allocations) that would otherwise
        # land on one side of the first pair.
        self._plain_round(0)
        traced_rounds, plain_rounds, warm, probes = [], [], [], []

        def run_pair(index: int) -> None:
            # Alternate which of the pair goes first, so one-time costs
            # of the first round do not land on one side.
            if index % 2:
                traced = self._traced_round(index)
                plain = self._plain_round(index)
            else:
                plain = self._plain_round(index)
                traced = self._traced_round(index)
            traced_rounds.append(traced)
            plain_rounds.append(plain)
            self.log_round("plain", plain)
            self.log_round("traced", traced)
            warm.append(self.warm_get(traced["store"]))
            with tracer.paused():
                probes.append(self.probe(traced, counting=index == 0))
            self._drop(traced)
            if index == 0:
                # Set-up plus MEMORY_ROUNDS rounds (the plain and the
                # traced one) are done: the fixed point for memory.
                self.first["live_modules"] = live_modules()

        self._passes(len(self.entries) * self.workload.passes(
            seconds, TRACED_PASS_COST), run_pair)
        return self.layer_metrics(setup_roots, traced_rounds, plain_rounds,
                                  warm, probes)

    def _plain_round(self, index: int) -> dict:
        with self.tracer.paused():
            times = self.round(index)
        self._drop(times)
        return times

    def _traced_round(self, index: int) -> dict:
        with LayerPatches(self.tracer):
            return self.round(index)

    @staticmethod
    def _drop(times: dict) -> None:
        """Release what a finished round built: its store directory and
        (suite) its programs, so memory does not grow with rounds."""
        if times["store"] is not None:
            shutil.rmtree(times["store"].root, ignore_errors=True)
            times["store"] = None
        times["programs"] = None
        release()

    def probe(self, traced: dict, counting: bool) -> dict:
        """Untraced extra measurements on the round's input set: a
        campaign with telemetry on (its trials timed like the plain
        round's), hooked trials, and on the first round counting runs."""
        entry = traced["entry"]
        out = {"items": {}, "prefix": [], "suffix": [], "steps_ratio": []}
        for kernel in self.workload.kernels:
            program = traced["programs"][kernel]
            spec = self.workload.spec(kernel, entry["seed"])
            what = "%s seed %d %s" % (self.workload.name, entry["seed"],
                                       kernel)
            result = self.campaign(spec.replace(telemetry=True), kernel,
                                   program, out["items"],
                                   entry["kernels"][kernel])
            golden = result.golden
            for index in range(min(HOOKED_TRIALS, spec.injections)):
                self._hooked_trial(program, spec, golden, index, out, what)
            if counting:
                self._count(program, spec)
        return out

    def _hooked_trial(self, program, spec, golden, index, out, what) -> None:
        fault = plan_injection(spec.fault_type, dict(golden.branch_counts),
                               spec.seed, index)
        hook = StampingHook(InjectingHook(fault))
        config = RunConfig(
            nthreads=spec.nthreads, seed=spec.seed, monitor_mode=MODE_FULL,
            quantum=spec.quantum,
            max_steps=max(golden.steps * spec.hang_factor,
                          golden.steps + 100_000))
        started = time.perf_counter()
        run = program.run(config, setup=spec.default_setup(),
                          fault_hook=hook)
        ended = time.perf_counter()
        if not self.gate.check("%s hooked trial %d activated" % (what, index),
                               hook.inner.activated, True):
            return
        out["prefix"].append(hook.fired_at - started)
        out["suffix"].append(ended - hook.fired_at)
        out["steps_ratio"].append(run.steps / golden.steps)

    def _count(self, program, spec) -> None:
        """Counting runs with a live Telemetry collector (counts only)."""
        for mode, monitor_mode in (("baseline", None), ("full", MODE_FULL)):
            telemetry = Telemetry()
            program.run(RunConfig(nthreads=spec.nthreads, seed=spec.seed,
                                  monitor_mode=monitor_mode,
                                  quantum=spec.quantum, telemetry=telemetry),
                        setup=spec.default_setup())
            counters = telemetry.snapshot().counters
            names = (("interp.steps",) if mode == "baseline" else
                     ("monitor.messages_received", "monitor.checks",
                      "opt.instructions_saved"))
            for name in names:
                key = "count.%s.%s" % (mode, name)
                self.first[key] = self.first.get(key, 0) + counters.get(name, 0)

    def layer_metrics(self, setup_roots, traced_rounds, plain_rounds, warm,
                      probes) -> Dict[str, float]:
        tracer = self.tracer
        # Tracing overhead per round, measured directly: the items'
        # median traced repeats minus their median untraced ones (same
        # input sets).  With one repeat a side it is below the machine's
        # noise, so it is only printed; the metric is the spans a traced
        # round records times what one span costs.
        pool = len(self.entries)
        plain_medians = item_medians(plain_rounds)
        direct_s = (per_input_set(item_medians(traced_rounds), pool)
                    - per_input_set(plain_medians, pool))
        spans_per_round = median(
            sum(1 for span in tracer.spans[r["root"].index:]
                if r["root"].start <= span.start <= r["root"].end)
            for r in traced_rounds)
        per_span_s = span_cost()
        self.round_log.append(
            "tracing overhead: %.0f spans per traced round x %.3f us per "
            "span; directly, traced minus untraced rounds: %.1f ms"
            % (spans_per_round, 1e6 * per_span_s, 1000.0 * direct_s))
        units = [tracer.self_times(root) for root in setup_roots]
        round_units = [tracer.self_times(r["root"]) for r in traced_rounds]
        units.extend(round_units)

        def layer_ms(span_name: str) -> float:
            present = [unit[span_name] for unit in units if span_name in unit]
            return 1000.0 * median(present) if present else 0.0

        def per_round_ms(fn) -> float:
            return 1000.0 * median(fn(unit) for unit in round_units)

        def probe_ms(key: str) -> float:
            values = [v for probe in probes for v in probe[key]]
            return 1000.0 * median(values)

        def campaign_s(medians: Dict[tuple, float]) -> float:
            return sum(item_s for item, item_s in medians.items()
                       if item[0] in ("trial", "campaign_rest"))

        # Trial times of the plain rounds only: the warm-up round is not
        # kept and traced trials carry the span wrappers.
        trials = [trial_s for times in plain_rounds
                  for item, repeats in times["items"].items()
                  if item[0] == "trial" for trial_s in repeats]

        first = self.first
        metrics = {name: layer_ms(span) for name, span in SPAN_METRICS.items()}
        steps = first["count.baseline.interp.steps"]
        metrics.update({
            "opt.instructions_saved":
                first["count.full.opt.instructions_saved"],
            "store.get_warm_ms": 1000.0 * median(warm),
            "runtime.steps": steps,
            "runtime.steps_per_s":
                steps / (metrics["runtime.baseline_ms"] / 1000.0),
            "monitor.send_ms": per_round_ms(
                lambda u: u["runtime.feed"] - u["runtime.baseline"]),
            "monitor.check_ms": per_round_ms(
                lambda u: u["runtime.full"] - u["runtime.feed"]),
            "monitor.messages_received":
                first["count.full.monitor.messages_received"],
            "monitor.checks": first["count.full.monitor.checks"],
            "faults.trial_ms_p50": 1000.0 * percentile(trials, 0.5),
            "faults.trial_ms_p90": 1000.0 * percentile(trials, 0.9),
            "faults.trial_prefix_ms": probe_ms("prefix"),
            "faults.trial_suffix_ms": probe_ms("suffix"),
            "faults.trial_steps_ratio":
                median(v for probe in probes for v in probe["steps_ratio"]),
            "triage.clusters": first["triage.clusters"],
            # Each campaign item's median repeat with telemetry on, over
            # its median in the plain rounds (as many repeats each).
            "telemetry.enabled_overhead":
                campaign_s(item_medians(probes)) / campaign_s(plain_medians),
            "sim.parallel_cycles": first["cycles.full"],
            "sim.overhead": first["cycles.feed"] / first["cycles.baseline"],
            "runtime.live_modules": first["live_modules"],
            "trace.residual_ms": per_round_ms(lambda u: u["round"]),
            "trace.overhead_ms": 1000.0 * spans_per_round * per_span_s,
        })
        return metrics
