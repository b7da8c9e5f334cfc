"""The ``repro-lint`` command: static analyses for MiniC programs.

Race reports (the default mode)::

    repro-lint kernel:radix                      # text report
    repro-lint --all-kernels --format json       # canonical JSON
    repro-lint --all-kernels --jobs 0            # parallel, same bytes
    repro-lint prog.mc --entry worker
    repro-lint --all-kernels --format json --baseline .github/lint-baseline.json
    repro-lint --all-kernels --update-baseline   # regenerate the baseline

Fault-vulnerability predictions (``repro-lint vuln``)::

    repro-lint vuln kernel:radix                 # per-site predictions
    repro-lint vuln --all-kernels --format json
    repro-lint vuln --all-kernels --baseline .github/vuln-baseline.json
    repro-lint vuln --all-kernels --update-baseline
    repro-lint vuln kernel:radix kernel:fft --validate --check

Exit status: 0 — clean (no errors; with ``--baseline``, no drift beyond
it; with ``--check``, all acceptance checks pass), 1 — findings, 2 —
usage or I/O problems.  Output is deterministic: reports sort by name,
diagnostics by program position, JSON by key — byte-identical under any
``PYTHONHASHSEED`` and any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.cliutil import (add_shared_options, emit, load_json,
                            update_baseline)
from repro.lint.diagnostics import (
    LINT_SCHEMA,
    SEVERITY_ERROR,
    baseline_fingerprints,
)

KERNEL_PREFIX = "kernel:"
DEFAULT_LINT_BASELINE = ".github/lint-baseline.json"
DEFAULT_VULN_BASELINE = ".github/vuln-baseline.json"


def _program_args(args) -> List[Tuple[str, str, str]]:
    """Resolve CLI operands to ``(name, source, entry)`` triples."""
    from repro.cli import _kernel_spec, _load_source
    triples: List[Tuple[str, str, str]] = []
    paths = list(args.programs)
    if args.all_kernels:
        from repro.splash2 import all_kernels
        for spec in all_kernels():
            triples.append((spec.name, spec.source, spec.entry))
    for path in paths:
        if path.startswith(KERNEL_PREFIX):
            spec = _kernel_spec(path)
            triples.append((spec.name, spec.source, spec.entry))
        else:
            name = path.rsplit("/", 1)[-1]
            if name.endswith(".mc"):
                name = name[:-3]
            triples.append((name or "program", _load_source(path),
                            args.entry))
    return triples


def _lint_one(name: str, source: str, entry: str, store=None) -> Dict:
    """One report in ``as_dict`` form (via the store cache if given)."""
    def compute() -> Dict:
        from repro.frontend import compile_source
        from repro.lint import lint_module
        module = compile_source(source, name)
        return lint_module(module, entry=entry, name=name).as_dict()
    if store is not None:
        return store.get_lint(source, name, entry, compute)
    return compute()


def _open_store(root: Optional[str]):
    if not root:
        return None
    from repro.store import open_store
    return open_store(root)


def _lint_task(store_root: Optional[str],
               triple: Tuple[str, str, str]) -> Dict:
    """``run_tasks`` unit: lint one program.  The context is the store
    *root* (a picklable string), opened per worker invocation — cheap,
    and the cache stays shared across workers through the filesystem."""
    name, source, entry = triple
    return _lint_one(name, source, entry, store=_open_store(store_root))


def _store_ctx_factory(store_root: Optional[str]) -> Optional[str]:
    """Spawn-pool context factory: the context *is* the store root."""
    return store_root


def _render_site(site: Dict) -> str:
    return "%s:%s:%%v%d %s @%s" % (
        site["function"], site["block"], site["vid"], site["kind"],
        site["location"])


def _render_diag(diag: Dict) -> str:
    return "%s: %s: %s [%s] (witness: %s)" % (
        _render_site(diag["access"]), diag["severity"], diag["message"],
        diag["code"], _render_site(diag["witness"]))


def _render_text(report: Dict) -> str:
    summary = report["summary"]
    lines = ["%s (entry %s): %d error(s), %d warning(s)"
             % (report["name"], report["entry"], summary["errors"],
                summary["warnings"])]
    for diag in report["diagnostics"]:
        lines.append("  " + _render_diag(diag))
    return "\n".join(lines)


def _load_baseline(path: str) -> Dict[str, int]:
    data = load_json(path, "baseline")
    reports = data.get("reports", [data]) if isinstance(data, dict) else data
    return baseline_fingerprints(reports)


def _new_beyond_baseline(reports: List[Dict],
                         baseline: Dict[str, int]) -> List[Tuple[str, Dict]]:
    remaining = dict(baseline)
    fresh: List[Tuple[str, Dict]] = []
    for report in reports:
        for diag in report.get("diagnostics", ()):
            fp = diag.get("fingerprint", "")
            if remaining.get(fp, 0) > 0:
                remaining[fp] -= 1
            else:
                fresh.append((report["name"], diag))
    return fresh


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "vuln":
        return vuln_main(argv[1:])
    return lint_main(argv)


def lint_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static race detection (lockset + barrier phases) "
                    "for MiniC parallel programs.  The 'vuln' subcommand "
                    "(repro-lint vuln --help) predicts fault-injection "
                    "coverage instead.")
    parser.add_argument("programs", nargs="*",
                        help="program paths, '-' for stdin, or kernel:NAME")
    parser.add_argument("--all-kernels", action="store_true",
                        help="lint every bundled SPLASH-2 kernel")
    parser.add_argument("--entry", default="slave",
                        help="SPMD entry function for plain programs "
                             "(default: slave)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--baseline", metavar="FILE",
                        help="previous JSON report; fail only on "
                             "diagnostics beyond it")
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the baseline file atomically "
                             "(default target: %s)" % DEFAULT_LINT_BASELINE)
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the report here instead of stdout")
    add_shared_options(parser, "jobs", "store")
    args = parser.parse_args(argv)

    try:
        triples = _program_args(args)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if not triples:
        parser.error("no programs given (pass paths, kernel:NAME, "
                     "or --all-kernels)")

    try:
        from repro.parallel import run_tasks
        reports = run_tasks(
            _lint_task, sorted(triples), jobs=args.jobs,
            context=args.store, context_factory=_store_ctx_factory,
            factory_args=(args.store,))
    except SystemExit:
        raise
    except Exception as exc:
        print("error: linting failed: %s" % exc, file=sys.stderr)
        return 2

    if args.format == "json" or args.update_baseline:
        payload = reports[0] if len(reports) == 1 else {
            "schema": LINT_SCHEMA, "reports": reports}
        json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.format == "json":
        text = json_text
    else:
        text = "\n".join(_render_text(r) for r in reports) + "\n"

    if args.update_baseline:
        target = args.baseline or DEFAULT_LINT_BASELINE
        return update_baseline(target, json_text,
                               "baseline updated: %s (%d report(s))"
                               % (target, len(reports)))

    status = emit(text, args.output)
    if status:
        return status

    if args.baseline:
        try:
            baseline = _load_baseline(args.baseline)
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        fresh = _new_beyond_baseline(reports, baseline)
        if fresh:
            print("%d new diagnostic(s) beyond baseline:" % len(fresh),
                  file=sys.stderr)
            for name, diag in fresh:
                print("  [%s] %s" % (name, _render_diag(diag)),
                      file=sys.stderr)
            return 1
        return 0
    errors = sum(r["summary"]["errors"] for r in reports)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# repro-lint vuln
# ---------------------------------------------------------------------------


def _vuln_targets(args) -> List[Tuple[str, str, str, Tuple[str, ...]]]:
    """CLI operands to ``(name, source, entry, output_globals)``.
    Kernels carry their declared output globals; plain programs default
    to none — the analyzer then treats *every* store as observable."""
    from repro.cli import _kernel_spec, _load_source
    targets: List[Tuple[str, str, str, Tuple[str, ...]]] = []
    if args.all_kernels:
        from repro.splash2 import all_kernels
        for spec in all_kernels():
            targets.append((spec.name, spec.source, spec.entry,
                            tuple(spec.output_globals)))
    for path in args.programs:
        if path.startswith(KERNEL_PREFIX):
            spec = _kernel_spec(path)
            targets.append((spec.name, spec.source, spec.entry,
                            tuple(spec.output_globals)))
        else:
            name = path.rsplit("/", 1)[-1]
            if name.endswith(".mc"):
                name = name[:-3]
            targets.append((name or "program", _load_source(path),
                            args.entry, ()))
    return targets


def _analysis_config(sparse: bool):
    if not sparse:
        return None
    from repro.analysis import AnalysisConfig
    # The sparse-check profile: branches whose condition data is checked
    # elsewhere are elided and `none` branches are not promoted — the
    # configuration under which flip faults can actually escape, giving
    # the predictor (and its validation) a non-trivial class mix.
    return AnalysisConfig(elide_redundant_checks=True,
                          promote_none_to_partial=False)


def _vuln_task(store_root: Optional[str],
               item: Tuple[str, str, str, Tuple[str, ...], bool]) -> Dict:
    """``run_tasks`` unit: predict one program's fault vulnerability."""
    name, source, entry, output_globals, sparse = item
    from repro.lint.vuln import analyze_program
    from repro.runtime.program import ParallelProgram
    program = ParallelProgram(source, name, entry=entry,
                              analysis_config=_analysis_config(sparse))
    return analyze_program(program, output_globals=output_globals,
                           store=_open_store(store_root)).as_dict()


def _render_vuln_text(report: Dict) -> str:
    summary = report["summary"]
    lines = ["%s (entry %s): %d site(s)  flip: %s  cond: %s" % (
        report["name"], report["entry"], len(report["sites"]),
        _render_counts(summary["branch-flip"]),
        _render_counts(summary["branch-condition"]))]
    for site in report["sites"]:
        lines.append("  site %-3d %s:%s %s flip=%s cond=%s" % (
            site["site"], site["function"], site["block"],
            "checked" if site["checked"] else "unchecked",
            site["predictions"]["branch-flip"],
            site["predictions"]["branch-condition"]))
    return "\n".join(lines)


def _render_counts(counts: Dict[str, int]) -> str:
    return "/".join("%d %s" % (counts[cls], cls)
                    for cls in ("monitored", "masked", "sdc-prone"))


def _vuln_fingerprints(payload: Dict) -> Dict[Tuple, Dict]:
    """Site-prediction map of one vuln payload (single or multi)."""
    reports = payload.get("reports")
    if reports is None:
        reports = [payload]
    out: Dict[Tuple, Dict] = {}
    for report in reports:
        for site in report.get("sites", ()):
            key = (report["name"], site["function"], site["block"],
                   site["index"])
            out[key] = site["predictions"]
    return out


def _render_validation(result: Dict) -> str:
    lines = ["%s [%s]: coverage %.4f (full, %d inj) vs %.4f "
             "(stratified, %d inj; err %+.1fpp)  precision %s recall %s"
             % (result["program"], result["model"],
                result["coverage_full"], result["injections"],
                result["stratified"]["coverage_estimate"],
                result["stratified"]["budget"],
                100 * result["stratified"]["error"],
                _fmt_rate(result["precision"]), _fmt_rate(result["recall"]))]
    for cls, census in sorted(result["classes"].items()):
        lines.append(
            "  predicted %-10s %3d activated, detection rate %s, "
            "sdc rate %s" % (cls, census["activated"],
                             _fmt_rate(census["detection_rate"]),
                             _fmt_rate(census["sdc_rate"])))
    return "\n".join(lines)


def _fmt_rate(rate) -> str:
    return "n/a" if rate is None else "%.3f" % rate


def vuln_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint vuln",
        description="Static fault-vulnerability prediction: classify "
                    "every branch fault site as monitored / masked / "
                    "sdc-prone, per fault model.")
    parser.add_argument("programs", nargs="*",
                        help="program paths, '-' for stdin, or kernel:NAME")
    parser.add_argument("--all-kernels", action="store_true",
                        help="analyze every bundled SPLASH-2 kernel")
    parser.add_argument("--entry", default="slave",
                        help="SPMD entry function for plain programs")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--baseline", metavar="FILE",
                        help="pinned prediction baseline; fail on any "
                             "prediction drift against it")
    parser.add_argument("--update-baseline", action="store_true",
                        help="regenerate the prediction baseline "
                             "atomically (default target: %s)"
                             % DEFAULT_VULN_BASELINE)
    add_shared_options(parser, "jobs")
    parser.add_argument("--sparse-checks", action="store_true",
                        help="analyze under the sparse-check profile "
                             "(elide redundant checks, no none->partial "
                             "promotion) so unchecked branches exist")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write the report here instead of stdout")
    add_shared_options(parser, "store")
    parser.add_argument("--validate", action="store_true",
                        help="run fault-injection campaigns and join "
                             "measured outcomes against the predictions")
    parser.add_argument("--check", action="store_true",
                        help="with --validate: enforce the acceptance "
                             "checks (monitored rate > sdc-prone rate; "
                             "stratified estimate within tolerance)")
    parser.add_argument("--fault", choices=("flip", "condition"),
                        default="flip",
                        help="fault model for --validate (default: flip)")
    parser.add_argument("--threads", type=int, default=4,
                        help="campaign thread count for --validate")
    parser.add_argument("--injections", type=int, default=120,
                        help="full-sweep injections for --validate")
    parser.add_argument("--budget-fraction", type=float, default=0.25,
                        help="stratified budget as a fraction of the "
                             "full sweep (default: 0.25)")
    parser.add_argument("--seed", type=int, default=12345,
                        help="campaign base seed for --validate")
    args = parser.parse_args(argv)

    try:
        targets = _vuln_targets(args)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    if not targets:
        parser.error("no programs given (pass paths, kernel:NAME, "
                     "or --all-kernels)")
    targets = sorted(targets)

    if args.validate:
        return _vuln_validate(args, targets)

    items = [(name, source, entry, outputs, args.sparse_checks)
             for name, source, entry, outputs in targets]
    try:
        from repro.parallel import run_tasks
        reports = run_tasks(
            _vuln_task, items, jobs=args.jobs,
            context=args.store, context_factory=_store_ctx_factory,
            factory_args=(args.store,))
    except SystemExit:
        raise
    except Exception as exc:
        print("error: vulnerability analysis failed: %s" % exc,
              file=sys.stderr)
        return 2

    from repro.lint.vuln import VULN_SCHEMA
    payload = reports[0] if len(reports) == 1 else {
        "schema": VULN_SCHEMA, "reports": reports}
    json_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if args.update_baseline:
        target = args.baseline or DEFAULT_VULN_BASELINE
        return update_baseline(target, json_text,
                               "vuln baseline updated: %s (%d report(s))"
                               % (target, len(reports)))

    text = (json_text if args.format == "json"
            else "\n".join(_render_vuln_text(r) for r in reports) + "\n")
    status = emit(text, args.output)
    if status:
        return status

    if args.baseline:
        try:
            baseline = _vuln_fingerprints(
                load_json(args.baseline, "vuln baseline"))
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 2
        current = _vuln_fingerprints(payload)
        drift = [(key, baseline.get(key), current.get(key))
                 for key in sorted(set(baseline) | set(current),
                                   key=lambda k: (k[0], k[1], k[3]))
                 if baseline.get(key) != current.get(key)]
        if drift:
            print("%d prediction(s) drifted from baseline:" % len(drift),
                  file=sys.stderr)
            for (name, function, block, index), old, new in drift:
                print("  [%s] %s:%s site %d: %s -> %s"
                      % (name, function, block, index, old, new),
                      file=sys.stderr)
            return 1
    return 0


def _vuln_validate(args, targets) -> int:
    from repro.faults import (CampaignSpec, check_validation,
                              validate_predictions)
    from repro.faults.validation import VALIDATION_SCHEMA
    from repro.lint.vuln import analyze_program
    from repro.runtime.program import ParallelProgram
    from repro.splash2 import kernel as kernel_spec

    store = _open_store(args.store)
    results = []
    failures: List[str] = []
    for name, source, entry, outputs in targets:
        program = ParallelProgram(
            source, name, entry=entry,
            analysis_config=_analysis_config(args.sparse_checks))
        setup = None
        quantize_bits = 0
        try:
            kern = kernel_spec(name)
            setup = kern.setup(args.threads)
            quantize_bits = kern.sdc_quantize_bits
        except KeyError:
            pass
        try:
            spec = CampaignSpec.build(
                source, name=name, entry=entry, fault=args.fault,
                injections=args.injections, nthreads=args.threads,
                seed=args.seed, output_globals=outputs,
                quantize_bits=quantize_bits)
            report = analyze_program(program, output_globals=outputs,
                                     store=store)
            result = validate_predictions(
                spec, program=program, setup=setup, report=report,
                store=store, budget_fraction=args.budget_fraction,
                jobs=args.jobs)
        except Exception as exc:
            print("error: validating %s failed: %s" % (name, exc),
                  file=sys.stderr)
            return 2
        results.append(result)
        if args.check:
            failures.extend("[%s] %s" % (name, failure)
                            for failure in check_validation(result))

    if args.format == "json":
        payload = results[0] if len(results) == 1 else {
            "schema": VALIDATION_SCHEMA, "validations": results}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_validation(r) for r in results) + "\n"
    status = emit(text, args.output)
    if status:
        return status
    if failures:
        print("%d validation check(s) failed:" % len(failures),
              file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
