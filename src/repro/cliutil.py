"""Shared argparse building blocks for the ``repro-*`` CLIs.

Every repro command that fans work across processes, touches the
artifact store, checkpoints campaigns, or selects a compilation profile
takes the same flags — historically re-declared (with drifting help
text and aliases) in each CLI.  :func:`shared_options` builds one
*parent parser* per feature set; ``repro-minic``, ``repro-blockwatch``,
``repro-lint``, and ``repro-serve`` all compose their parsers from it,
so ``-j/--jobs``, ``--store``, ``--journal``/``--resume``, and
``-O/--opt-level``/``--backend`` spell, default, and document
identically everywhere::

    parser = argparse.ArgumentParser(
        prog="repro-thing",
        parents=[shared_options("jobs", "store")])

Defaults stay ``None`` so each flag keeps deferring to its environment
knob (``REPRO_JOBS``, ``REPRO_STORE``, ``REPRO_OPT_LEVEL``,
``REPRO_BACKEND``) at resolution time, not at parse time.

The report-writing half of the baseline gates (``repro-lint``,
``repro-lint vuln``, ``repro-triage``) lives here too: :func:`load_json`,
:func:`emit` and :func:`update_baseline` keep their messages and exit
codes (0 ok, 2 I/O problem) identical across the three; each CLI keeps
its own drift comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

#: Canonical one-line help per shared flag (the single place the
#: wording lives; pass ``jobs_help=`` for command-specific phrasing,
#: e.g. repro-serve's shard count).
HELP_JOBS = ("worker processes (0 = all cores; default: $REPRO_JOBS or "
             "serial); results are bit-identical for every value")
HELP_STORE = ("artifact-store root for cached compiles, golden runs, and "
              "results (default: $REPRO_STORE, else off)")
HELP_JOURNAL = ("checkpoint completed injections to a crash-safe JSONL "
                "journal file")
HELP_RESUME = ("resume an interrupted campaign from --journal (validates "
               "the plan hash; runs only the missing injections)")
HELP_OPT = ("trace-preserving optimization level (default: "
            "$REPRO_OPT_LEVEL or 0); results are identical at every level")
HELP_BACKEND = ("execution backend (default: $REPRO_BACKEND or "
                "interpreter); results are identical, closure is faster")

FEATURES = ("jobs", "store", "journal", "opt")


def add_shared_options(parser: argparse.ArgumentParser, *features: str,
                       jobs_help: Optional[str] = None,
                       store_help: Optional[str] = None) -> None:
    """Add the named shared flag groups to ``parser`` in place."""
    for feature in features:
        if feature not in FEATURES:
            raise ValueError("unknown shared CLI feature %r (expected %s)"
                             % (feature, ", ".join(FEATURES)))
    if "jobs" in features:
        parser.add_argument("-j", "--jobs", type=int, default=None,
                            metavar="N", help=jobs_help or HELP_JOBS)
    if "store" in features:
        parser.add_argument("--store", default=None, metavar="PATH",
                            help=store_help or HELP_STORE)
    if "journal" in features:
        parser.add_argument("--journal", default=None, metavar="OUT.JSONL",
                            help=HELP_JOURNAL)
        parser.add_argument("--resume", action="store_true",
                            help=HELP_RESUME)
    if "opt" in features:
        parser.add_argument("-O", "--opt-level", type=int, default=None,
                            choices=(0, 1, 2), dest="opt_level",
                            help=HELP_OPT)
        parser.add_argument("--backend", default=None,
                            choices=("interpreter", "closure"),
                            help=HELP_BACKEND)


def shared_options(*features: str, jobs_help: Optional[str] = None,
                   store_help: Optional[str] = None
                   ) -> argparse.ArgumentParser:
    """A parent parser (``add_help=False``) carrying the named shared
    flag groups — pass it via ``ArgumentParser(parents=[...])`` or
    ``add_parser(..., parents=[...])``."""
    parent = argparse.ArgumentParser(add_help=False)
    add_shared_options(parent, *features, jobs_help=jobs_help,
                       store_help=store_help)
    return parent


def load_json(path: str, what: str):
    """Parse the JSON file ``path``; an unreadable or malformed file
    raises ``SystemExit`` carrying one ``error:`` line that names
    ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit("error: cannot read %s %r: %s" % (what, path, exc))


def emit(text: str, output: Optional[str]) -> int:
    """Write ``text`` to the file ``output``, or to stdout when it is
    empty; returns the exit status (2 after an ``error:`` line)."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print("error: cannot write %r: %s" % (output, exc),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def update_baseline(target: str, text: str, message: str) -> int:
    """The ``--update-baseline`` step: replace ``target`` with ``text``
    atomically, then print ``message``; returns the exit status (2
    after an ``error:`` line, leaving no temp file behind)."""
    from repro.store.artifacts import write_atomic
    try:
        write_atomic(target, text)
    except OSError as exc:
        print("error: cannot write %r: %s" % (target, exc), file=sys.stderr)
        return 2
    print(message)
    return 0
