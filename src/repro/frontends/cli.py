"""Command-line interface: ``getafix <file>... [--target ...] [--jobs N]``.

Exit codes follow the grep convention so scripts can tell the three outcomes
apart without parsing output:

* ``0`` — every query answered NO (target unreachable),
* ``1`` — at least one query answered YES (target reachable),
* ``2`` — usage, I/O, parse or static-semantics error (message on stderr),
* ``3`` — a resource envelope was exhausted (``--deadline``, ``--node-budget``,
  ``--max-iterations`` or a ``--shard-timeout``) before an answer was found.

A single file with a single target runs in-process and prints the classic
one-result summary.  Several files and/or several ``--target`` options form
a *batch*: every (file, target) pair becomes one query, fanned out over
``--jobs`` worker processes (see :mod:`repro.parallel`), and the merged
table reports per-shard kernel/GC statistics plus the batch speedup.
Queries on the same file with the same algorithm share ONE analysis
session (validate/encode/solve once, answer every target as a post-pass;
see :mod:`repro.api`), so
``getafix prog.bp --target a --target b --target c`` compiles ``prog.bp``
exactly once; the ``reuse`` column / ``reused_solve`` JSON field records
which queries rode the shared solve.

``getafix lint <file>...`` (the ``lint`` subcommand) runs the static
pre-analysis in reporting mode instead of checking reachability: structured
JSON diagnostics on stdout, exit 0 when clean, 1 with findings, 2 on errors
(see :mod:`repro.analysis.lint`).  ``-O/--optimize {0,1,2}`` runs the same
machinery in rewriting mode before encoding (see :mod:`repro.analysis`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from ..boolprog import BoolProgError, parse_concurrent_program, parse_program
from ..errors import ResourceExhausted
from ..limits import ResourceLimits, limits_from_flags
from .getafix import (
    check_concurrent_reachability,
    check_reachability,
    resolve_target,
)

__all__ = ["main", "build_arg_parser", "run_lint"]

#: Exit statuses (grep convention).
EXIT_UNREACHABLE = 0
EXIT_REACHABLE = 1
EXIT_ERROR = 2
EXIT_RESOURCE = 3


def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``getafix`` command."""
    parser = argparse.ArgumentParser(
        prog="getafix",
        description=(
            "Reachability checker for recursive Boolean programs, implemented as "
            "fixed-point formulas evaluated by a symbolic (BDD) solver."
        ),
    )
    parser.add_argument(
        "files",
        type=Path,
        nargs="+",
        metavar="file",
        help="Boolean program source file(s); several files form a batch",
    )
    parser.add_argument(
        "--target",
        action="append",
        dest="targets",
        metavar="TARGET",
        help="'error', 'proc:label' (sequential) or 'thread:proc:label' "
        "(concurrent); repeatable — each target is checked against every file "
        "(default: error)",
    )
    parser.add_argument(
        "--algorithm",
        default="ef-opt",
        choices=["summary", "ef", "ef-opt"],
        help="sequential reachability algorithm (ignored with --concurrent)",
    )
    parser.add_argument(
        "--concurrent",
        action="store_true",
        help="treat the input as a concurrent program and use the bounded "
        "context-switching algorithm",
    )
    parser.add_argument(
        "--context-switches",
        type=int,
        default=2,
        help="context-switch bound for --concurrent (default: 2)",
    )
    parser.add_argument(
        "--no-early-stop",
        action="store_true",
        help="disable early termination when the target is found reachable",
    )
    parser.add_argument(
        "--witness",
        action="store_true",
        help="extract a replay-validated counterexample trace for every "
        "reachable verdict (sequential algorithms only; with --json the "
        "trace rides in the result's 'witness' field)",
    )
    parser.add_argument(
        "-O",
        "--optimize",
        type=int,
        default=0,
        choices=[0, 1, 2],
        metavar="LEVEL",
        help="static pre-analysis before encoding: 1 = liveness/constants "
        "(pc-stable), 2 = plus branch pruning, target-directed slicing and "
        "unreachable-procedure removal (default: 0; not valid with "
        "--concurrent)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for batch invocations; queries on one file "
        "share one session on one worker (default: 1 = sequential)",
    )
    limits = parser.add_argument_group(
        "resource limits",
        "bound what a query may consume; exhaustion exits with status 3 "
        "instead of hanging or dying on an opaque MemoryError",
    )
    limits.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query wall-clock deadline, enforced cooperatively inside "
        "the BDD kernel (0 trips on the first allocation)",
    )
    limits.add_argument(
        "--node-budget",
        type=int,
        default=None,
        metavar="N",
        help="cap on live BDD nodes per query; exceeding it raises a typed "
        "error after a last-chance garbage collection",
    )
    limits.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="fixed-point iteration budget per query (default: engine default)",
    )
    limits.add_argument(
        "--degrade",
        action="store_true",
        help="on exhaustion, retry the query once with a cheaper algorithm "
        "(ef-opt/ef -> summary); the result records degraded_from",
    )
    limits.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="driver-side timeout per pooled query; a stuck worker is "
        "terminated and replaced, and the query marked timeout",
    )
    parser.add_argument("--json", action="store_true", help="emit the result as JSON")
    return parser


def _validate_flags(args: argparse.Namespace) -> Optional[str]:
    """First nonsensical flag value as a message, or None when all are sane.

    Caught before any file I/O or parsing so a bad invocation fails fast
    with exit status 2 and a message naming the flag — argparse's ``type=``
    converters accept any int/float, so range checks live here.  The limit
    flags are checked by :class:`ResourceLimits` itself, which
    :func:`limits_from_flags` builds right after this.
    """
    if args.jobs < 1:
        return f"--jobs must be >= 1, got {args.jobs}"
    if args.shard_timeout is not None and not 0 < args.shard_timeout < math.inf:
        return f"--shard-timeout must be a finite number > 0 seconds, got {args.shard_timeout}"
    if args.context_switches < 0:
        return f"--context-switches must be >= 0, got {args.context_switches}"
    if args.concurrent and args.optimize:
        return (
            "--optimize applies to sequential programs only; the concurrent "
            "engine has no pre-analysis pipeline"
        )
    if args.concurrent and args.witness:
        return (
            "--witness applies to sequential programs only; the bounded "
            "context-switching engine has no trace extraction"
        )
    return None


def _prepare_queries(args: argparse.Namespace, sources: List[str]) -> Optional[List[tuple]]:
    """Parse every file and resolve every target, front-loading user errors.

    Returns ``[(path, program, {target label: locations}), ...]`` or None
    after printing a diagnostic — parse and target-resolution failures are
    *user* errors and are caught here, narrowly, so a ValueError/KeyError
    escaping the engine later is a genuine bug and keeps its traceback.
    """
    prepared = []
    for path, source in zip(args.files, sources):
        try:
            parse = parse_concurrent_program if args.concurrent else parse_program
            program = parse(source)
            resolved = {target: resolve_target(program, target) for target in args.targets}
        except (BoolProgError, ValueError) as exc:
            print(f"getafix: {path}: {exc}", file=sys.stderr)
            return None
        except KeyError as exc:  # unknown procedure/label in a target spec
            location = exc.args[0] if exc.args else exc
            print(f"getafix: {path}: unknown target location: {location}", file=sys.stderr)
            return None
        prepared.append((path, program, resolved))
    return prepared


def _run_single(
    args: argparse.Namespace,
    program: object,
    target: str,
    locations: List[tuple],
    limits: Optional[ResourceLimits],
) -> int:
    """Classic single-query path: one file, one target, in-process.

    Transient-failure parity with the batch path: an unexpected exception
    gets one bounded-backoff retry (batches get the same through the pool
    scheduler's rebuild-and-retry rounds), recorded in the result's
    ``details["retries"]``.  Typed resource exhaustion and user errors are
    never retried — a deterministic engine will only fail the same way
    twice.
    """
    import time as _time

    from ..testing import faults

    label = str(args.files[0])
    retries = 0
    while True:
        try:
            # Same fault-injection point the shard workers have, so the
            # retry path is testable with a deterministic transient fault.
            faults.on_shard([label])
            if args.concurrent:
                result = check_concurrent_reachability(
                    program,
                    target=locations,
                    context_switches=args.context_switches,
                    early_stop=not args.no_early_stop,
                    limits=limits,
                )
            else:
                # When optimizing, hand the friendly spec through so the
                # level-2 pipeline may slice towards it and resolve it
                # against the *optimized* CFG; the pre-resolved numeric
                # locations would pin the raw numbering (capping at -O1).
                result = check_reachability(
                    program,
                    target=target if args.optimize else locations,
                    algorithm=args.algorithm,
                    early_stop=not args.no_early_stop,
                    limits=limits,
                    optimize=args.optimize,
                    witness=args.witness,
                )
            break
        except ResourceExhausted as exc:
            if args.json:
                print(json.dumps({"error": str(exc), **exc.detail()}, indent=2))
            else:
                print(f"getafix: {label}: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        except BoolProgError:
            raise  # user error; main() renders it
        except Exception:  # noqa: BLE001 — transient failure: retry once
            if retries >= 1:
                raise
            retries += 1
            _time.sleep(0.05)
    if retries:
        result.details["retries"] = retries
    if args.json:
        print(json.dumps(asdict(result), indent=2, default=str))
    else:
        answer = "YES: the target is reachable" if result.reachable else "NO: the target is unreachable"
        print(answer)
        if retries:
            print(f"note: succeeded after {retries} retry(ies) of a transient failure")
        if result.degraded_from is not None:
            print(
                f"note: {result.degraded_from} exhausted its budget; "
                f"answer comes from the {result.algorithm} fallback"
            )
        print(
            f"algorithm={result.algorithm} iterations={result.iterations} "
            f"summary-BDD-nodes={result.summary_nodes} time={result.total_seconds:.3f}s"
        )
        if result.witness is not None:
            steps = result.witness["steps"]
            print(f"witness trace ({len(steps)} steps, replay-validated):")
            for index, step in enumerate(steps):
                values = {**step["locals"], **step["globals"]}
                shown = " ".join(
                    f"{name}={'1' if value else '0'}" for name, value in values.items()
                )
                print(
                    f"  {index:3d}  {step['kind']:<8s} "
                    f"{step['procedure']}:{step['pc']:<4d} {step['statement']}"
                    + (f"  [{shown}]" if shown else "")
                )
        elif args.witness and result.reachable:
            error = result.details.get("witness_error")
            if error:
                print(f"note: witness extraction failed: {error}", file=sys.stderr)
    return EXIT_REACHABLE if result.reachable else EXIT_UNREACHABLE


def _run_batch(
    args: argparse.Namespace,
    prepared: List[tuple],
    limits: Optional[ResourceLimits],
) -> int:
    """Batch path: every (file, target) pair is one shard."""
    from ..algorithms import run_batch
    from ..parallel import BatchQuery

    # Basenames are friendlier row labels, but two files with the same name
    # in different directories must not collide (verdicts are keyed by name).
    basenames = [path.name for path, _, _ in prepared]
    ambiguous = len(set(basenames)) != len(basenames)
    queries = []
    for path, program, resolved in prepared:
        label = str(path) if ambiguous else path.name
        for target, locations in resolved.items():
            name = f"{label}:{target}" if len(resolved) > 1 else label
            queries.append(
                BatchQuery(
                    name=name,
                    program=program,
                    # Friendly specs when optimizing (workers re-resolve
                    # against the optimized CFG); raw locations otherwise.
                    target=target if args.optimize else locations,
                    algorithm=args.algorithm,
                    concurrent=args.concurrent,
                    context_switches=args.context_switches,
                    early_stop=not args.no_early_stop,
                    optimize=args.optimize,
                    witness=args.witness,
                )
            )
    report = run_batch(
        queries,
        jobs=args.jobs,
        limits=limits,
        shard_timeout=args.shard_timeout,
    )
    if args.json:
        print(
            json.dumps(
                {
                    "mode": report.mode,
                    "jobs": report.jobs,
                    "wall_seconds": report.wall_seconds,
                    "shard_seconds": report.shard_seconds,
                    "speedup": report.speedup,
                    "queries_per_solve": report.queries_per_solve,
                    "reused_solves": report.reused_count,
                    "shards": report.rows(),
                },
                indent=2,
                default=str,
            )
        )
    else:
        print(report.format_table())
    failures = report.failures()
    if failures:
        for shard in failures:
            print(f"getafix: {shard.name}: {shard.error}", file=sys.stderr)
        # Genuine errors (crashes, parse failures) outrank resource
        # exhaustion: only a batch whose every failure is a budget or
        # timeout hit gets the distinguishable status 3.
        if all(shard.status in ("timeout", "resource") for shard in failures):
            return EXIT_RESOURCE
        return EXIT_ERROR
    return EXIT_REACHABLE if report.any_reachable else EXIT_UNREACHABLE


def run_lint(argv: List[str]) -> int:
    """``getafix lint <file>...`` — static diagnostics as JSON.

    Always emits JSON (one record per file: ``file``, ``clean``,
    ``findings``) so the output is scriptable without a flag.  Exit status:
    0 when every file is clean, 1 when any file has findings, 2 on usage,
    I/O, parse or static-semantics errors — deliberately the same shape as
    the checker's reachable/unreachable/error convention.
    """
    parser = argparse.ArgumentParser(
        prog="getafix lint",
        description=(
            "Static pre-analysis diagnostics for Boolean programs: "
            "unreachable procedures and statements, dead variables and "
            "writes, assume(F), constant and always-false conditions."
        ),
    )
    parser.add_argument(
        "files",
        type=Path,
        nargs="+",
        metavar="file",
        help="Boolean program source file(s) to lint",
    )
    args = parser.parse_args(argv)
    from ..analysis import lint_program

    records = []
    any_findings = False
    for path in args.files:
        try:
            source = path.read_text()
        except OSError as exc:
            print(f"getafix: cannot read input: {exc}", file=sys.stderr)
            return EXIT_ERROR
        try:
            findings = lint_program(source, name=str(path))
        except BoolProgError as exc:
            print(f"getafix: {path}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        any_findings = any_findings or bool(findings)
        records.append(
            {
                "file": str(path),
                "clean": not findings,
                "findings": [finding.to_dict() for finding in findings],
            }
        )
    print(json.dumps(records, indent=2))
    return EXIT_REACHABLE if any_findings else EXIT_UNREACHABLE


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``getafix`` command; returns the exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return run_lint(argv[1:])
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if not args.targets:
        args.targets = ["error"]
    flag_error = _validate_flags(args)
    if flag_error is not None:
        print(f"getafix: {flag_error}", file=sys.stderr)
        return EXIT_ERROR
    try:
        limits = limits_from_flags(args)
    except ValueError as exc:
        print(f"getafix: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # Repeating the same --target twice would only duplicate shards.
    args.targets = list(dict.fromkeys(args.targets))
    try:
        sources = [path.read_text() for path in args.files]
    except OSError as exc:
        print(f"getafix: cannot read input: {exc}", file=sys.stderr)
        return EXIT_ERROR
    prepared = _prepare_queries(args, sources)
    if prepared is None:
        return EXIT_ERROR
    try:
        if len(prepared) == 1 and len(args.targets) == 1 and args.jobs == 1:
            path, program, resolved = prepared[0]
            target = args.targets[0]
            return _run_single(args, program, target, resolved[target], limits)
        return _run_batch(args, prepared, limits)
    except BoolProgError as exc:
        # Static-semantics errors surface when the engine validates the
        # program; they are user errors, unlike any other engine exception.
        print(f"getafix: {args.files[0]}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
