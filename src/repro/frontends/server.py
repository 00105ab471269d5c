"""The analysis daemon's command line: ``python -m repro.frontends.server``.

Starts an :class:`repro.service.AnalysisDaemon` speaking JSON Lines — one
request object per line in, one response object per line out — over stdin
(``--stdio``, the default) or a TCP socket (``--port``).  See the README's
"Running the service" section for the protocol; the short version:

.. code-block:: console

   $ echo '{"op": "query", "program": "...", "target": "error"}' \\
       | python -m repro.frontends.server --stdio --workers 2

Flag validation follows the ``getafix`` CLI conventions: invalid values
exit with status 2 and a one-line message on stderr, never a traceback.
SIGTERM and SIGINT trigger a graceful drain (stop admitting, finish
in-flight queries, stop the worker pool).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from ..limits import limits_from_flags

EXIT_OK = 0
EXIT_ERROR = 2


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description=(
            "Long-running reachability-analysis daemon: JSONL requests over "
            "stdin or TCP, answered from a pool of warm analysis sessions."
        ),
    )
    transport = parser.add_argument_group("transport")
    transport.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSONL over stdin/stdout (default when --port is not given)",
    )
    transport.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port (default: 127.0.0.1)",
    )
    transport.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve JSONL over TCP on this port (0 = ephemeral)",
    )
    pool = parser.add_argument_group("session pool")
    pool.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes (0 = in-process fallback; default: 2)",
    )
    pool.add_argument(
        "--memory-budget",
        type=int,
        default=500_000,
        metavar="NODES",
        help="live-BDD-node budget for the session pool; least-recently-used "
        "sessions are evicted past it (0 = unbounded; default: 500000)",
    )
    admission = parser.add_argument_group("admission control")
    admission.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="hard cap on admitted-but-unfinished queries; past it requests "
        "are rejected with a typed 'shed' response (default: 64)",
    )
    admission.add_argument(
        "--shed-threshold",
        type=int,
        default=16,
        metavar="N",
        help="soft overload mark: past it queries are shed to the cheaper "
        "algorithm on the degradation ladder (default: 16)",
    )
    breaker = parser.add_argument_group("circuit breaker")
    breaker.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive crashed/timeout/resource outcomes before a program "
        "hash is quarantined (default: 3)",
    )
    breaker.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="quarantine duration before a half-open probe (default: 30)",
    )
    limits = parser.add_argument_group(
        "default resource limits", "per-request fields override these"
    )
    limits.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-query wall-clock deadline",
    )
    limits.add_argument(
        "--node-budget", type=int, default=None, metavar="N",
        help="default per-query live-BDD-node cap",
    )
    limits.add_argument(
        "--max-iterations", type=int, default=None, metavar="N",
        help="default per-query fixed-point iteration budget",
    )
    limits.add_argument(
        "--degrade",
        action="store_true",
        help="on exhaustion, retry once with the cheaper ladder algorithm",
    )
    parser.add_argument(
        "--algorithm",
        default="ef-opt",
        choices=["summary", "ef", "ef-opt"],
        help="default sequential algorithm (default: ef-opt)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="grace period for in-flight queries on shutdown (default: 10)",
    )
    return parser


def build_config(args: argparse.Namespace):
    """A :class:`repro.service.DaemonConfig` from the parsed arguments.

    Raises :class:`ValueError`, naming the flag, on an invalid value: the
    limits are checked by :class:`~repro.limits.ResourceLimits` and every
    other setting by :class:`~repro.service.DaemonConfig` itself.
    """
    from ..service import DaemonConfig

    return DaemonConfig(
        workers=args.workers,
        memory_budget_nodes=args.memory_budget or None,
        max_pending=args.max_pending,
        shed_threshold=args.shed_threshold,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        default_algorithm=args.algorithm,
        default_limits=limits_from_flags(args),
        drain_timeout=args.drain_timeout,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.port is not None and not (0 <= args.port <= 65535):
        print(f"repro-server: --port must be in [0, 65535], got {args.port}", file=sys.stderr)
        return EXIT_ERROR
    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"repro-server: {exc}", file=sys.stderr)
        return EXIT_ERROR

    from ..service import AnalysisDaemon, serve_stdio, serve_tcp

    daemon = AnalysisDaemon(config)
    try:
        if args.port is not None and not args.stdio:
            asyncio.run(serve_tcp(daemon, host=args.host, port=args.port))
        else:
            asyncio.run(serve_stdio(daemon))
    except KeyboardInterrupt:
        pass
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
