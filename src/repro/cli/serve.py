"""``python -m repro.cli serve`` — run the synthesis daemon.

Starts a :class:`~repro.serve.daemon.SynthesisDaemon` on a state directory
and blocks until a client sends ``shutdown`` (or SIGINT/SIGTERM).  Prints a
``listening on <socket>`` readiness line on stdout once the socket accepts
connections, so wrappers can wait for it instead of sleeping::

    python -m repro.cli serve --state-dir results/serve --workers 2

Clients talk to the socket with :class:`~repro.serve.client.ServeClient`.
The state directory is durable: kill the daemon, start it again on the same
``--state-dir``, and finished requests are re-served from the request log
while pending ones resume — no re-solving of completed work.

Production deployments wrap the daemon in the self-healing watchdog::

    stenso-serve --state-dir results/serve --supervise

which restarts a wedged daemon (missed heartbeat + failed health probe)
on the same state dir, riding the journal's zero-re-solve guarantee.
``stenso-serve --state-dir results/serve --health`` probes a running daemon
and exits 0 (healthy) / 1 (unhealthy or unreachable) for external monitors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli serve",
        description="Run the STENSO synthesis daemon (warm worker pool, "
        "durable request log, finished syntheses served by content key).",
    )
    parser.add_argument(
        "--state-dir",
        type=Path,
        required=True,
        help="Daemon state directory (lock, socket, request log, pool cache).",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="Persistent synthesis workers."
    )
    parser.add_argument(
        "--socket",
        type=Path,
        default=None,
        help="Unix socket path (default: <state-dir>/daemon.sock; note the "
        "~100-char AF_UNIX path limit).",
    )
    parser.add_argument(
        "--cost_estimator",
        choices=("flops", "measured"),
        default="flops",
        help="Cost model used for every request.",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="Default per-kernel synthesis budget (s); requests can lower it.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="Default solver-call budget per kernel; requests can lower it.",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=None,
        metavar="K",
        help="Admission control: shed submissions once K requests are queued "
        "(store hits and dedup followers always admitted; default unbounded).",
    )
    parser.add_argument(
        "--max-inflight-per-client",
        type=int,
        default=None,
        metavar="N",
        help="Shed a client's submissions beyond N concurrently live requests.",
    )
    parser.add_argument(
        "--max-requests-per-worker",
        type=int,
        default=None,
        metavar="N",
        help="Recycle a pool worker after N completed requests (lifecycle "
        "hygiene for long soaks; warm state is preserved in the cache files).",
    )
    parser.add_argument(
        "--worker-rss-limit-mb",
        type=float,
        default=None,
        metavar="MB",
        help="Recycle a pool worker whose RSS exceeds this high-watermark.",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="Dispatcher heartbeat period (the watchdog's liveness signal).",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="Run under the self-healing watchdog: the daemon becomes a "
        "child process that is killed and restarted (same state dir, zero "
        "re-solving) when its heartbeat stalls and the health probe fails.",
    )
    parser.add_argument(
        "--watchdog-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="Heartbeat staleness bound before the supervisor intervenes.",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="Probe a running daemon's health and exit 0 (healthy) or 1.",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="Deterministic fault-injection plan (testing), e.g. "
        "'solver[kernel]:raise' (overrides $STENSO_FAULTS).",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="Collect worker span traces; exported to <state-dir>/trace.json "
        "at shutdown.",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="Render the live progress board on stderr.",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="Emit structured logs as one JSON object per line on stderr.",
    )
    return parser


def _child_argv(args: argparse.Namespace) -> list[str]:
    """Re-serialize the parsed serving flags as the supervised child's
    command line (everything except the watchdog-only flags)."""
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--state-dir",
        str(args.state_dir),
        "--workers",
        str(args.workers),
        "--cost_estimator",
        args.cost_estimator,
        "--timeout",
        str(args.timeout),
        "--heartbeat-interval",
        str(args.heartbeat_interval),
    ]
    if args.socket is not None:
        argv += ["--socket", str(args.socket)]
    if args.budget is not None:
        argv += ["--budget", str(args.budget)]
    if args.queue_bound is not None:
        argv += ["--queue-bound", str(args.queue_bound)]
    if args.max_inflight_per_client is not None:
        argv += ["--max-inflight-per-client", str(args.max_inflight_per_client)]
    if args.max_requests_per_worker is not None:
        argv += ["--max-requests-per-worker", str(args.max_requests_per_worker)]
    if args.worker_rss_limit_mb is not None:
        argv += ["--worker-rss-limit-mb", str(args.worker_rss_limit_mb)]
    if args.faults:
        argv += ["--faults", args.faults]
    if args.trace:
        argv.append("--trace")
    if args.progress:
        argv.append("--progress")
    if args.log_json:
        argv.append("--log-json")
    return argv


def _run_health_probe(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    socket_path = args.socket if args.socket is not None else args.state_dir / "daemon.sock"
    client = ServeClient(socket_path, retries=0)
    try:
        health = client.health()
    except ServeError as exc:
        print(json.dumps({"healthy": False, "error": str(exc)}))
        return 1
    print(json.dumps(health, sort_keys=True))
    return 0 if health.get("healthy") else 1


def _run_supervisor(args: argparse.Namespace) -> int:
    from repro.serve.watchdog import Supervisor, SupervisorPolicy

    policy = SupervisorPolicy(
        heartbeat_timeout_s=args.watchdog_timeout,
        poll_interval_s=min(0.5, max(0.05, args.watchdog_timeout / 4)),
    )
    supervisor = Supervisor(
        args.state_dir,
        _child_argv(args),
        socket_path=args.socket,
        policy=policy,
    )
    return supervisor.run()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.health:
        return _run_health_probe(args)
    if args.supervise:
        return _run_supervisor(args)

    from repro.errors import StensoError
    from repro.obs.log import configure as configure_logging
    from repro.resilience import InterruptGuard, ResiliencePolicy
    from repro.serve.daemon import SynthesisDaemon
    from repro.synth.config import SynthesisConfig

    configure_logging(json_mode=args.log_json)
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer, install_tracer

        tracer = Tracer()
        install_tracer(tracer)

    fault_plan = None
    if args.faults:
        from repro.resilience import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.faults)
        except ValueError as exc:
            print(f"error: bad --faults plan: {exc}", file=sys.stderr)
            return 2
    config = SynthesisConfig(
        timeout_seconds=args.timeout,
        max_solver_calls=args.budget,
        fault_plan=fault_plan,
    )
    policy = ResiliencePolicy(
        max_requests_per_worker=args.max_requests_per_worker,
        worker_rss_limit_mb=args.worker_rss_limit_mb,
    )

    daemon = SynthesisDaemon(
        args.state_dir,
        workers=args.workers,
        cost_model=args.cost_estimator,
        config=config,
        policy=policy,
        socket_path=args.socket,
        trace=args.trace,
        progress=args.progress or None,
        max_queue_depth=args.queue_bound,
        max_inflight_per_client=args.max_inflight_per_client,
        heartbeat_interval_s=args.heartbeat_interval,
    )
    try:
        daemon.start()
    except StensoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"listening on {daemon.socket_path}", flush=True)
    # The trace is exported under a guard too: a signal after the daemon's
    # own teardown must not cut the export short.
    with InterruptGuard():
        try:
            daemon.serve_forever()
        finally:
            if tracer is not None:
                trace_path = daemon.state_dir / "trace.json"
                tracer.close_open_spans()
                if tracer.export_chrome(trace_path):
                    print(f"trace -> {trace_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
