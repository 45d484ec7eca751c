"""Command-line entry point: regenerate any paper figure from the shell.

Usage::

    python -m repro list
    python -m repro fig12 --hours 2 --seed 3 --jobs 8
    python -m repro fig15
    python -m repro run HEB-D PR --hours 2
    python -m repro run HEB-D PR --faults storm.json
    python -m repro resilience --hours 2
    python -m repro serve --port 8421 --jobs 8
    python -m repro loadtest --clients 100
    python -m repro cache stats
    python -m repro cache clear
    python -m repro lint src --format json

Figure and ``run`` commands fan independent simulations out over worker
processes (``--jobs``, default: all cores) and reuse previous results
from a content-addressed on-disk cache (``--cache DIR`` to relocate it,
``--no-cache`` to disable).  Cached or parallel, the output is
bit-for-bit identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from . import experiments, quick_run
from .analysis.cli import add_lint_arguments, run_lint
from .core import POLICY_NAMES
from .errors import ConfigurationError, FaultSpecError
from .faults import load_schedule
from .runner import (
    ExperimentRunner,
    ResultCache,
    default_cache_dir,
    using_runner,
)
from .units import joules_to_wh
from .workloads import workload_names


def _fig01(args) -> str:
    return experiments.format_fig01(
        experiments.run_fig01(duration_days=args.days, seed=args.seed))


def _fig03(args) -> str:
    return experiments.format_fig03(experiments.run_fig03())


def _fig04(args) -> str:
    return experiments.format_fig04(experiments.run_fig04())


def _fig05(args) -> str:
    return experiments.format_fig05(experiments.run_fig05())


def _fig06(args) -> str:
    return experiments.format_fig06(experiments.run_fig06())


def _fig07(args) -> str:
    return experiments.format_fig07(
        experiments.run_fig07(),
        experiments.run_fig08(duration_h=args.hours, seed=args.seed))


def _fig12(args) -> str:
    return experiments.format_fig12(
        experiments.run_fig12(duration_h=args.hours, seed=args.seed))


def _fig13(args) -> str:
    return experiments.format_fig13(
        experiments.run_fig13(duration_h=args.hours, seed=args.seed))


def _fig14(args) -> str:
    return experiments.format_fig14(
        experiments.run_fig14(duration_h=args.hours, seed=args.seed))


def _fig15(args) -> str:
    return experiments.format_fig15(experiments.run_fig15())


FIGURES: Dict[str, Callable] = {
    "fig01": _fig01,
    "fig03": _fig03,
    "fig04": _fig04,
    "fig05": _fig05,
    "fig06": _fig06,
    "fig07": _fig07,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
}


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent runs "
                             "(default: all cores)")
    parser.add_argument("--cache", type=str, default=None, metavar="DIR",
                        help="result cache directory "
                             f"(default: {default_cache_dir()})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--no-batch", action="store_true",
                        help="disable the batched multi-scenario engine "
                             "(one scalar tick loop per run)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from the HEB paper (ISCA 2015).")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available figures")

    for name in FIGURES:
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        sub.add_argument("--hours", type=float, default=4.0,
                         help="simulated hours per run (where applicable)")
        sub.add_argument("--days", type=float, default=7.0,
                         help="trace days (fig01 only)")
        sub.add_argument("--seed", type=int, default=1)
        _add_runner_arguments(sub)

    run = subparsers.add_parser(
        "run", help="run one (scheme, workload) simulation")
    run.add_argument("scheme", choices=list(POLICY_NAMES))
    run.add_argument("workload", choices=list(workload_names()))
    run.add_argument("--hours", type=float, default=2.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--budget", type=float, default=None,
                     help="utility budget in watts (default 260)")
    run.add_argument("--profile", action="store_true",
                     help="time the engine's tick phases and print a "
                          "per-phase breakdown (runs locally, skips the "
                          "result cache; simulated numbers are unchanged)")
    run.add_argument("--faults", type=str, default=None, metavar="SPEC",
                     help="JSON fault-schedule file to inject (see "
                          "docs/resilience.md for the format)")
    _add_runner_arguments(run)

    resilience = subparsers.add_parser(
        "resilience", help="sweep fault intensity and compare downtime "
                           "across BaOnly / SCFirst / HEB-D")
    resilience.add_argument("--hours", type=float, default=2.0)
    resilience.add_argument("--seed", type=int, default=1)
    resilience.add_argument("--workload", type=str, default="PR",
                            choices=list(workload_names()))
    _add_runner_arguments(resilience)

    serve = subparsers.add_parser(
        "serve", help="run the scenario service: an async HTTP API over "
                      "the content-addressed result cache "
                      "(see docs/service.md)")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421)
    serve.add_argument("--queue-size", type=int, default=256,
                       metavar="N",
                       help="bounded work queue; beyond it submissions "
                            "get 429 + Retry-After (default 256)")
    serve.add_argument("--max-group", type=int, default=64, metavar="N",
                       help="largest burst dispatched as one batched "
                            "group (default 64)")
    _add_runner_arguments(serve)

    loadtest = subparsers.add_parser(
        "loadtest", help="fire concurrent clients at a scenario service "
                         "and report throughput / latency / hit rate")
    loadtest.add_argument("--host", type=str, default=None,
                          help="target a running service (default: "
                               "self-host one in-process)")
    loadtest.add_argument("--port", type=int, default=None)
    loadtest.add_argument("--clients", type=int, default=100)
    loadtest.add_argument("--requests", type=int, default=10,
                          metavar="N", help="requests per client")
    loadtest.add_argument("--hot-fraction", type=float, default=0.95,
                          help="probability a request repeats a warmed "
                               "spec (default 0.95)")
    loadtest.add_argument("--unique", type=int, default=12,
                          help="distinct specs in the warmed hot pool")
    loadtest.add_argument("--hours", type=float, default=1.0 / 30.0,
                          help="simulated hours per spec (default 2 min)")
    loadtest.add_argument("--seed", type=int, default=1)
    _add_runner_arguments(loadtest)

    lint = subparsers.add_parser(
        "lint", help="static analysis: unit, determinism, and exception "
                     "invariants (see docs/analysis.md)")
    add_lint_arguments(lint)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for verb, help_text in (("stats", "show entry count and size"),
                            ("clear", "delete every cached result")):
        verb_parser = cache_sub.add_parser(verb, help=help_text)
        verb_parser.add_argument("--cache", type=str, default=None,
                                 metavar="DIR",
                                 help="cache directory (default: "
                                      f"{default_cache_dir()})")
    return parser


def _build_runner(args) -> ExperimentRunner:
    cache = None if args.no_cache else ResultCache(args.cache)
    return ExperimentRunner(jobs=args.jobs, cache=cache,
                            batch=not args.no_batch)


def _run_single(args) -> str:
    schedule = getattr(args, "fault_schedule", None)
    if args.profile:
        # Profiling wants a live, in-process run: bypass the runner and
        # its cache so the engine actually executes under the timer.
        from .perf import TickProfiler
        from .runner.request import ExperimentSetup, RunRequest, \
            execute_request

        setup = ExperimentSetup(duration_h=args.hours, budget_w=args.budget,
                                seed=args.seed)
        result = execute_request(
            RunRequest(args.scheme, args.workload, setup=setup,
                       faults=schedule),
            profiler=TickProfiler())
    else:
        result = quick_run(args.scheme, args.workload, hours=args.hours,
                           seed=args.seed, budget_w=args.budget,
                           faults=schedule)
    metrics = result.metrics
    lines = [
        f"{args.scheme} on {args.workload} "
        f"({args.hours:g} h, seed {args.seed}):",
        f"  energy efficiency : {metrics.energy_efficiency:.3f}",
        f"  server downtime   : {metrics.server_downtime_s:.0f} s",
        f"  battery lifetime  : {metrics.battery_lifetime_years:.2f} y",
        f"  buffer out / in   : "
        f"{joules_to_wh(metrics.buffer_energy_out_j):.1f} / "
        f"{joules_to_wh(metrics.buffer_energy_in_j):.1f} Wh",
    ]
    if metrics.fault_downtime_s:
        lines.append("  downtime by fault class:")
        for kind, seconds in metrics.fault_downtime_s.items():
            lines.append(f"    {kind:<20s}: {seconds:.1f} s")
    if result.perf is not None:
        lines.append("")
        lines.append(result.perf.format_table())
    return "\n".join(lines)


def _serve(args, runner: ExperimentRunner) -> int:
    import asyncio

    from .service.server import serve as serve_async

    try:
        asyncio.run(serve_async(runner, host=args.host, port=args.port,
                                max_queue=args.queue_size,
                                max_group=args.max_group))
    except KeyboardInterrupt:
        print("shutting down (accepted runs drained)")
    return 0


def _loadtest(args) -> str:
    from .experiments.loadtest import format_loadtest, run_loadtest

    report = run_loadtest(
        host=args.host, port=args.port, clients=args.clients,
        requests_per_client=args.requests,
        hot_fraction=args.hot_fraction, unique=args.unique,
        duration_h=args.hours, seed=args.seed, jobs=args.jobs,
        cache_dir=args.cache)
    return format_loadtest(report)


def _cache_command(args) -> int:
    cache = ResultCache(args.cache)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    stats = cache.stats()
    print(f"cache directory : {stats.directory}")
    print(f"entries         : {stats.entries}")
    print(f"total size      : {stats.total_bytes / 1024:.1f} KiB")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        print("figures:", ", ".join(FIGURES))
        print("schemes:", ", ".join(POLICY_NAMES))
        print("workloads:", ", ".join(workload_names()))
        return 0
    if args.command == "lint":
        return run_lint(args)
    try:
        if args.command == "cache":
            return _cache_command(args)
        if getattr(args, "faults", None):
            args.fault_schedule = load_schedule(args.faults)
        runner = _build_runner(args)
    except (ConfigurationError, FaultSpecError, OSError) as exc:
        parser.error(str(exc))
    if args.command == "serve":
        return _serve(args, runner)
    if args.command == "loadtest":
        if (args.host is None) != (args.port is None):
            parser.error("--host and --port must be given together")
        print(_loadtest(args))
        return 0
    with using_runner(runner):
        if args.command == "run":
            print(_run_single(args))
            return 0
        if args.command == "resilience":
            print(experiments.format_resilience(experiments.run_resilience(
                duration_h=args.hours, seed=args.seed,
                workload=args.workload)))
            return 0
        print(FIGURES[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
