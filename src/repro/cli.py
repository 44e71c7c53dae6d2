"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``        simulate one workload under one configuration
``compare``    run all store-prefetch policies on one workload, side by side
``multicore``  simulate one PARSEC workload across N coherent cores
``campaign``   run a workload × policy × SB × prefetcher matrix in parallel
``workloads``  list the modelled SPEC/PARSEC applications
``report``     compile benchmarks/results/*.json into a markdown report
``trace``      generate a workload trace and save it to a file
"""

from __future__ import annotations

import argparse
import sys

from repro import SystemConfig, parsec, simulate, simulate_multicore, spec2017
from repro.analysis.report import compile_report
from repro.analysis.tables import ascii_bar_chart, format_table
from repro.config.system import SIM_ENGINES, CachePrefetcherKind, StorePrefetchPolicy
from repro.isa.serialize import load_trace, save_trace
from repro.workloads import parsec_names, spec2017_names
from repro.workloads.parsec import PARSEC_APPS
from repro.workloads.spec import SPEC_APPS


def _build_trace(args):
    if getattr(args, "trace_file", None):
        return load_trace(args.trace_file)
    return spec2017(args.app, length=args.length, seed=args.seed)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="SPEC-2017-like application name")
    parser.add_argument("--length", type=int, default=40_000,
                        help="trace length in micro-ops")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-file", help="load a saved trace instead")


def _build_run_tracer(args, config):
    """Tracer + sinks for ``run``'s --trace/--trace-filter/--shadow-check.

    Returns ``(tracer, ring, registry)`` — ``tracer`` is ``None`` when
    tracing is fully off.  The kind filter restricts only the output sink;
    a shadow-check registry always observes the complete stream.
    """
    from repro.trace import (
        ChromeTraceSink,
        FilteredSink,
        JsonlSink,
        RingBufferSink,
        Tracer,
        shadow_registry_for,
    )

    mode = args.trace
    sinks = []
    ring = None
    if mode == "ring":
        ring = RingBufferSink()
        sinks.append(ring)
    elif mode == "jsonl":
        path = args.trace_out or f"{args.app}.trace.jsonl"
        sinks.append(JsonlSink(path))
    elif mode == "chrome":
        path = args.trace_out or f"{args.app}.trace.json"
        sinks.append(ChromeTraceSink(path))
    registry = None
    if args.shadow_check:
        registry = shadow_registry_for(config)
        if args.trace_filter:
            # Registry needs the full stream: filter per output sink instead.
            sinks = [FilteredSink(sink, args.trace_filter) for sink in sinks]
        sinks.append(registry)
        return Tracer(sinks), ring, registry
    if not sinks:
        return None, None, None
    return Tracer(sinks, kinds=args.trace_filter), ring, registry


def _cmd_run(args) -> int:
    config = SystemConfig.skylake(
        sb_entries=args.sb, store_prefetch=args.policy,
        cache_prefetcher=args.prefetcher, engine=args.engine,
    )
    tracer, ring, registry = _build_run_tracer(args, config)
    result = simulate(_build_trace(args), config, tracer=tracer)
    if tracer is not None:
        tracer.close()
    rows = sorted(result.summary().items())
    print(format_table(("metric", "value"), rows))
    if result.detector_stats is not None:
        d = result.detector_stats
        print(f"\nSPB: {d.bursts_triggered}/{d.windows_checked} windows "
              f"triggered bursts over {d.stores_observed} stores")
    if tracer is not None:
        print(f"\ntrace: {tracer.emitted} event(s) captured"
              + (f", {tracer.filtered} filtered out" if tracer.filtered else ""))
        for sink in tracer.sinks:
            inner = getattr(sink, "sink", None)  # unwrap FilteredSink
            path = getattr(sink, "path", None) or getattr(inner, "path", None)
            if path:
                print(f"trace written to {path}")
        if ring is not None:
            counts = ", ".join(
                f"{kind}={count}" for kind, count in sorted(ring.counts.items())
            )
            print(f"event counts: {counts}")
            for event in ring.tail(10):
                print(f"  {event.to_json()}")
    if registry is not None:
        problems = registry.diff(
            pipeline=result.pipeline,
            sb_stats=result.sb_stats,
            mshr_stats=result.extras.get("l1_mshr"),
            traffic=result.traffic,
            engine_stats=result.engine_stats,
            detector_stats=result.detector_stats,
        )
        if problems:
            print("\nshadow check FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("\nshadow check: event-derived metrics match all counters")
    return 0


def _cmd_compare(args) -> int:
    trace = _build_trace(args)
    results = {}
    for policy in StorePrefetchPolicy:
        entries = 1024 if policy == StorePrefetchPolicy.IDEAL else args.sb
        config = SystemConfig.skylake(
            sb_entries=entries, store_prefetch=policy, engine=args.engine
        )
        results[policy.value] = simulate(trace, config)
    ideal_cycles = results["ideal"].cycles
    rows = [
        (
            name,
            result.cycles,
            round(result.ipc, 3),
            f"{result.sb_stall_ratio:.1%}",
            f"{ideal_cycles / result.cycles:.1%}",
        )
        for name, result in results.items()
    ]
    print(f"workload: {trace.name} ({len(trace)} µops), SB = {args.sb} entries\n")
    print(format_table(("policy", "cycles", "IPC", "SB-stall", "vs ideal"), rows))
    print()
    print(ascii_bar_chart(
        {name: ideal_cycles / result.cycles for name, result in results.items()},
        reference=1.0,
    ))
    return 0


def _cmd_multicore(args) -> int:
    config = SystemConfig.skylake(
        sb_entries=args.sb, store_prefetch=args.policy,
        cache_prefetcher=args.prefetcher, engine=args.engine,
        num_cores=args.threads,
    )
    traces = parsec(args.app, threads=args.threads, length=args.length,
                    seed=args.seed)
    result = simulate_multicore(traces, config)
    rows = []
    for core, stats in enumerate(result.per_core):
        cycles = stats.cycles or 1
        rows.append((
            core,
            stats.cycles,
            stats.committed_uops,
            round(stats.committed_uops / cycles, 3),
            f"{stats.sb_stall_cycles / cycles:.1%}",
        ))
    print(f"workload: {args.app} × {args.threads} threads "
          f"({args.length} µops each), policy {args.policy}, "
          f"engine {args.engine}\n")
    print(format_table(("core", "cycles", "committed", "IPC", "SB-stall"), rows))
    print(f"\nsystem: {result.cycles} cycles, "
          f"IPC {result.system_ipc:.3f}, "
          f"mean SB-stall {result.sb_stall_ratio:.1%}")
    return 0


def _split_csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _campaign_apps(text: str, threads: int = 0) -> list[str]:
    names = parsec_names if threads else spec2017_names
    if text == "all":
        return names()
    if text == "sb-bound":
        return names(True)
    return _split_csv(text)


def _cmd_campaign(args) -> int:
    from repro.campaign import (
        Campaign,
        ConsoleProgress,
        ManifestError,
        ResultStore,
        load_manifest,
        run_campaign,
    )
    from repro.sim.runner import ResultsCache

    if args.manifest:
        try:
            campaign = load_manifest(args.manifest)
        except (ManifestError, OSError, ValueError) as exc:
            print(f"campaign: bad manifest {args.manifest}: {exc}", file=sys.stderr)
            return 2
    else:
        policies = (
            [p.value for p in StorePrefetchPolicy]
            if args.policies == "all"
            else _split_csv(args.policies)
        )
        try:
            campaign = Campaign.matrix(
                apps=_campaign_apps(args.apps, args.threads),
                policies=policies,
                sb_sizes=[int(size) for size in _split_csv(args.sb_sizes)],
                prefetchers=_split_csv(args.prefetchers),
                length=args.length,
                seed=args.seed,
                warmup=args.warmup,
                engine=args.engine,
                threads=args.threads,
                workload_kind="parsec" if args.threads else "spec2017",
            )
        except ValueError as exc:
            print(f"campaign: bad flag value: {exc}", file=sys.stderr)
            return 2
    store = None if args.no_cache else ResultStore(args.cache_dir)
    cache = ResultsCache(store=store)
    print(f"campaign: {len(campaign)} job(s), "
          f"workers={args.workers or 'auto'}, "
          f"cache={'off' if store is None else args.cache_dir}")
    report = run_campaign(
        campaign,
        cache=cache,
        max_workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        progress=None if args.quiet else ConsoleProgress(),
        trace_dir=args.trace_dir,
    )
    rows = []
    for job in campaign:
        label = f"{job.workload}x{job.threads}" if job.threads else job.workload
        result = report.get(job)
        if result is None:
            rows.append((label, job.config.store_prefetch.value,
                         job.config.core.store_buffer_per_thread,
                         job.config.cache_prefetcher.value, "FAILED", "-", "-"))
            continue
        # Multicore cells return a MulticoreResult (system IPC, no per-run
        # workload metadata); job fields describe both shapes uniformly.
        ipc = result.ipc if hasattr(result, "ipc") else result.system_ipc
        rows.append((
            label,
            job.config.store_prefetch.value,
            job.config.core.store_buffer_per_thread,
            job.config.cache_prefetcher.value,
            result.cycles,
            round(ipc, 3),
            f"{result.sb_stall_ratio:.1%}",
        ))
    print()
    print(format_table(
        ("workload", "policy", "SB", "prefetcher", "cycles", "IPC", "SB-stall"),
        rows,
    ))
    summary = report.telemetry.summary()
    print(
        f"\n{summary['completed']}/{summary['total']} jobs in "
        f"{summary['elapsed_s']}s ({summary['jobs_per_sec']} jobs/s): "
        f"{summary['simulated']} simulated, {summary['memory_hits']} memory "
        f"hit(s), {summary['disk_hits']} disk hit(s), "
        f"{summary['retries']} retrie(s), {summary['failures']} failure(s)"
    )
    if summary.get("traces_captured"):
        print(f"per-job traces: {summary['traces_captured']} capture(s) "
              f"under {args.trace_dir}")
    for outcome in report.failures:
        print(f"  FAILED {outcome.job.describe()}: {outcome.error}")
    return 0 if report.ok else 1


def _cmd_workloads(_args) -> int:
    spec_rows = [
        (name, "yes" if name in spec2017_names(True) else "",
         SPEC_APPS[name].description)
        for name in spec2017_names()
    ]
    print("SPEC CPU 2017-like applications:")
    print(format_table(("name", "SB-bound", "description"), spec_rows))
    parsec_rows = [
        (name, "yes" if name in parsec_names(True) else "",
         PARSEC_APPS[name].description)
        for name in parsec_names()
    ]
    print("\nPARSEC-like applications (multi-threaded):")
    print(format_table(("name", "SB-bound", "description"), parsec_rows))
    return 0


def _cmd_report(args) -> int:
    text = compile_report(args.results_dir, args.output)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_trace(args) -> int:
    trace = spec2017(args.app, length=args.length, seed=args.seed)
    save_trace(trace, args.output)
    stats = trace.stats()
    print(f"wrote {len(trace)} µops to {args.output} "
          f"({stats.stores} stores, {stats.loads} loads)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPB reproduction — simulate store-prefetch policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload/configuration")
    _add_workload_args(run)
    run.add_argument("--policy", default="at-commit",
                     choices=[p.value for p in StorePrefetchPolicy])
    run.add_argument("--sb", type=int, default=56, help="store-buffer entries")
    run.add_argument("--prefetcher", default="stream",
                     choices=[p.value for p in CachePrefetcherKind])
    run.add_argument("--engine", default="reference", choices=SIM_ENGINES,
                     help="execution engine; 'fast' is the cycle-skipping "
                          "engine proven bit-identical by the differential "
                          "harness (docs/FASTPATH.md)")
    run.add_argument("--trace", default="off",
                     choices=("off", "ring", "jsonl", "chrome"),
                     help="capture cycle-level events (ring buffer summary, "
                          "JSONL stream, or Chrome trace_event JSON)")
    run.add_argument("--trace-out",
                     help="trace output path (default <app>.trace.json[l])")
    run.add_argument("--trace-filter",
                     help="comma list of event-kind globs, e.g. 'sb.*,spb.*'")
    run.add_argument("--shadow-check", action="store_true",
                     help="re-derive counters from the event stream and "
                          "verify they match the hand-maintained statistics")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="compare all policies")
    _add_workload_args(compare)
    compare.add_argument("--sb", type=int, default=14)
    compare.add_argument("--engine", default="reference", choices=SIM_ENGINES,
                         help="execution engine for every policy run")
    compare.set_defaults(func=_cmd_compare)

    multicore = sub.add_parser(
        "multicore",
        help="simulate one PARSEC-like workload across N coherent cores",
    )
    multicore.add_argument("app", help="PARSEC-like application name")
    multicore.add_argument("--threads", type=int, default=4,
                           help="number of cores (one thread each)")
    multicore.add_argument("--length", type=int, default=20_000,
                           help="per-thread trace length in micro-ops")
    multicore.add_argument("--seed", type=int, default=1)
    multicore.add_argument("--policy", default="at-commit",
                           choices=[p.value for p in StorePrefetchPolicy])
    multicore.add_argument("--sb", type=int, default=56,
                           help="store-buffer entries per core")
    multicore.add_argument("--prefetcher", default="stream",
                           choices=[p.value for p in CachePrefetcherKind])
    multicore.add_argument("--engine", default="reference", choices=SIM_ENGINES,
                           help="execution engine; 'fast' is the event-heap "
                                "scheduler with cross-core cycle skipping, "
                                "proven bit-identical by the multicore "
                                "differential matrix (docs/FASTPATH.md)")
    multicore.set_defaults(func=_cmd_multicore)

    campaign = sub.add_parser(
        "campaign",
        help="run a configuration matrix in parallel with a persistent cache",
    )
    campaign.add_argument(
        "--apps", default="sb-bound",
        help="comma list of SPEC apps, or 'all' / 'sb-bound' (default)")
    campaign.add_argument(
        "--policies", default="at-commit,spb",
        help="comma list of store-prefetch policies, or 'all'")
    campaign.add_argument("--sb-sizes", default="14,28,56",
                          help="comma list of SB sizes")
    campaign.add_argument("--prefetchers", default="stream",
                          help="comma list of cache prefetchers")
    campaign.add_argument("--length", type=int, default=30_000,
                          help="trace length in micro-ops")
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--warmup", type=int, default=0,
                          help="warm-up micro-ops excluded from statistics")
    campaign.add_argument("--threads", type=int, default=0,
                          help="make every cell one N-core multicore run of a "
                               "PARSEC workload ('all'/'sb-bound' app sets "
                               "then resolve to PARSEC names)")
    campaign.add_argument("--engine", default="reference", choices=SIM_ENGINES,
                          help="execution engine for every cell (results and "
                               "cache keys are engine-independent)")
    campaign.add_argument("--manifest",
                          help="JSON manifest describing the matrix "
                               "(overrides the matrix flags)")
    campaign.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: cores-1; 1 = serial)")
    campaign.add_argument("--timeout", type=float, default=None,
                          help="per-job timeout in seconds (parallel only)")
    campaign.add_argument("--retries", type=int, default=1,
                          help="extra attempts for a failing job")
    campaign.add_argument("--cache-dir", default="benchmarks/.cache",
                          help="persistent result-store directory")
    campaign.add_argument("--no-cache", action="store_true",
                          help="disable the on-disk result store")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress live per-job progress lines")
    campaign.add_argument("--trace-dir",
                          help="capture each simulated job's cycle-level "
                               "event stream as JSONL under this directory")
    campaign.set_defaults(func=_cmd_campaign)

    workloads = sub.add_parser("workloads", help="list modelled applications")
    workloads.set_defaults(func=_cmd_workloads)

    report = sub.add_parser("report", help="compile figure JSONs to markdown")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", help="write markdown here instead of stdout")
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser("trace", help="generate and save a trace")
    trace.add_argument("app")
    trace.add_argument("output", help="output path (.jsonl or .jsonl.gz)")
    trace.add_argument("--length", type=int, default=40_000)
    trace.add_argument("--seed", type=int, default=1)
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
