"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``
    Print the paper's Table 1 from the executable registry; with
    ``--validate``, empirically validate every cell first (slow).
``solve``
    Build an instance from flags and solve it (polynomial route when one
    exists; ``--exact`` falls back to the exponential exact solvers,
    ``--heuristic`` to the portfolio).
``scenario``
    Solve one of the named scenarios shipped with the library.
``simulate``
    Solve an instance, then stream data sets through the discrete-event
    simulator and report measured period/latency.
``campaign``
    The experiment service (see :mod:`repro.campaign`):

    * ``campaign run`` — execute a declarative campaign through the
      multiprocessing runner and result cache; ``--retry-errors``
      resumes a partially-failed campaign re-solving only error rows;
      ``--cache-dir`` names a local cache directory, ``--cache-url``
      shares a remote solver-service cache instead;
    * ``campaign report`` — aggregate a saved result file (summary,
      per-engine timing breakdown, optional heuristic-gap table);
    * ``campaign profile`` — aggregate the per-solve ``timing`` blocks
      a warm cache (and/or results file) already holds into
      p50/p95/p99 latency percentiles per (engine, n, p) — no
      re-solving;
    * ``campaign pareto`` — trace (period, latency) Pareto fronts of one
      or more instances (``--file`` / ``--scenario``) through the
      runner, sharing the cache/engine knobs; ``--out`` writes
      the fronts as a machine-readable JSON artifact;
    * ``campaign cache stats`` / ``campaign cache compact`` — inspect a
      cache, or rewrite it dropping superseded records;
      ``compact --max-age-days / --max-bytes`` additionally evicts old
      records / shrinks the store oldest-first to a byte budget.
``serve``
    Run the HTTP solver service (:mod:`repro.service`): a threaded
    solve/cache server with single-flight request coalescing over a
    local cache directory.  Clients share solves through
    ``POST /v1/solve`` and the cache through ``GET/PUT /v1/cache/<key>``;
    ``GET /metrics`` serves Prometheus metrics, and ``--trace-log``
    appends per-request spans to a JSON-lines file.
``submit``
    POST one instance (same flags as ``solve``) to a running solver
    service and print the result.

Accepted ``--file`` shapes (see :mod:`repro.serialization`)
-----------------------------------------------------------
``solve`` / ``simulate`` read any of these JSON documents:

* ``{"kind": "pipeline" | "fork" | "fork-join", ...}`` — an application
  only; processor speeds must come from ``--speeds``;
* ``{"kind": "instance", "application": {...}, "platform": {...},
  "allow_data_parallel": ...}`` — a full problem instance; ``--speeds``
  is optional and overrides the embedded platform, ``--data-parallel``
  force-enables data-parallelism;
* ``{"kind": "mapping", "application": {...}, "platform": {...},
  "groups": [...]}`` — a mapping document; its application and platform
  halves are re-solved (the stored groups are ignored), with the same
  override rules as ``"instance"``.

Examples
--------
::

    python -m repro table1
    python -m repro solve --graph pipeline --works 14,4,2,4 --speeds 1,1,1 \\
        --data-parallel --objective latency
    python -m repro solve --graph fork --root-work 2 --works 5,5,5,5 \\
        --speeds 1,2,4 --objective period
    python -m repro solve --file instance.json --objective latency
    python -m repro scenario master-slave-fork --objective period
    python -m repro simulate --graph pipeline --works 6,2,8 --speeds 2,1 \\
        --objective period --data-sets 500
    python -m repro campaign run --spec campaign.json --workers 4 \\
        --cache-dir .repro-cache --out results.jsonl
    python -m repro campaign run --spec campaign.json --cache-dir .repro-cache \\
        --retry-errors
    python -m repro campaign report --results results.jsonl --baseline exact
    python -m repro campaign pareto --scenario image-pipeline --points 16
    python -m repro campaign pareto --file instance.json --exact \\
        --cache-dir .repro-cache --out fronts.json
    python -m repro campaign profile --cache-dir .repro-cache
    python -m repro campaign cache stats --cache-dir .repro-cache
    python -m repro campaign cache compact --cache-dir .repro-cache \\
        --max-age-days 30 --max-bytes 10000000
    python -m repro serve --port 8300 --cache-dir .repro-cache \\
        --solve-workers 4 --trace-log spans.jsonl
    python -m repro submit --url http://127.0.0.1:8300 --graph pipeline \\
        --works 14,4,2,4 --speeds 1,1,1 --objective period
    python -m repro campaign run --spec campaign.json \\
        --cache-url http://127.0.0.1:8300
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import (
    ForkApplication,
    ForkJoinApplication,
    NPHardError,
    Objective,
    PipelineApplication,
    Platform,
    ProblemSpec,
    ReproError,
    classify,
    solve,
)
from .algorithms import ENGINES

__all__ = ["main", "build_parser"]


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--file", default=None,
        help="JSON document (application, instance or mapping — see the "
             "module docstring); overrides --graph/--works/--root-work/"
             "--join-work, and --speeds too when it carries a platform",
    )
    parser.add_argument(
        "--graph", choices=("pipeline", "fork", "forkjoin"), default="pipeline"
    )
    parser.add_argument(
        "--works", type=_floats, default=None,
        help="comma-separated stage works (fork: branch works)",
    )
    parser.add_argument("--root-work", type=float, default=1.0,
                        help="fork/fork-join root work w0")
    parser.add_argument("--join-work", type=float, default=1.0,
                        help="fork-join join work")
    parser.add_argument("--speeds", type=_floats, default=None,
                        help="comma-separated processor speeds (required "
                             "unless --file carries a platform)")
    parser.add_argument("--data-parallel", action="store_true",
                        help="allow data-parallel stages")
    parser.add_argument(
        "--objective", choices=("period", "latency"), default="period"
    )
    parser.add_argument("--period-bound", type=float, default=None)
    parser.add_argument("--latency-bound", type=float, default=None)


def _instance_doc_parts(doc: dict, allow_dp: bool):
    """``(application, platform, allow_dp)`` of an instance/mapping doc.

    Mapping documents never carry an ``allow_data_parallel`` field; a
    mapping that uses data-parallel groups implies the strategy was
    allowed for its instance.
    """
    from .serialization import application_from_dict, platform_from_dict

    app = application_from_dict(doc["application"])
    platform = platform_from_dict(doc["platform"])
    allow_dp = allow_dp or bool(doc.get("allow_data_parallel", False))
    if doc.get("kind") == "mapping":
        allow_dp = allow_dp or any(
            g.get("assignment") == "data-parallel"
            for g in doc.get("groups", ())
        )
    return app, platform, allow_dp


def _build_spec(args) -> ProblemSpec:
    platform = None
    allow_dp = args.data_parallel
    if args.file is not None:
        from .serialization import application_from_dict

        with open(args.file) as fh:
            doc = json.load(fh)
        if doc.get("kind") in ("instance", "mapping"):
            app, platform, allow_dp = _instance_doc_parts(doc, allow_dp)
        else:
            app = application_from_dict(doc)
    elif args.works is None:
        raise ReproError("provide --works or --file")
    elif args.graph == "pipeline":
        app = PipelineApplication.from_works(args.works)
    elif args.graph == "fork":
        app = ForkApplication.from_works(args.root_work, args.works)
    else:
        app = ForkJoinApplication.from_works(
            args.root_work, args.works, args.join_work
        )
    if args.speeds is not None:
        platform = Platform.heterogeneous(args.speeds)
    elif platform is None:
        raise ReproError(
            "provide --speeds or a platform-bearing --file "
            "(an 'instance' or 'mapping' document)"
        )
    return ProblemSpec(app, platform, allow_data_parallel=allow_dp)


def _objective(args) -> Objective:
    return Objective.PERIOD if args.objective == "period" else Objective.LATENCY


def _budget(args):
    """A :class:`~repro.algorithms.budget.Budget` from CLI flags, or None."""
    from .algorithms.budget import Budget

    return Budget.from_mapping({
        "max_seconds": getattr(args, "max_seconds", None),
        "max_nodes": getattr(args, "max_nodes", None),
    })


def _solve_spec(spec, args, out) -> object | None:
    objective = _objective(args)
    entry = classify(
        spec, objective,
        bicriteria=(args.period_bound is not None
                    or args.latency_bound is not None),
    )
    print(f"instance  : {spec.describe()}", file=out)
    print(f"complexity: {entry.describe()}", file=out)
    try:
        solution = solve(
            spec, objective,
            period_bound=args.period_bound,
            latency_bound=args.latency_bound,
            exact_fallback=getattr(args, "exact", False),
            engine=getattr(args, "engine", "bnb"),
            budget=_budget(args),
        )
    except NPHardError as exc:
        if getattr(args, "heuristic", False) and args.graph == "pipeline":
            from .heuristics import pipeline_period_portfolio

            solution = pipeline_period_portfolio(
                spec.application, spec.platform, random.Random(0)
            )
            print("(NP-hard: portfolio heuristic used)", file=out)
        else:
            print(f"NP-hard: {exc}", file=out)
            return None
    meta = getattr(solution, "meta", {}) or {}
    if meta.get("status") == "budget_exhausted":
        print(f"budget    : exhausted ({meta.get('budget_reason')}) after "
              f"{meta.get('nodes')} nodes — incumbent within "
              f"{meta.get('gap', float('inf')):.2%} of proven lower bound "
              f"{meta.get('lower_bound'):.6g}", file=out)
    elif meta.get("algorithm") == "milp":
        print(f"engine    : milp ({meta.get('backend')}) — "
              "proven optimal (gap 0.00%)", file=out)
    print(f"solution  : {solution.describe()}", file=out)
    return solution


def _cmd_table1(args, out) -> int:
    if args.validate:
        from .analysis.table1 import regenerate_table1

        text, validations = regenerate_table1(
            random.Random(args.seed), trials=args.trials
        )
        print(text, file=out)
        failed = [k for k, v in validations.items() if not v.ok]
        print(f"\nvalidated cells: {len(validations) - len(failed)}/"
              f"{len(validations)}", file=out)
        return 1 if failed else 0
    from .analysis.table1 import render_table1

    print(render_table1(), file=out)
    return 0


def _cmd_solve(args, out) -> int:
    solution = _solve_spec(_build_spec(args), args, out)
    return 0 if solution is not None else 2


def _cmd_scenario(args, out) -> int:
    from .generators import get_scenario

    scenario = get_scenario(args.name)
    print(f"scenario  : {scenario.name} — {scenario.description}", file=out)
    spec = ProblemSpec(
        scenario.application, scenario.platform, scenario.allow_data_parallel
    )
    solution = _solve_spec(spec, args, out)
    return 0 if solution is not None else 2


def _cmd_simulate(args, out) -> int:
    from .simulation import simulate

    spec = _build_spec(args)
    solution = _solve_spec(spec, args, out)
    if solution is None:
        return 2
    result = simulate(solution.mapping, num_data_sets=args.data_sets)
    print(f"simulated : {args.data_sets} data sets", file=out)
    print(f"  measured period : {result.measured_period:.6g} "
          f"(analytic {solution.period:.6g})", file=out)
    print(f"  max latency     : {result.max_latency:.6g} "
          f"(analytic {solution.latency:.6g})", file=out)
    print(f"  order inversions: {result.order_inversions}", file=out)
    return 0


def _open_cache(args):
    """The cache the flags name: ``--cache-url`` a remote (http) cache,
    ``--cache-dir`` a local directory, neither no cache at all."""
    from .campaign import ResultCache

    url = getattr(args, "cache_url", None)
    cache_dir = getattr(args, "cache_dir", None)
    fallback_dir = getattr(args, "cache_fallback_dir", None)
    if url is not None:
        if cache_dir is not None:
            raise ReproError(
                "--cache-dir does not apply with --cache-url (the cache "
                "lives server-side); drop one of them"
            )
        return ResultCache(url=url, backend="http",
                           fallback_dir=fallback_dir)
    if fallback_dir is not None:
        raise ReproError("--cache-fallback-dir only applies to --cache-url "
                         "(a local cache has no transport to lose)")
    if cache_dir is None:
        return None
    return ResultCache(cache_dir)


def _cmd_campaign_run(args, out) -> int:
    from .campaign import CampaignSpec, run_campaign, save_rows, summarize
    from .obs.tracing import NULL_TRACER, Tracer

    with open(args.spec) as fh:
        spec = CampaignSpec.from_dict(json.load(fh))
    cache = _open_cache(args)
    if args.retry_errors and cache is None:
        raise ReproError("--retry-errors needs --cache-dir (the error rows "
                         "to retry live in the cache)")
    tracer = Tracer(args.trace_log) if args.trace_log else NULL_TRACER
    try:
        result = run_campaign(
            spec, cache=cache, workers=args.workers,
            chunk_size=args.chunk_size, retry_errors=args.retry_errors,
            task_timeout=args.task_timeout, tracer=tracer,
        )
    finally:
        tracer.close()
    if args.trace_log:
        print(f"[spans -> {args.trace_log}]", file=out)
    if args.out is not None:
        save_rows(args.out, result)
        print(f"[rows -> {args.out}]", file=out)
    print(summarize(result, title=f"campaign {spec.name!r}"), file=out)
    s = result.stats
    cache_note = (
        f", {s['cache_hits']} from cache" if cache is not None else ""
    )
    retry_note = f", {s['retried']} retried" if args.retry_errors else ""
    crash_note = f", {s['crashed']} crashed" if s.get("crashed") else ""
    budget_note = (f", {s['budget_exhausted']} budget-exhausted"
                   if s.get("budget_exhausted") else "")
    print(
        f"{s['tasks']} tasks in {s['seconds']:.3f}s "
        f"({s['workers']} workers): {s['ok']} ok, "
        f"{s['errors']} errors{cache_note}{retry_note}"
        f"{crash_note}{budget_note}",
        file=out,
    )
    return 0


def _cmd_campaign_report(args, out) -> int:
    from .campaign import (
        heuristic_gap,
        load_rows,
        summarize,
        timing_breakdown,
    )

    result = load_rows(args.results)
    print(summarize(result, title=f"campaign {result.name!r}"), file=out)
    breakdown = timing_breakdown(result)
    if breakdown:
        print(breakdown, file=out)
    if args.baseline is not None:
        _, text = heuristic_gap(result, baseline=args.baseline)
        print(text, file=out)
    errors = result.error_rows
    if errors:
        print(f"{len(errors)} error rows, e.g.:", file=out)
        for row in errors[:5]:
            print(
                f"  {row['instance_id']} [{row['solver']}/{row['objective']}]"
                f" {row['error_type']}: {row['error']}",
                file=out,
            )
    return 0


def _pareto_instances(args) -> list[tuple[str, ProblemSpec]]:
    """The (instance_id, spec) pairs named by --file / --scenario."""
    from pathlib import Path

    instances: list[tuple[str, ProblemSpec]] = []
    for path in args.file or ():
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("kind") not in ("instance", "mapping"):
            raise ReproError(
                f"{path}: campaign pareto needs an 'instance' or 'mapping' "
                f"document (got kind={doc.get('kind')!r}); bare applications "
                "carry no platform"
            )
        app, platform, allow_dp = _instance_doc_parts(
            doc, args.data_parallel
        )
        spec = ProblemSpec(app, platform, allow_data_parallel=allow_dp)
        instances.append((Path(path).stem, spec))
    for name in args.scenario or ():
        from .generators import get_scenario

        sc = get_scenario(name)
        spec = ProblemSpec(
            sc.application, sc.platform,
            allow_data_parallel=sc.allow_data_parallel or args.data_parallel,
        )
        instances.append((sc.name, spec))
    if not instances:
        raise ReproError(
            "campaign pareto needs at least one --file or --scenario"
        )
    return instances


def _cmd_campaign_pareto(args, out) -> int:
    from .campaign import pareto_comparison, save_pareto_fronts

    fronts, table = pareto_comparison(
        _pareto_instances(args),
        num_points=args.points,
        exact_fallback=args.exact,
        engine=args.engine,
        cache=_open_cache(args),
    )
    print(table, file=out)
    for iid, front in fronts.items():
        print(f"\nfront {iid!r} ({len(front)} points):", file=out)
        for sol in front:
            # repr: shortest round-trippable form — downstream tooling can
            # parse the printed points back to the exact float values
            print(f"  period={sol.period!r} latency={sol.latency!r}",
                  file=out)
    if args.out is not None:
        save_pareto_fronts(args.out, fronts, num_points=args.points)
        print(f"\n[fronts -> {args.out}]", file=out)
    return 0


def _cmd_campaign_cache(args, out) -> int:
    cache = _open_cache(args)
    if cache is None:
        raise ReproError("campaign cache needs --cache-dir or --cache-url")
    where = args.cache_dir if args.cache_dir is not None else args.cache_url
    if args.cache_command == "stats":
        info = cache.storage_stats()
        print(f"cache {where} [{info['backend']}]", file=out)
        if info.get("remote_backend"):
            print(f"  remote backend: {info['remote_backend']}", file=out)
        print(f"  keys          : {info['keys']}", file=out)
        print(f"  files         : {info['files']}", file=out)
        print(f"  bytes         : {info['bytes']}", file=out)
        print(f"  stale records : {info['stale_records']}", file=out)
        return 0
    # compact
    info = cache.compact(max_age_days=args.max_age_days,
                         max_bytes=args.max_bytes)
    print(
        f"compacted {where} [{info['backend']}]: "
        f"{info['bytes_before']} -> {info['bytes_after']} bytes "
        f"({info['bytes_reclaimed']} reclaimed, "
        f"{info['records_dropped']} superseded records dropped, "
        f"{info.get('records_evicted', 0)} evicted by policy)",
        file=out,
    )
    return 0


def _cmd_campaign_profile(args, out) -> int:
    from .campaign import (
        collect_timings,
        load_rows,
        profile_doc,
        profile_table,
    )

    rows = load_rows(args.results).rows if args.results is not None else None
    cache = _open_cache(args)
    if cache is None and rows is None:
        raise ReproError(
            "campaign profile needs --cache-dir or --cache-url, "
            "and/or --results"
        )
    timings = collect_timings(cache=cache, rows=rows)
    if not timings:
        print("no timing blocks found (empty cache/results, or rows "
              "saved before the timing field existed)", file=out)
        return 2
    print(profile_table(timings), file=out)
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(profile_doc(timings), fh, indent=2)
            fh.write("\n")
        print(f"[profile -> {args.out}]", file=out)
    return 0


def _cmd_campaign(args, out) -> int:
    handlers = {
        "run": _cmd_campaign_run,
        "report": _cmd_campaign_report,
        "pareto": _cmd_campaign_pareto,
        "cache": _cmd_campaign_cache,
        "profile": _cmd_campaign_profile,
    }
    return handlers[args.campaign_command](args, out)


def _cmd_serve(args, out) -> int:
    from .service import serve

    return serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        solve_workers=args.solve_workers,
        verbose=args.verbose,
        out=out,
        cache_url=args.cache_url,
        cache_fallback_dir=args.cache_fallback_dir,
        trace_log=args.trace_log,
    )


def _cmd_submit(args, out) -> int:
    from .serialization import spec_to_dict
    from .service import ServiceClient

    spec = _build_spec(args)
    request = {
        "instance": spec_to_dict(spec),
        "objective": args.objective,
        "period_bound": args.period_bound,
        "latency_bound": args.latency_bound,
        "solver": {
            "name": "cli-submit",
            "mode": args.mode,
            "exact_fallback": args.exact,
            "engine": args.engine,
            "seed": args.seed,
            "samples": args.samples,
            "max_seconds": args.max_seconds,
            "max_nodes": args.max_nodes,
        },
    }
    client = ServiceClient(args.url, timeout=args.timeout)
    response = client.solve(request)
    row = response["row"]
    how = ("cache hit" if response["cached"]
           else "coalesced" if response["coalesced"] else "solved")
    print(f"service   : {client.url} ({how})", file=out)
    print(f"key       : {response['key']}", file=out)
    if row["status"] != "ok":
        print(f"error     : {row['error_type']}: {row['error']}", file=out)
        return 2
    execution = row.get("execution") or {}
    if execution.get("status") == "budget_exhausted":
        print(f"budget    : exhausted ({execution.get('reason')}) — "
              f"incumbent within {execution.get('gap', 0.0):.2%} of lower "
              f"bound {execution.get('lower_bound')!r}", file=out)
    print(f"solution  : period={row['period']!r} "
          f"latency={row['latency']!r} value={row['value']!r} "
          f"[{row['algorithm']}]", file=out)
    timing = row.get("timing") or {}
    if timing.get("seconds") is not None:
        nodes = timing.get("nodes")
        effort = f", {nodes} nodes" if nodes is not None else ""
        print(f"timing    : {1e3 * timing['seconds']:.2f} ms solve wall "
              f"time [{timing.get('engine') or '-'}{effort}]", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benoit & Robert (2007) workflow-mapping reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_budget_flags(p) -> None:
        p.add_argument("--max-seconds", type=float, default=None,
                       help="wall-clock budget for exact solves; on "
                            "exhaustion the best incumbent is returned "
                            "with a proven lower bound and gap")
        p.add_argument("--max-nodes", type=int, default=None,
                       help="search-node budget for exact solves "
                            "(deterministic anytime cutoff); a bounded "
                            "budget also lifts the exact-engine size guard")

    p_table = sub.add_parser("table1", help="print (and validate) Table 1")
    p_table.add_argument("--validate", action="store_true")
    p_table.add_argument("--trials", type=int, default=2)
    p_table.add_argument("--seed", type=int, default=2007)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--exact", action="store_true",
                         help="exponential exact fallback for NP-hard cells")
    p_solve.add_argument("--engine", choices=ENGINES,
                         default="bnb",
                         help="exact search engine for --exact: pruned "
                              "branch-and-bound (default), flat enumeration, "
                              "or the MILP formulation (needs PuLP/CBC or "
                              "scipy installed)")
    p_solve.add_argument("--heuristic", action="store_true",
                         help="portfolio heuristic for NP-hard pipelines")
    _add_budget_flags(p_solve)

    p_scen = sub.add_parser("scenario", help="solve a named scenario")
    p_scen.add_argument("name")
    p_scen.add_argument(
        "--objective", choices=("period", "latency"), default="period"
    )
    p_scen.add_argument("--period-bound", type=float, default=None)
    p_scen.add_argument("--latency-bound", type=float, default=None)
    p_scen.add_argument("--exact", action="store_true")
    p_scen.add_argument("--engine", choices=ENGINES,
                        default="bnb")
    p_scen.add_argument("--heuristic", action="store_true")
    _add_budget_flags(p_scen)

    p_sim = sub.add_parser("simulate", help="solve then simulate")
    _add_instance_flags(p_sim)
    p_sim.add_argument("--exact", action="store_true")
    p_sim.add_argument("--engine", choices=ENGINES,
                       default="bnb")
    p_sim.add_argument("--heuristic", action="store_true")
    p_sim.add_argument("--data-sets", type=int, default=500)
    _add_budget_flags(p_sim)

    p_camp = sub.add_parser(
        "campaign", help="run / resume / aggregate experiment campaigns"
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    def _add_cache_flags(p) -> None:
        p.add_argument("--cache-dir", default=None,
                       help="content-addressed result cache directory "
                            "(256 append-only JSONL shards)")
        p.add_argument("--cache-url", default=None,
                       help="share a remote solver-service cache instead, "
                            "e.g. http://127.0.0.1:8300")
        p.add_argument("--cache-fallback-dir", default=None,
                       help="arm a circuit breaker around the http cache: "
                            "while the service is unreachable, gets degrade "
                            "to misses and puts spill to a journal here, "
                            "replayed to the service on recovery")

    p_run = camp_sub.add_parser(
        "run", help="execute a campaign spec through the sharded runner"
    )
    p_run.add_argument("--spec", required=True,
                       help="campaign spec JSON file (see repro.campaign)")
    p_run.add_argument("--workers", type=int, default=0,
                       help="process-pool size; 0 = serial reference mode")
    p_run.add_argument("--chunk-size", type=int, default=None,
                       help="tasks per worker chunk (default: auto)")
    _add_cache_flags(p_run)
    p_run.add_argument("--retry-errors", action="store_true",
                       help="re-solve cached error rows (resume a "
                            "partially-failed campaign after a fix); ok "
                            "rows still come from the cache")
    p_run.add_argument("--task-timeout", type=float, default=None,
                       help="per-task wall-clock cap for exact solves: a "
                            "runaway task becomes an uncacheable "
                            "budget-exhausted row instead of hanging "
                            "the campaign")
    p_run.add_argument("--out", default=None,
                       help="write result rows to this JSONL file")
    p_run.add_argument("--trace-log", default=None,
                       help="append cache-get/solve/cache-put spans to "
                            "this JSON-lines file (one trace id per run)")

    p_rep = camp_sub.add_parser(
        "report", help="aggregate a saved campaign result file"
    )
    p_rep.add_argument("--results", required=True,
                       help="JSONL rows written by 'campaign run --out'")
    p_rep.add_argument("--baseline", default=None,
                       help="solver name to compute gap ratios against")

    p_par = camp_sub.add_parser(
        "pareto",
        help="trace (period, latency) Pareto fronts through the runner",
    )
    p_par.add_argument("--file", action="append", default=None,
                       help="instance/mapping JSON document (repeatable)")
    p_par.add_argument("--scenario", action="append", default=None,
                       help="named scenario (repeatable)")
    p_par.add_argument("--points", type=int, default=16,
                       help="period-threshold grid size (default 16)")
    p_par.add_argument("--data-parallel", action="store_true",
                       help="allow data-parallel stages")
    p_par.add_argument("--exact", action="store_true",
                       help="exponential exact fallback for NP-hard cells")
    p_par.add_argument("--engine", choices=ENGINES,
                       default="bnb")
    p_par.add_argument("--out", default=None,
                       help="write the fronts as a machine-readable JSON "
                            "artifact (full float precision + mappings)")
    _add_cache_flags(p_par)

    p_cache = camp_sub.add_parser(
        "cache", help="inspect / compact a result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_stats = cache_sub.add_parser(
        "stats", help="key count, file count, bytes, stale records"
    )
    _add_cache_flags(p_stats)
    p_compact = cache_sub.add_parser(
        "compact",
        help="drop superseded duplicate-key records (and optionally evict "
             "by age/size); report bytes reclaimed",
    )
    _add_cache_flags(p_compact)
    p_compact.add_argument(
        "--max-age-days", type=float, default=None,
        help="evict records older than this many days (records from "
             "before timestamps existed count as infinitely old)")
    p_compact.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest records until the store fits this byte budget")

    p_prof = camp_sub.add_parser(
        "profile",
        help="aggregate cached per-solve timing blocks into latency "
             "percentiles per (engine, n, p) — no re-solving",
    )
    _add_cache_flags(p_prof)
    p_prof.add_argument("--results", default=None,
                        help="also (or instead) read timing blocks from "
                             "this results JSONL file")
    p_prof.add_argument("--out", default=None,
                        help="write the machine-readable profile JSON "
                             "artifact here")

    p_serve = sub.add_parser(
        "serve", help="run the HTTP solve/cache server (repro.service)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8300,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="server-side result cache directory "
                              "(256 append-only JSONL shards)")
    p_serve.add_argument("--cache-url", default=None,
                         help="upstream cache-service address: this "
                              "server becomes a solving tier in front of "
                              "that service's cache")
    p_serve.add_argument("--cache-fallback-dir", default=None,
                         help="circuit-breaker spill journal directory "
                              "for --cache-url: while the "
                              "upstream is unreachable, gets degrade to "
                              "misses and puts spill here, replayed on "
                              "recovery (breaker state in /v1/stats)")
    p_serve.add_argument("--solve-workers", type=int, default=4,
                         help="solver thread-pool size")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every request to stderr")
    p_serve.add_argument("--trace-log", default=None,
                         help="append request/cache-get/coalesce-wait/"
                              "solve/cache-put spans to this JSON-lines "
                              "file (trace ids from X-Repro-Trace)")

    p_submit = sub.add_parser(
        "submit", help="POST one solve to a running solver service"
    )
    _add_instance_flags(p_submit)
    p_submit.add_argument("--url", required=True,
                          help="solver-service address, "
                               "e.g. http://127.0.0.1:8300")
    p_submit.add_argument("--mode",
                          choices=("auto", "exact", "heuristic", "random"),
                          default="auto", help="solver mode (SolverConfig)")
    p_submit.add_argument("--exact", action="store_true",
                          help="exact_fallback for --mode auto")
    p_submit.add_argument("--engine", choices=ENGINES,
                          default="bnb")
    p_submit.add_argument("--seed", type=int, default=0,
                          help="seed for heuristic/random modes")
    p_submit.add_argument("--samples", type=int, default=64,
                          help="sample count for --mode random")
    p_submit.add_argument("--timeout", type=float, default=120.0,
                          help="per-request timeout in seconds")
    _add_budget_flags(p_submit)
    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "solve": _cmd_solve,
    "scenario": _cmd_scenario,
    "simulate": _cmd_simulate,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BrokenPipeError:
        # the reader went away (``repro ... | head``): writing the error
        # would raise again, and so would the exit-time flush of stdout
        # unless it points at devnull (the recipe of the ``signal`` docs)
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
