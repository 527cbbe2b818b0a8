"""Benchmark entry point.

    python3 perfbench/run.py --workload grid-local --seed 1 --seconds 30 \\
        --trace 0

Runs one workload against the program in ``src/`` of the checkout this
file sits in, checks every output, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics, taken
from a traced run that follows an untraced one in the same process.  The
line before it carries the per-phase operation counts and the host-speed
diagnostic.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _layer_metrics(bench: dict, plain: dict, traced: dict,
                   spans, host_ms: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from a traced pass."""
    layers = traced["layers"]
    values = dict(layers["values"])
    known = {m["name"] for m in bench["per_layer"]}
    # per label: calls in one pass over the cold operation set, mean ms
    by_label: dict[str, list] = {}
    for label, entry in layers["labels"].items():
        name = label if f"algorithms.calls.{label}" in known else "other"
        agg = by_label.setdefault(name, [0, 0.0])
        agg[0] += entry["calls"]
        agg[1] += entry["seconds"]
    for name, (calls, seconds) in by_label.items():
        values[f"algorithms.calls.{name}"] = calls
        values[f"algorithms.solve_ms.{name}"] = seconds * 1000.0 / calls
    # client thread-time: the phases' wall time times the client threads
    thread_time = layers.get("threads", 1) * sum(
        end - start for win in layers["windows"].values()
        for start, end in win)
    for layer, ms in layers["self_ms"].items():
        values[f"{layer}.self_share"] = ms / 1000.0 / thread_time
    for phase in ("cold", "warm"):
        if layers["windows"].get(phase):
            values[f"obs.uncovered_share.{phase}"] = \
                spans.uncovered_share(layers["windows"][phase])
        key = f"{phase}_ops_s"
        if plain.get(key) and traced.get(key):
            values[f"obs.trace_overhead.{phase}"] = \
                plain[key] / traced[key] - 1.0
    values["host.ref_loop_ms"] = host_ms
    out = {}
    for metric in bench["per_layer"]:
        value = values.get(metric["name"], 0)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def _host_summary(samples: list[float]) -> dict:
    return {"min": min(samples), "median": statistics.median(samples),
            "samples": len(samples)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("error: no program source under src/repro next to the "
              "benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import fleet_http
    import grid_local
    import pareto_fronts

    workloads = {"grid-local": grid_local, "pareto-fronts": pareto_fronts,
                 "fleet-http": fleet_http}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = workloads[args.workload]

    shutil.rmtree(harness.WORK / "tmp", ignore_errors=True)
    host = [harness.host_sample()]
    phases: list = []
    correct = True
    metrics: dict = {}
    detail: dict = {}
    try:
        prepared = module.prepare(args.seed)
        phases.append(prepared[-1])
        if args.trace == 0:
            setup = module.setup_samples()
            result = module.measure(args.seed, args.seconds, prepared, None)
            setup += result.get("setup_samples", [])
            rss = max(harness.peak_rss_mb(), result.get("server_rss_mb", 0))
            values = {key: result[key] for key in
                      ("cold_ops_s", "warm_ops_s", "warm_p50_ms",
                       "warm_p99_ms")}
            values["setup_s"] = statistics.median(setup)
            values["peak_rss_mb"] = rss
            metrics = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            detail = {"samples": result["samples"], "setup_s": setup,
                      "host_ms_during": _host_summary(result["host_ms"])}
            phases += result["phases"]
        else:
            plain = module.measure(args.seed, args.seconds, prepared, None)
            spans = harness.Spans()
            traced = module.measure(args.seed, args.seconds, prepared, spans)
            phases += plain["phases"] + traced["phases"]
            spans.write(
                harness.TRACES / f"{args.workload}-{args.seed}.jsonl",
                traced["layers"].get("server_spans", ()),
            )
            host.append(harness.host_sample())
            metrics = _layer_metrics(bench, plain, traced, spans,
                                     statistics.median(host))
            detail = {"samples": traced["samples"],
                      "host_ms_during": _host_summary(traced["host_ms"]),
                      "labels": {label: entry["calls"] for label, entry
                                 in traced["layers"]["labels"].items()}}
        module.cleanup(prepared)
    except harness.CheckFailed as exc:
        correct = False
        detail["error"] = str(exc)
    except Exception:  # noqa: BLE001 — report, then fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(harness.WORK / "tmp", ignore_errors=True)
    if len(host) == 1:
        host.append(harness.host_sample())
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = correct and failed == 0 and attempted > 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "phases": [dict(phase=p.name, **p.to_dict()) for p in phases],
        "host.ref_loop_ms": {"start": host[0], "end": host[-1]},
        **detail,
    }))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
