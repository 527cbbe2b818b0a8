"""Shared machinery of the workloads: timing, spans, set-up and checks.

Everything here lives in the benchmark's own files and only calls the
program's public API (``repro.*``); spans are recorded around those calls,
never inside the program.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = WORK / "traces"

#: The six program modules used as layer names.
LAYERS = ("serialization", "algorithms", "analysis", "campaign", "service",
          "obs")

#: Launches before the timed phases behind ``setup_s`` (the median is
#: reported).  Every workload adds launches between its timed passes or
#: blocks, so the samples span the run's slow and quiet spells.
SETUP_LAUNCHES = 7


class CheckFailed(Exception):
    """A correctness check failed: the run reports ``correct: false``."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def work_dir(name: str) -> Path:
    path = WORK / "tmp" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- host
def ref_loop_ms() -> float:
    """Wall time of a fixed pure-Python loop (host-speed diagnostic)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1000.0


def host_sample() -> float:
    return statistics.median(ref_loop_ms() for _ in range(3))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MiB, of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------- stats
def pct(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise CheckFailed("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best_group_percentiles(latencies: list[float]) -> tuple[float, float]:
    """p50 and p99 of the quietest run of consecutive samples.

    The samples are cut into consecutive groups of at least 1000, so every
    p99 keeps ten samples beyond it.  The lowest p50 and p99 over the
    groups are reported: stalls of a shared host only add time, so the
    quietest group reads the program steadiest.
    """
    count = max(1, len(latencies) // 1000)
    size = len(latencies) // count
    groups = [latencies[i * size:(i + 1) * size] for i in range(count)]
    return (min(pct(g, 50) for g in groups),
            min(pct(g, 99) for g in groups))


def alternate(cold_pass, warm_pass, seconds: float, min_rounds: int,
              host_ms: list[float], between=None) -> None:
    """Alternate one cold pass with warm passes of about the same length
    until ``seconds`` are spent, so a slow spell of the host falls on both
    phases alike instead of on one of them.  A host-speed sample is taken
    after every pass batch and appended to ``host_ms``; ``between``, if
    given, is called after every round, and the time it takes is added to
    the run so the passes still get ``seconds``."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        cold_pass()
        cold_seconds = time.perf_counter() - t0
        host_ms.append(ref_loop_ms())
        t1 = time.perf_counter()
        warm_pass()
        while time.perf_counter() - t1 < cold_seconds:
            warm_pass()
        host_ms.append(ref_loop_ms())
        if between is not None:
            t2 = time.perf_counter()
            between()
            deadline += time.perf_counter() - t2
        rounds += 1


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------- set-up
def _stop(proc: subprocess.Popen) -> None:
    # SIGTERM, not SIGINT: a process started in the background inherits an
    # ignored SIGINT, and the server flushes every put and span as it goes
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def import_launch_s() -> float:
    """Seconds from launching a fresh interpreter to ``import repro`` done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import repro; print('ready', flush=True)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        env=program_env(), text=True,
    )
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.wait(timeout=60)
    _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise CheckFailed("a fresh interpreter could not import repro")
    return seconds


def import_setup_s() -> list[float]:
    """``SETUP_LAUNCHES`` launches of :func:`import_launch_s`."""
    return [import_launch_s() for _ in range(SETUP_LAUNCHES)]


class Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, trace_log: Path | None = None):
        cmd = [sys.executable, "-m", "repro", "serve", "--host",
               "127.0.0.1", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_log is not None:
            cmd += ["--trace-log", str(trace_log)]
        # stderr goes to a file: an unread pipe could fill and stall it
        self.log = (cache_dir.parent / f"{cache_dir.name}.log").open("w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT,
            env=program_env(), text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise CheckFailed(f"server did not announce its url: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]
        host, port = self.url.rsplit("//", 1)[1].split(":")
        self.host, self.port = host, int(port)
        deadline = time.monotonic() + 60
        while not self._healthy():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise CheckFailed("server never answered /v1/healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=2)
        try:
            conn.request("GET", "/v1/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def get_text(self, path: str) -> str:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            if response.status != 200:
                raise CheckFailed(f"GET {path} answered {response.status}")
            return body
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        _stop(self.proc)
        self.log.close()


# ---------------------------------------------------------------- spans
class Spans:
    """In-memory span store: (id, name, start, end, thread, op).

    Parents are derived when the run ends from interval nesting within a
    thread, so spans reported after the fact (the runner's tracer emits a
    span once its work is done) nest like the live ones.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, op=None) -> None:
        self.records.append(
            (next(self._ids), name, start, end, threading.get_ident(), op)
        )

    @contextmanager
    def span(self, name: str, op=None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, t0, time.perf_counter(), op)

    def durations(self, name: str, windows=None) -> list[float]:
        """Durations of the spans called ``name``; with ``windows``, only
        of those that start inside one of the ``(start, end)`` windows."""
        return [end - start for _, n, start, end, _, _ in self.records
                if n == name and (windows is None or any(
                    lo <= start <= hi for lo, hi in windows))]

    def tree(self) -> list[dict]:
        """Spans with ``parent`` ids, in start order per thread.

        A span reported after the fact starts a few microseconds late (its
        start is derived from its end), so a child can appear to start
        before it; such a span adopts the overlapping spans it ends after.
        """
        by_thread: dict[int, list[dict]] = {}
        for sid, name, start, end, thread, op in self.records:
            by_thread.setdefault(thread, []).append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": None, "thread": thread, "op": op})
        out = []
        for spans in by_thread.values():
            spans.sort(key=lambda s: (s["start"], -s["end"]))
            stack: list[dict] = []
            for span in spans:
                while stack and stack[-1]["end"] <= span["start"]:
                    stack.pop()
                while stack and stack[-1]["end"] <= span["end"]:
                    child = stack.pop()
                    child["parent"] = span["id"]
                    span["start"] = min(span["start"], child["start"])
                span["parent"] = stack[-1]["id"] if stack else None
                stack.append(span)
            out.extend(spans)
        return out

    def self_times(self) -> list[tuple[dict, float]]:
        """Each span with its self time: its duration minus the time its
        child spans cover."""
        tree = self.tree()
        child_time: dict[int, float] = {}
        for s in tree:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        return [(s, s["end"] - s["start"] - child_time.get(s["id"], 0.0))
                for s in tree]

    def self_ms_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for span, own in self.self_times():
            layer = span["name"].split(".", 1)[0]
            if layer in out:
                out[layer] += own * 1000.0
        return out

    def self_share(self, names) -> float:
        """Self time over total time of the spans named ``names``."""
        total = own_total = 0.0
        for span, own in self.self_times():
            if span["name"] in names:
                total += span["end"] - span["start"]
                own_total += own
        return own_total / total if total else 0.0

    def uncovered_share(self, windows) -> float:
        """Share of the ``(start, end)`` windows that no top-level span
        covers."""
        tops = sorted((s["start"], s["end"]) for s in self.tree()
                      if s["parent"] is None)
        total = covered = 0.0
        for start, end in windows:
            total += end - start
            cur_lo = cur_hi = None
            for lo, hi in tops:
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        return max(0.0, 1.0 - covered / total) if total else 0.0

    def write(self, path: Path, extra: list[dict] = ()) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.tree():
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
            for doc in extra:
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


class RunnerTracer:
    """Duck-typed tracer for ``run_campaign``/``execute_tasks(tracer=)``,
    which read only ``active`` and call only ``emit``.

    The runner reports a span when its work is done; it is stored with
    ``end = now`` and ``start = end - seconds``.
    """

    active = True
    NAMES = {"cache-get": "campaign.get", "cache-put": "campaign.put",
             "solve": "algorithms.solve", "campaign": "campaign.run"}

    def __init__(self, spans: Spans) -> None:
        self.spans = spans

    def emit(self, span, seconds, trace=None, ts=None, **fields) -> None:
        end = time.perf_counter()
        self.spans.add(self.NAMES.get(span, f"campaign.{span}"),
                       end - seconds, end, fields.get("key"))


def timing_backend(inner, spans: Spans, layer: str = "campaign"):
    """A :class:`repro.campaign.CacheBackend` timing ``inner``'s calls as
    ``<layer>.cache_get`` / ``<layer>.cache_put`` spans."""
    from repro.campaign import CacheBackend

    class TimingBackend(CacheBackend):
        name = inner.name

        def load(self, key):
            with spans.span(f"{layer}.cache_get", key):
                return inner.load(key)

        def store(self, key, row):
            with spans.span(f"{layer}.cache_put", key):
                inner.store(key, row)

        def close(self):
            inner.close()

    return TimingBackend()


# ---------------------------------------------------------------- checks
def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close_enough(a: float, b: float) -> bool:
    from repro.core.costs import FLOAT_TOL

    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def check_priced(period: float, latency: float, mapping_doc: dict,
                 what: str) -> None:
    """Re-price a mapping document with ``core.costs.evaluate``."""
    from repro.core.costs import evaluate
    from repro.serialization import mapping_from_dict

    got_period, got_latency = evaluate(mapping_from_dict(mapping_doc))
    check(close_enough(got_period, period)
          and close_enough(got_latency, latency),
          f"{what}: claims ({period}, {latency}) but the mapping prices "
          f"at ({got_period}, {got_latency})")


def check_row(row: dict, what: str) -> None:
    """An ok row with an algorithm label whose mapping re-prices."""
    check(row.get("status") == "ok",
          f"{what}: status {row.get('status')!r}: {row.get('error')}")
    check(bool(row.get("algorithm")), f"{what}: ok row without a label")
    check_priced(row["period"], row["latency"], row["mapping"], what)
    expected = row["period"] if row["objective"] == "period" \
        else row["latency"]
    check(close_enough(row["value"], expected),
          f"{what}: value {row['value']} is not its {row['objective']}")


def parse_us(docs: list[dict]) -> float:
    """Mean microseconds of ``spec_from_dict`` per instance document."""
    from repro.serialization import spec_from_dict

    t0 = time.perf_counter()
    for doc in docs:
        spec_from_dict(doc)
    return (time.perf_counter() - t0) / len(docs) * 1e6


# ---------------------------------------------------------------- phases
class Phase:
    """Operations attempted / failed in one phase of a run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(message)

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


def row_stats(rows) -> dict:
    """Per-label calls/time and exact effort counters of solved ok rows."""
    labels: dict[str, dict] = {}
    nodes = pruned = memo = 0
    for row in rows:
        if row.get("status") != "ok":   # e.g. an infeasible sweep threshold
            continue
        timing = row.get("timing") or {}
        entry = labels.setdefault(row["algorithm"],
                                  {"calls": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["seconds"] += timing.get("seconds") or 0.0
        nodes += timing.get("nodes") or 0
        pruned += timing.get("pruned") or 0
        memo += timing.get("memo_hits") or 0
    return {"labels": labels, "bnb_nodes": nodes, "bnb_pruned": pruned,
            "memo_hits": memo}
