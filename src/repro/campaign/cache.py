"""Content-addressed persistent result cache: a local directory or a URL.

Rows are keyed by the :class:`~repro.campaign.spec.Task` content hash, a
64-character lowercase hex digest; any other key is a
:class:`~repro.core.exceptions.ReproError`.  :class:`ResultCache` is the
public surface the runner talks to; the actual storage lives in one of
two backends, chosen by where the cache lives:

``"jsonl"`` (a cache directory, the default)
    256 append-only JSONL shards under ``root/`` named by the first two
    hex characters of the key, e.g. ``root/a3.jsonl``.  Each line is one
    ``{"version":1,"key":...,"row":{...},"ts":...}`` record.  A shard is
    indexed into memory on first access and appended to on every put, so
    re-runs and overlapping campaigns resolve repeat keys without
    re-solving.  The index keeps every record as its encoded line, read
    key and stamp from the writer's fixed layout (other layouts are
    decoded in full), and decodes a row only when a get returns it — a
    fresh dict per hit, and no decoding for the rows nobody reads.  A
    duplicate key keeps the *latest* appended record, making re-puts an
    overwrite; :meth:`ResultCache.compact` rewrites the shards dropping
    the superseded lines and copying the kept ones byte for byte.  A
    ``root/cache.sqlite`` left by the retired sqlite backend is imported
    into the shards once, on first open (see :func:`_import_sqlite`).

``"http"`` (a solver-service URL)
    A remote cache: every ``load``/``store`` is a ``GET``/``PUT`` against
    a running solver service (``python -m repro serve``, see
    :mod:`repro.service`), so many campaign runners on a shared cluster
    share one warm cache.  Construct with
    ``ResultCache(url="http://host:port", backend="http")`` — no local
    directory is involved; storage and eviction happen server-side.

The local backend degrades gracefully: unreadable lines and records with
a different format version are skipped on load — a corrupt or stale
record is a cache miss, never an error.  Torn lines (a crash mid-append)
are counted as ``corrupt_lines`` in :meth:`ResultCache.storage_stats`
and repaired (dropped) by :meth:`ResultCache.compact`.

The remote backend degrades gracefully too:
:class:`CircuitBreakerBackend` (installed by
``ResultCache(url=..., backend="http", fallback_dir=...)``) wraps any
remote backend in a circuit breaker — after ``failure_threshold``
consecutive transport failures the breaker *opens*: gets degrade to
misses, puts spill to a local JSONL journal, and periodic *half-open*
probes (exponential backoff) test the remote; on recovery the journal is
replayed so the fleet cache is back-filled with everything solved during
the outage.  The runner is the single writer
(workers return rows to the parent process, which writes), so no
cross-process locking is needed.  Every stored record carries a write
timestamp, which :meth:`ResultCache.compact` can use for eviction
policies: ``max_age_days`` drops records older than the horizon (records
written before timestamps existed count as infinitely old), ``max_bytes``
evicts oldest-first until the store fits the budget (exact line sizes).

Rows returned by :meth:`ResultCache.get` are owned by the caller: they
never alias the store's internal state, so mutating a hit (or the dict
passed to :meth:`ResultCache.put`) cannot poison later hits for the same
key.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from ..core.exceptions import ReproError

__all__ = [
    "CACHE_VERSION",
    "CacheBackend",
    "JsonlBackend",
    "HttpCacheBackend",
    "CircuitBreakerBackend",
    "ResultCache",
]

#: Version of the on-disk cache record format.  Bump to invalidate
#: everything previously stored (old records are skipped on load).
CACHE_VERSION = 1


def _now() -> float:
    """Record-timestamp clock (a seam so tests can pin time)."""
    return time.time()


#: A task content hash; shard names and URLs are built from it, so a key
#: like ``"/tkey"`` must never reach a backend.
_KEY = re.compile(r"[0-9a-f]{64}")


def _check_key(key: str) -> None:
    if not isinstance(key, str) or _KEY.fullmatch(key) is None:
        raise ReproError(f"malformed cache key {key!r}: expected 64 "
                         "lowercase hex digits")


#: The fixed layout :meth:`JsonlBackend.store` writes:
#: ``{"version":1,"key":"<64 hex>","row":<row>,"ts":<float>}``.
_RECORD_HEAD = re.compile(
    r'\{"version":%d,"key":"([0-9a-f]{64})","row":' % CACHE_VERSION
)
_RECORD_TS = ',"ts":'
_JSON_NUMBER = re.compile(
    r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
)


def _index_record(line: str) -> tuple[str, float] | None:
    """``(key, ts)`` of one JSONL cache record, or ``None`` to skip it.

    A line in the writer's own layout is indexed from its head and tail
    without decoding the row.  Any other line is decoded in full: one that
    is not a current-version record (wrong version, wrong shape) gives
    ``None``, one that is not JSON at all raises :class:`ValueError`.
    """
    head = _RECORD_HEAD.match(line)
    if head is not None and line.endswith("}"):
        # JSON strings escape their quotes, so the last ',"ts":' is the
        # record's own tail; only a line torn just after a nested
        # '"ts":<n>}' of the row can pass, and load() counts it corrupt
        cut = line.rfind(_RECORD_TS)
        start = cut + len(_RECORD_TS)
        if cut > head.end() and _JSON_NUMBER.fullmatch(line, start,
                                                       len(line) - 1):
            return head.group(1), float(line[start:-1])
    record = json.loads(line)
    if (
        not isinstance(record, dict)
        or record.get("version") != CACHE_VERSION
        or not isinstance(record.get("key"), str)
        or _KEY.fullmatch(record["key"]) is None
        or "row" not in record
    ):
        return None
    # pre-timestamp records read as age 0.0 ("infinitely old")
    return record["key"], record.get("ts", 0.0)


def _encode_record(key: str, row: dict, ts: float) -> str:
    """One record in the fixed layout :func:`_index_record` reads."""
    return json.dumps({"version": CACHE_VERSION, "key": key, "row": row,
                       "ts": ts}, separators=(",", ":"))


def _import_sqlite(backend: JsonlBackend) -> None:
    """Import a ``cache.sqlite`` of the retired sqlite backend, once.

    Current-version rows are appended to the shards with their stored
    write stamps (0.0 from a database older than stamps), so age
    eviction still sees their true age.  Rows that are stale-version,
    undecodable, malformed-key or older than the shards' record of the
    key stay behind.  The file is then renamed ``cache.sqlite.migrated``
    (a crash before that re-imports the same records).
    """
    path = backend.root / "cache.sqlite"
    if not path.exists():
        return
    import sqlite3

    try:
        db = sqlite3.connect(path)
        try:
            columns = {info[1]
                       for info in db.execute("PRAGMA table_info(rows)")}
            stamp = "ts" if "ts" in columns else "0.0"
            records = db.execute(
                f"SELECT key, row, {stamp} FROM rows WHERE version = ?"
                " ORDER BY key", (CACHE_VERSION,)
            ).fetchall()
        finally:
            db.close()
    except sqlite3.DatabaseError as exc:
        raise ReproError(f"cannot import the sqlite cache {path}: {exc}") \
            from None
    for key, text, ts in records:
        if not isinstance(key, str) or _KEY.fullmatch(key) is None:
            continue
        held = backend._load_shard(backend._shard_name(key)).get(key)
        if held is not None and _index_record(held)[1] >= ts:
            continue  # the shards hold a newer record of this key
        try:
            row = json.loads(text)
        except (TypeError, ValueError):
            continue
        if isinstance(row, dict):
            backend.append(key, _encode_record(key, row, float(ts)))
    path.rename(path.with_name("cache.sqlite.migrated"))


class CacheBackend:
    """Storage protocol behind :class:`ResultCache`.

    Implementations map content-hash keys to JSON-serializable row
    dicts.  ``load`` must return a row the caller owns (no aliasing with
    any internal state) or ``None``; ``store`` must not keep a live
    reference to the caller's dict.  ``compact`` reclaims space left by
    superseded or stale records and reports what it did.
    """

    name: str

    def load(self, key: str) -> dict | None:
        raise NotImplementedError

    def store(self, key: str, row: dict) -> None:
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def storage_stats(self) -> dict:
        raise NotImplementedError

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class JsonlBackend(CacheBackend):
    """Sharded append-only JSONL store (the original cache format).

    Each loaded shard maps key -> the record's line exactly as it sits on
    disk; the row is decoded only when :meth:`load` returns it.
    """

    name = "jsonl"

    def __init__(self, root: Path) -> None:
        self.root = root
        self._shards: dict[str, dict[str, str]] = {}
        # non-empty on-disk lines per loaded shard, maintained
        # incrementally so storage_stats() never has to re-read files
        self._line_counts: dict[str, int] = {}
        # unparseable lines per shard (torn trailing line from a crash
        # mid-append, disk corruption): degraded to misses, surfaced in
        # storage_stats, repaired by compact
        self._corrupt_counts: dict[str, int] = {}
        # shards whose file ends in a torn line with no newline: the next
        # append starts a fresh line instead of gluing onto the torn one
        self._torn_tails: set[str] = set()
        _import_sqlite(self)

    # -------------------------------------------------------------- shards
    def _shard_name(self, key: str) -> str:
        return key[:2]

    def _shard_path(self, name: str) -> Path:
        return self.root / f"{name}.jsonl"

    def _load_shard(self, name: str) -> dict[str, str]:
        shard = self._shards.get(name)
        if shard is not None:
            return shard
        shard = {}
        lines = corrupt = 0
        try:
            text = self._shard_path(name).read_text()
        except FileNotFoundError:
            text = ""
        if text and not text.endswith("\n"):
            self._torn_tails.add(name)
        for line in text.split("\n"):
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                indexed = _index_record(line)
            except ValueError:
                corrupt += 1
                continue
            if indexed is not None:
                shard[indexed[0]] = line
        self._shards[name] = shard
        self._line_counts[name] = lines
        self._corrupt_counts[name] = corrupt
        return shard

    # -------------------------------------------------------------- api
    def load(self, key: str) -> dict | None:
        name = self._shard_name(key)
        line = self._load_shard(name).get(key)
        if line is None:
            return None
        try:
            # a fresh decode per hit: the caller owns the row, and the
            # stored line can never be mutated through it
            return json.loads(line)["row"]
        except ValueError:
            # indexed from its layout but not valid JSON (e.g. a torn
            # line that happens to end like a record): a corrupt miss
            del self._shards[name][key]
            self._corrupt_counts[name] += 1
            return None

    def store(self, key: str, row: dict) -> None:
        # the encoded line is the stored state: it never aliases the
        # caller's dict and is exactly what a cold reload would index
        self.append(key, _encode_record(key, row, _now()))

    def append(self, key: str, line: str) -> None:
        """Append one encoded record (see :func:`_encode_record`)."""
        name = self._shard_name(key)
        self._load_shard(name)[key] = line
        self._line_counts[name] += 1
        lead = "\n" if name in self._torn_tails else ""
        self._torn_tails.discard(name)
        with self._shard_path(name).open("a") as fh:
            fh.write(lead + line + "\n")

    def keys(self) -> list[str]:
        out: list[str] = []
        for path in sorted(self.root.glob("*.jsonl")):
            out.extend(self._load_shard(path.stem))
        return out

    def storage_stats(self) -> dict:
        shards = lines = live = corrupt = size = 0
        for path in sorted(self.root.glob("*.jsonl")):
            shards += 1
            size += path.stat().st_size
            # the line count is maintained in memory (set on first load,
            # bumped per put): repeated stats polls — e.g. a monitor
            # hitting a service's /v1/stats — cost stat() calls, not a
            # full re-read of every shard
            live += len(self._load_shard(path.stem))
            lines += self._line_counts[path.stem]
            corrupt += self._corrupt_counts[path.stem]
        # superseded duplicates plus version-mismatched records; torn /
        # unparseable lines are reported separately as corrupt_lines
        stale = lines - live - corrupt
        return {
            "backend": self.name,
            "keys": live,
            "files": shards,
            "bytes": size,
            "stale_records": stale,
            "corrupt_lines": corrupt,
        }

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        """Rewrite shards keeping one line per key; optionally evict.

        ``max_age_days`` drops records older than the horizon;
        ``max_bytes`` then evicts oldest-first until the rewritten store
        fits the budget.  Kept records are written back byte for byte.
        Reports superseded/stale lines dropped, torn lines repaired, and
        policy evictions separately.
        """
        before = after = dropped = corrupt_dropped = evicted = 0
        names = [path.stem for path in sorted(self.root.glob("*.jsonl"))]
        for name in names:
            before += self._shard_path(name).stat().st_size
            self._load_shard(name)
            corrupt_dropped += self._corrupt_counts[name]
            dropped += (
                self._line_counts[name]
                - self._corrupt_counts[name]
                - len(self._shards[name])
            )
        if max_age_days is not None or max_bytes is not None:
            # (ts, shard, key): the record's write stamp, read back from
            # its line; pre-timestamp records read as 0.0 ("infinitely
            # old"), so every policy evicts them first
            oldest_first = sorted(
                (_index_record(line)[1], name, key)
                for name in names
                for key, line in self._shards[name].items()
            )
            cutoff = (None if max_age_days is None
                      else _now() - max_age_days * 86400.0)
            total = sum(len(line) + 1 for name in names
                        for line in self._shards[name].values())
            for ts, name, key in oldest_first:
                expired = cutoff is not None and ts < cutoff
                if not expired and (max_bytes is None or total <= max_bytes):
                    break
                total -= len(self._shards[name].pop(key)) + 1
                evicted += 1
        # streaming rewrite, one shard at a time
        for name in names:
            path = self._shard_path(name)
            tmp = path.with_suffix(".jsonl.tmp")
            with tmp.open("w") as fh:
                for line in self._shards[name].values():
                    fh.write(line + "\n")
            tmp.replace(path)
            self._line_counts[name] = len(self._shards[name])
            self._corrupt_counts[name] = 0  # torn lines are never rewritten
            self._torn_tails.discard(name)
            after += path.stat().st_size
        return {
            "backend": self.name,
            "bytes_before": before,
            "bytes_after": after,
            "bytes_reclaimed": before - after,
            "records_dropped": dropped,
            "corrupt_dropped": corrupt_dropped,
            "records_evicted": evicted,
        }


class HttpCacheBackend(CacheBackend):
    """Remote cache speaking the solver-service HTTP API.

    ``url`` points at a running solver service (``python -m repro
    serve``, :mod:`repro.service`); ``load``/``store`` become
    ``GET``/``PUT`` requests against ``/v1/cache/<key>``, so a whole
    fleet of campaign runners shares one warm server-side cache.  The
    wrapped client retries transient transport errors with backoff; a
    404 is a plain miss.  ``compact`` forwards the eviction policy to
    the server, which applies it to its own storage backend.
    """

    name = "http"

    def __init__(self, url: str, timeout: float = 30.0,
                 retries: int = 3) -> None:
        from ..service.client import ServiceClient

        self._client = ServiceClient(url, timeout=timeout, retries=retries)
        self.url = self._client.url

    def load(self, key: str) -> dict | None:
        return self._client.cache_get(key)

    def store(self, key: str, row: dict) -> None:
        self._client.cache_put(key, row)

    def keys(self) -> list[str]:
        return self._client.keys()

    def storage_stats(self) -> dict:
        remote = self._client.stats()["cache"]["storage"]
        return {
            "backend": self.name,
            "url": self.url,
            "remote_backend": remote.get("backend"),
            "keys": remote.get("keys", 0),
            "files": remote.get("files", 0),
            "bytes": remote.get("bytes", 0),
            "stale_records": remote.get("stale_records", 0),
            "corrupt_lines": remote.get("corrupt_lines", 0),
        }

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        info = self._client.compact(max_age_days=max_age_days,
                                    max_bytes=max_bytes)
        return {**info, "backend": self.name,
                "remote_backend": info.get("backend")}


#: Lazily-resolved exception classes the breaker treats as *transport*
#: failures (anything else — e.g. an application-level ServiceError — is
#: the caller's problem and never trips the breaker).  Resolved inside a
#: function because importing :mod:`repro.service.client` at module top
#: would be circular (service.server imports this module).
_TRANSPORT_ERRORS: tuple | None = None


def _transport_errors() -> tuple:
    global _TRANSPORT_ERRORS
    if _TRANSPORT_ERRORS is None:
        from ..service.client import ServiceUnavailableError

        _TRANSPORT_ERRORS = (
            ServiceUnavailableError, ConnectionError, TimeoutError, OSError
        )
    return _TRANSPORT_ERRORS


class CircuitBreakerBackend(CacheBackend):
    """Degrade-gracefully wrapper for a remote (or flaky) cache backend.

    State machine:

    * **closed** — every call goes through; ``failure_threshold``
      *consecutive* transport failures open the breaker;
    * **open** — calls do not touch the remote at all: gets degrade to
      misses, puts spill to the local journal (or are dropped when no
      ``journal_dir`` was given), ``keys()`` returns ``[]``; after the
      current backoff elapses the next call becomes a half-open probe;
    * **half-open** — one probing call goes through; success closes the
      breaker (and replays the journal), failure re-opens it with the
      backoff doubled (capped at ``max_reset``).

    The journal is a plain JSONL file of ``{"key":..., "row":...}``
    entries appended while open and replayed — oldest first, directly to
    the wrapped backend — on the first successful call after recovery.
    A replay interrupted by a fresh outage keeps the unreplayed suffix.

    Only *transport* errors (connection refused/reset, timeouts,
    :class:`~repro.service.client.ServiceUnavailableError`) trip the
    breaker; application-level errors propagate to the caller untouched.
    """

    def __init__(self, inner: CacheBackend,
                 journal_dir: Path | None = None,
                 failure_threshold: int = 3,
                 reset_after: float = 1.0,
                 max_reset: float = 60.0) -> None:
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be >= 1")
        self.inner = inner
        self.name = inner.name
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.max_reset = max_reset
        if journal_dir is None:
            self.journal_path = None
        else:
            journal_dir = Path(journal_dir)
            journal_dir.mkdir(parents=True, exist_ok=True)
            self.journal_path = journal_dir / "spill-journal.jsonl"
        self.state = "closed"
        self.consecutive_failures = 0
        self.failures = 0
        self.opens = 0
        self.spilled_puts = 0
        self.dropped_puts = 0
        self.degraded_gets = 0
        self.replayed_puts = 0
        self._backoff = reset_after
        self._retry_at = 0.0
        self._journal_entries = self._count_journal()

    # ---------------------------------------------------------- breaker
    def _count_journal(self) -> int:
        if self.journal_path is None or not self.journal_path.exists():
            return 0
        with self.journal_path.open() as fh:
            return sum(1 for line in fh if line.strip())

    def _allow(self) -> bool:
        """Whether the next call may touch the remote (half-open probes)."""
        if self.state == "open":
            if _now() >= self._retry_at:
                self.state = "half-open"
                return True
            return False
        return True

    def _on_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == "half-open":
            # failed probe: back off harder before the next one
            self._backoff = min(self._backoff * 2.0, self.max_reset)
            self.state = "open"
            self._retry_at = _now() + self._backoff
        elif (
            self.state == "closed"
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = "open"
            self.opens += 1
            self._backoff = self.reset_after
            self._retry_at = _now() + self._backoff

    def _on_success(self) -> None:
        self.consecutive_failures = 0
        self.state = "closed"
        self._backoff = self.reset_after
        if self._journal_entries:
            self._replay()

    def _spill(self, key: str, row: dict) -> None:
        if self.journal_path is None:
            self.dropped_puts += 1
            return
        entry = json.dumps({"key": key, "row": row}, separators=(",", ":"))
        with self.journal_path.open("a") as fh:
            fh.write(entry + "\n")
        self._journal_entries += 1
        self.spilled_puts += 1

    def _replay(self) -> None:
        """Replay journaled puts to the recovered remote, oldest first.

        Stores go straight to ``inner`` (not through :meth:`store` —
        that would re-spill on failure and recurse through
        :meth:`_on_success`).  A mid-replay transport failure keeps the
        unreplayed suffix journaled and trips the breaker again.
        """
        if self.journal_path is None or not self.journal_path.exists():
            self._journal_entries = 0
            return
        with self.journal_path.open() as fh:
            entries = [line for line in fh if line.strip()]
        done = 0
        try:
            for line in entries:
                entry = json.loads(line)
                self.inner.store(entry["key"], entry["row"])
                done += 1
        except _transport_errors():
            remaining = entries[done:]
            tmp = self.journal_path.with_suffix(".jsonl.tmp")
            with tmp.open("w") as fh:
                fh.writelines(remaining)
            tmp.replace(self.journal_path)
            self.replayed_puts += done
            self._journal_entries = len(remaining)
            self._on_failure()
            return
        self.journal_path.unlink()
        self.replayed_puts += done
        self._journal_entries = 0

    def breaker_state(self) -> dict:
        """The breaker's live state document (reported in stats)."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "failures": self.failures,
            "opens": self.opens,
            "retry_in": (
                max(0.0, self._retry_at - _now())
                if self.state == "open" else 0.0
            ),
            "journal_entries": self._journal_entries,
            "spilled_puts": self.spilled_puts,
            "dropped_puts": self.dropped_puts,
            "degraded_gets": self.degraded_gets,
            "replayed_puts": self.replayed_puts,
        }

    # -------------------------------------------------------------- api
    def load(self, key: str) -> dict | None:
        if not self._allow():
            self.degraded_gets += 1
            return None
        try:
            row = self.inner.load(key)
        except _transport_errors():
            self._on_failure()
            self.degraded_gets += 1
            return None
        self._on_success()
        return row

    def store(self, key: str, row: dict) -> None:
        if not self._allow():
            self._spill(key, row)
            return
        try:
            self.inner.store(key, row)
        except _transport_errors():
            self._on_failure()
            self._spill(key, row)
            return
        self._on_success()

    def keys(self) -> list[str]:
        if not self._allow():
            return []
        try:
            out = self.inner.keys()
        except _transport_errors():
            self._on_failure()
            return []
        self._on_success()
        return out

    def storage_stats(self) -> dict:
        stats = None
        if self._allow():
            try:
                stats = self.inner.storage_stats()
                self._on_success()
            except _transport_errors():
                self._on_failure()
        if stats is None:
            stats = {
                "backend": self.name,
                "keys": 0,
                "files": 0,
                "bytes": 0,
                "stale_records": 0,
                "corrupt_lines": 0,
                "degraded": True,
            }
        stats["breaker"] = self.breaker_state()
        return stats

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        if not self._allow():
            raise ReproError(
                "remote cache breaker is open (remote unreachable); "
                "compact cannot run while degraded"
            )
        try:
            info = self.inner.compact(max_age_days=max_age_days,
                                      max_bytes=max_bytes)
        except _transport_errors():
            self._on_failure()
            raise
        self._on_success()
        return info

    def close(self) -> None:
        self.inner.close()


class ResultCache:
    """Content-addressed store mapping content hashes to result rows.

    ``root`` (a cache directory) opens the local ``"jsonl"`` store;
    ``url`` with ``backend="http"`` opens the remote one (a solver
    service — ``ResultCache(url="http://host:8300", backend="http")``).
    An already-constructed :class:`CacheBackend` is also accepted as
    ``backend``.  The cache counts hits/misses/puts, rejects malformed
    keys before any backend sees them, and guarantees that returned rows
    never alias internal state.

    ``fallback_dir`` arms a :class:`CircuitBreakerBackend` around a
    remote backend: when the remote becomes unreachable the cache
    degrades (gets miss, puts journal to ``fallback_dir``) instead of
    failing, and the journal is replayed on recovery.  It applies to the
    ``"http"`` backend and to caller-constructed backend instances; the
    local backend cannot lose transport, so pairing it with
    ``fallback_dir`` is an error.

    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp())       # jsonl by default
    >>> key = "ab" * 32                               # a task content hash
    >>> cache.get(key) is None                        # miss
    True
    >>> cache.put(key, {"status": "ok", "period": 1.5, "latency": 9.0})
    >>> cache.get(key)["period"]                      # hit — a fresh copy
    1.5
    >>> stats = cache.storage_stats()
    >>> stats["keys"], stats["counters"]["hits"], stats["counters"]["misses"]
    (1, 1, 1)
    """

    def __init__(self, root: str | Path | None = None,
                 backend: str | CacheBackend = "jsonl",
                 url: str | None = None,
                 fallback_dir: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        if fallback_dir is not None and not isinstance(backend, CacheBackend) \
                and backend != HttpCacheBackend.name:
            raise ReproError(
                "'fallback_dir' only applies to remote cache backends "
                f"(the {backend!r} backend has no transport to lose)"
            )
        if isinstance(backend, CacheBackend):
            self._backend = backend
        elif backend == HttpCacheBackend.name:
            if url is None:
                raise ReproError("the 'http' cache backend needs the "
                                 "solver-service url: ResultCache(url="
                                 "'http://host:port', backend='http')")
            self._backend = HttpCacheBackend(url)
        elif url is not None:
            raise ReproError(
                f"'url' only applies to the 'http' cache backend, "
                f"not {backend!r}"
            )
        elif backend != JsonlBackend.name:
            raise ReproError(f"unknown cache backend {backend!r}; "
                             "choose from ['http', 'jsonl']")
        elif self.root is None:
            raise ReproError("the 'jsonl' cache backend needs a root "
                             "directory")
        else:
            self._backend = JsonlBackend(self.root)
        if fallback_dir is not None \
                and not isinstance(self._backend, CircuitBreakerBackend):
            self._backend = CircuitBreakerBackend(self._backend,
                                                  journal_dir=fallback_dir)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    @property
    def backend(self) -> str:
        """Name of the storage backend in use."""
        return self._backend.name

    @property
    def breaker_state(self) -> str | None:
        """The circuit breaker's state (``"closed"`` / ``"half-open"`` /
        ``"open"``), or ``None`` when no breaker wraps the backend.

        Reads an in-memory attribute — unlike :meth:`storage_stats` it
        never touches the network, so a metrics scrape can poll it.
        """
        if isinstance(self._backend, CircuitBreakerBackend):
            return self._backend.state
        return None

    # -------------------------------------------------------------- api
    def get(self, key: str) -> dict | None:
        """The cached row for ``key``, or ``None`` (counts hit/miss).

        The returned dict (including any nested containers) is owned by
        the caller — mutating it cannot affect later hits.
        """
        _check_key(key)
        row = self._backend.load(key)
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(self, key: str, row: dict) -> None:
        """Store ``row`` under ``key`` (written to disk immediately)."""
        _check_key(key)
        self._backend.store(key, row)
        self.puts += 1

    def __contains__(self, key: str) -> bool:
        _check_key(key)
        return self._backend.load(key) is not None

    def __len__(self) -> int:
        """Number of distinct keys currently stored."""
        return len(self._backend.keys())

    def keys(self) -> list[str]:
        return self._backend.keys()

    @property
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    # -------------------------------------------------------------- ops
    def storage_stats(self) -> dict:
        """On-disk shape plus this cache's hit/miss/put counters.

        Every backend reports the same shape: ``backend`` / ``keys`` /
        ``files`` / ``bytes`` / ``stale_records`` storage fields, and a
        ``counters`` dict mirroring :attr:`stats` — the counters are
        *this instance's* (in-process) counts, for both backends
        alike; a solver service reports its own cache's counters in
        ``/v1/stats``.
        """
        return {**self._backend.storage_stats(),
                "counters": dict(self.stats)}

    def compact(self, max_age_days: float | None = None,
                max_bytes: int | None = None) -> dict:
        """Reclaim superseded/stale records; optionally evict by policy.

        ``max_age_days`` drops records older than the horizon (records
        from before timestamps existed count as infinitely old);
        ``max_bytes`` evicts oldest-first until the store fits.
        """
        return self._backend.compact(max_age_days=max_age_days,
                                     max_bytes=max_bytes)

    def close(self) -> None:
        self._backend.close()
