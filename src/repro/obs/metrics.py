"""Live operational metrics: counters, gauges and histograms.

Where :mod:`repro.obs.tracer` answers "what happened inside this run"
after the fact, this module answers "what is the system doing right
now": queue depth, worker liveness, cache hit ratio, shard stall
time, replay rates.  It is dependency-free and mirrors the tracer's
zero-cost contract — the default everywhere is the
:data:`NULL_METRICS` singleton whose every method is a no-op and
whose :attr:`~NullMetrics.enabled` flag is ``False``, so
uninstrumented runs execute the exact same arithmetic and figures
stay bit-identical with metrics on or off.  Instrumentation never
schedules simulation events or reads simulated clocks to make
control decisions; wall-clock measurement is the only side channel.

Three metric kinds, Prometheus-flavoured:

* :class:`Counter` — monotonically non-decreasing totals
  (``repro_jobs_completed_total``).
* :class:`Gauge` — last-written point-in-time values
  (``repro_queue_depth``).
* :class:`Histogram` — fixed, deterministic bucket bounds chosen at
  declaration time (never adapted to data), so two runs observing
  the same values produce byte-identical snapshots
  (``repro_job_wall_ms``).

Metrics are declared on a :class:`MetricsRegistry` as *families*
with a fixed label-name set; ``family.labels(worker="w0")`` returns
the child series for one label-value combination (get-or-create).

Exporters: :func:`render_prometheus` (text exposition format, for a
file, stdout or a scrape shim), :func:`append_snapshot_jsonl`
(periodic JSONL snapshots), and atomic per-worker snapshot files
(:func:`write_worker_snapshot` / :func:`load_worker_snapshots` /
:func:`merge_worker_snapshots`) as the cross-process aggregation
path for ``repro serve`` workers: each worker atomically replaces
its own file under ``<queue>/metrics/`` and any reader merges the
set (counters and histograms add, gauges last-write-wins).

Discovery mirrors the tracer: :func:`current_metrics` /
:func:`set_current_metrics` / the :func:`metrics_session` context
manager install an ambient registry, and :func:`metrics_for`
resolves an environment's registry (explicit ``env.metrics`` wins).
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_SIZE_BUCKETS",
    "METRICS_DIRNAME",
    "METRICS_SCHEMA",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullMetrics",
    "append_snapshot_jsonl",
    "current_metrics",
    "load_worker_snapshots",
    "merge_worker_snapshots",
    "metrics_dir",
    "metrics_for",
    "metrics_session",
    "parse_prometheus",
    "render_prometheus",
    "set_current_metrics",
    "write_prometheus",
    "write_worker_snapshot",
]

#: Version tag embedded in snapshots and worker snapshot files.
METRICS_SCHEMA = "repro-metrics/1"

#: Subdirectory of a queue root that holds per-worker snapshot files.
METRICS_DIRNAME = "metrics"

#: Fixed latency bucket upper bounds in milliseconds.  Deterministic
#: by construction: never derived from observed data.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0,
)

#: Fixed size/count bucket upper bounds (requests, sectors, bytes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
    65536.0, 262144.0, 1048576.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically non-decreasing total."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value; last write wins."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A distribution over fixed, deterministic bucket bounds.

    ``bounds`` are inclusive upper edges (Prometheus ``le``); an
    implicit ``+Inf`` bucket catches the tail.  Bounds are fixed at
    declaration so snapshots of identical observation streams are
    byte-identical.
    """

    kind = "histogram"
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        cleaned = tuple(float(edge) for edge in bounds)
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {cleaned}"
            )
        if any(math.isnan(edge) or math.isinf(edge) for edge in cleaned):
            raise ValueError("histogram bounds must be finite")
        self.bounds = cleaned
        self.bucket_counts = [0] * (len(cleaned) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


_FACTORIES = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """All series of one metric name: a fixed label-name set plus a
    child metric per observed label-value combination."""

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"bad label name {label!r} for {name}")
        if len(set(label_names)) != len(tuple(label_names)):
            raise ValueError(f"duplicate label names for {name}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        if kind == "histogram":
            # Validate (and normalise to floats) at declaration, so a
            # bad bucket spec fails at the metric site, not at the
            # first observation.
            self.buckets = Histogram(buckets or ()).bounds
        else:
            self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets)
        return _FACTORIES[self.kind]()

    def labels(self, **labels: object):
        """The child series for one label-value combination
        (get-or-create).  Values are coerced to strings."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _default(self):
        if self.label_names:
            raise ValueError(
                f"{self.name} is labeled ({list(self.label_names)}); "
                "use .labels(...)"
            )
        return self.labels()

    # Unlabeled convenience: the family proxies its single series.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """(label-values, child) pairs sorted by label values."""
        return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of metric families.

    Accessors are get-or-create and validate that redeclarations
    agree on kind, label names and (for histograms) bucket bounds,
    so two modules naming the same metric cannot silently fork it.
    """

    enabled = True
    __slots__ = ("_families",)

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(
                name, kind, help=help, label_names=labels, buckets=buckets
            )
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"{name} already declared as {family.kind}, not {kind}"
            )
        if family.label_names != tuple(labels):
            raise ValueError(
                f"{name} already declared with labels "
                f"{list(family.label_names)}, not {list(labels)}"
            )
        if buckets is not None and family.buckets != tuple(
            float(edge) for edge in buckets
        ):
            raise ValueError(f"{name} already declared with other buckets")
        if help and not family.help:
            family.help = help
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=buckets)

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def sample_count(self) -> int:
        """Total number of live series across all families."""
        return sum(len(f._children) for f in self._families.values())

    def clear(self) -> None:
        self._families.clear()

    # -- snapshots ----------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-ready snapshot; deterministic (sorted) so identical
        registries serialize byte-identically."""
        families = {}
        for family in self.families():
            entry: Dict[str, object] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
            }
            if family.kind == "histogram":
                entry["buckets"] = list(family.buckets)
                entry["series"] = [
                    {
                        "labels": dict(zip(family.label_names, key)),
                        "counts": list(child.bucket_counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                    for key, child in family.series()
                ]
            else:
                entry["series"] = [
                    {
                        "labels": dict(zip(family.label_names, key)),
                        "value": child.value,
                    }
                    for key, child in family.series()
                ]
            families[family.name] = entry
        return {"schema": METRICS_SCHEMA, "families": families}

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold ``snapshot`` (from :meth:`snapshot`) into this
        registry: counters and histograms add, gauges last-write-wins.
        Families must agree on kind/labels/buckets."""
        schema = snapshot.get("schema")
        if schema != METRICS_SCHEMA:
            raise ValueError(
                f"cannot merge metrics schema {schema!r} "
                f"(expected {METRICS_SCHEMA})"
            )
        for name, entry in sorted(snapshot.get("families", {}).items()):
            kind = entry["kind"]
            labels = tuple(entry.get("labels", ()))
            family = self._family(
                name, kind, entry.get("help", ""), labels,
                buckets=entry.get("buckets"),
            )
            for item in entry.get("series", ()):
                child = family.labels(**item.get("labels", {}))
                if kind == "counter":
                    child.inc(item["value"])
                elif kind == "gauge":
                    child.set(item["value"])
                else:
                    counts = item["counts"]
                    if len(counts) != len(child.bucket_counts):
                        raise ValueError(
                            f"{name}: bucket count mismatch "
                            f"({len(counts)} vs {len(child.bucket_counts)})"
                        )
                    for index, delta in enumerate(counts):
                        child.bucket_counts[index] += delta
                    child.sum += item["sum"]
                    child.count += item["count"]


class NullMetrics:
    """The zero-cost disabled registry.

    Every accessor returns :data:`NULL_METRICS` itself, whose
    recording methods are all no-ops, and :attr:`enabled` is
    ``False`` so instrumentation sites can skip argument construction
    entirely.  Use the singleton rather than instantiating.
    """

    enabled = False
    value = 0.0
    __slots__ = ()

    def counter(self, name, help="", labels=()) -> "NullMetrics":
        return self

    def gauge(self, name, help="", labels=()) -> "NullMetrics":
        return self

    def histogram(self, name, help="", labels=(), buckets=()) -> "NullMetrics":
        return self

    def labels(self, **labels) -> "NullMetrics":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def families(self) -> List[MetricFamily]:
        return []

    def sample_count(self) -> int:
        return 0

    def snapshot(self) -> Dict:
        return {"schema": METRICS_SCHEMA, "families": {}}

    def merge_snapshot(self, snapshot: Dict) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_METRICS = NullMetrics()

#: The ambient registry: consulted by components whose environment
#: does not carry an explicit one.  Defaults to the null registry.
_ambient: object = NULL_METRICS


def current_metrics():
    """The ambient registry (``NULL_METRICS`` unless installed)."""
    return _ambient


def set_current_metrics(registry) -> object:
    """Install ``registry`` as ambient; returns the previous one."""
    global _ambient
    previous = _ambient
    _ambient = registry if registry is not None else NULL_METRICS
    return previous


@contextmanager
def metrics_session(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install an ambient registry for the duration of the block::

        with metrics_session() as metrics:
            run_limit_study(requests=500)
        write_prometheus(metrics, "metrics.prom")
    """
    active = registry if registry is not None else MetricsRegistry()
    previous = set_current_metrics(active)
    try:
        yield active
    finally:
        set_current_metrics(previous)


def metrics_for(env) -> object:
    """Resolve the metrics registry for a simulation environment.

    An explicit ``env.metrics`` wins; otherwise the ambient registry
    applies.  Components capture the result once at construction.
    """
    registry = getattr(env, "metrics", None)
    return registry if registry is not None else _ambient


# -- Prometheus text exposition --------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _merge_label_text(
    names: Sequence[str], values: Sequence[str], extra: str, extra_value: str
) -> str:
    inner = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    ]
    inner.append(f'{extra}="{_escape_label(extra_value)}"')
    return "{" + ",".join(inner) + "}"


def render_prometheus(source: Union[MetricsRegistry, Dict]) -> str:
    """The Prometheus text exposition of a registry or snapshot.

    Families are sorted by name and series by label values, so the
    output for identical metric states is byte-identical.
    """
    snapshot = source if isinstance(source, dict) else source.snapshot()
    lines: List[str] = []
    for name, entry in sorted(snapshot.get("families", {}).items()):
        kind = entry["kind"]
        label_names = tuple(entry.get("labels", ()))
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        series = sorted(
            entry.get("series", ()),
            key=lambda item: tuple(
                item.get("labels", {}).get(label, "")
                for label in label_names
            ),
        )
        for item in series:
            values = tuple(
                item.get("labels", {}).get(label, "")
                for label in label_names
            )
            if kind == "histogram":
                bounds = list(entry.get("buckets", ())) + [math.inf]
                cumulative = 0
                for bound, count in zip(bounds, item["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_merge_label_text(label_names, values, 'le', _fmt(bound))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_text(label_names, values)}"
                    f" {_fmt(item['sum'])}"
                )
                lines.append(
                    f"{name}_count{_label_text(label_names, values)}"
                    f" {item['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_text(label_names, values)}"
                    f" {_fmt(item['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_prometheus(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse text exposition back into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(name, value)`` pairs.  Covers
    the subset this module emits (enough for smoke checks and
    round-trip tests, not a general scrape parser).
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels = []
        for name, value in _LABEL_PAIR_RE.findall(match.group("labels") or ""):
            labels.append(
                (
                    name,
                    value.replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\"),
                )
            )
        value_text = match.group("value")
        value = math.inf if value_text == "+Inf" else float(value_text)
        samples[(match.group("name"), tuple(sorted(labels)))] = value
    return samples


def _write_atomic(path: str, data: str) -> None:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".metrics-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_prometheus(
    source: Union[MetricsRegistry, Dict], path: Union[str, os.PathLike]
) -> str:
    """Atomically write the text exposition of ``source`` to
    ``path``; returns the path."""
    _write_atomic(str(path), render_prometheus(source))
    return str(path)


def append_snapshot_jsonl(
    source: Union[MetricsRegistry, Dict],
    path: Union[str, os.PathLike],
    now: Optional[float] = None,
    meta: Optional[Dict] = None,
) -> Dict:
    """Append one timestamped snapshot line to a JSONL file.

    Periodic callers (the ``--watch`` dashboard, a worker heartbeat)
    build a time series of full snapshots this way; each line is
    ``{"written_at": ..., "metrics": <snapshot>}`` plus ``meta``.
    """
    snapshot = source if isinstance(source, dict) else source.snapshot()
    record = dict(meta or {})
    record["written_at"] = time.time() if now is None else now
    record["metrics"] = snapshot
    with open(str(path), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


# -- cross-process aggregation ---------------------------------------


def metrics_dir(root: Union[str, os.PathLike]) -> str:
    """The per-worker snapshot directory under a queue root."""
    return os.path.join(str(root), METRICS_DIRNAME)


def write_worker_snapshot(
    root: Union[str, os.PathLike],
    worker: str,
    registry: Union[MetricsRegistry, Dict],
    now: Optional[float] = None,
    pid: Optional[int] = None,
) -> str:
    """Atomically replace this worker's snapshot file under
    ``<root>/metrics/``.

    The filename carries the pid so successive serve sessions on the
    same queue accumulate (counters from a finished worker keep
    counting toward the queue-lifetime totals) instead of silently
    overwriting a predecessor with the same worker name.
    """
    snapshot = (
        registry if isinstance(registry, dict) else registry.snapshot()
    )
    worker_pid = os.getpid() if pid is None else pid
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", str(worker))
    payload = {
        "schema": METRICS_SCHEMA,
        "worker": str(worker),
        "pid": worker_pid,
        "written_at": time.time() if now is None else now,
        "metrics": snapshot,
    }
    path = os.path.join(metrics_dir(root), f"{safe}-{worker_pid}.json")
    _write_atomic(path, json.dumps(payload, sort_keys=True) + "\n")
    return path


def load_worker_snapshots(root: Union[str, os.PathLike]) -> List[Dict]:
    """All worker snapshot payloads under ``<root>/metrics/``, sorted
    by filename.  Unreadable or half-typed files are skipped (the
    writer is atomic, but a scraper may race a deleted queue)."""
    directory = metrics_dir(root)
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return []
    payloads = []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(directory, name)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if payload.get("schema") != METRICS_SCHEMA:
            continue
        payloads.append(payload)
    return payloads


def merge_worker_snapshots(
    root: Union[str, os.PathLike],
    into: Optional[MetricsRegistry] = None,
    now: Optional[float] = None,
) -> Tuple[MetricsRegistry, List[Dict]]:
    """Merge every worker snapshot under ``<root>/metrics/`` into one
    registry (counters/histograms add, gauges last-write-wins) and
    derive per-worker heartbeat gauges:

    * ``repro_worker_heartbeat_timestamp{worker,pid}`` — wall-clock
      seconds of the worker's last snapshot write.
    * ``repro_worker_last_seen_seconds{worker,pid}`` — age of that
      write relative to ``now``.

    Returns ``(registry, worker-meta list)`` where each meta dict has
    ``worker``, ``pid`` and ``written_at``.
    """
    registry = into if into is not None else MetricsRegistry()
    reference = time.time() if now is None else now
    workers: List[Dict] = []
    for payload in load_worker_snapshots(root):
        registry.merge_snapshot(payload["metrics"])
        worker = str(payload.get("worker", "?"))
        pid = str(payload.get("pid", "?"))
        written_at = float(payload.get("written_at", 0.0))
        registry.gauge(
            "repro_worker_heartbeat_timestamp",
            help="Wall-clock time of the worker's last metrics write",
            labels=("worker", "pid"),
        ).labels(worker=worker, pid=pid).set(written_at)
        registry.gauge(
            "repro_worker_last_seen_seconds",
            help="Seconds since the worker's last metrics write",
            labels=("worker", "pid"),
        ).labels(worker=worker, pid=pid).set(max(0.0, reference - written_at))
        workers.append(
            {"worker": worker, "pid": payload.get("pid"),
             "written_at": written_at}
        )
    return registry, workers
