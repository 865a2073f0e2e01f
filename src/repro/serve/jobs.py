"""Job specs, their cache digests, and the job runner.

A :class:`JobSpec` names everything that determines a simulation's
figures: the trace (a commercial-workload generator or an on-disk
trace file) and the system configuration.  Three digests make the
result cache content-addressed:

* ``config_digest`` — the figure-determining configuration fields.
  Execution-only knobs (chunk size) are excluded: they change *how*
  the run executes, never what it measures.
* ``trace_digest`` — the exact bytes of a trace file, or the
  ``(workload, seed)`` generation identity for synthesized traces.
* ``code_version`` — a digest of the installed ``repro`` source tree,
  so a code change invalidates every cached result.

``cache_key`` hashes the three together; :func:`run_job` produces the
canonical result payload whose bytes are identical for every run of
the same key (the simulator is deterministic, and the payload carries
no timestamps or host state).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.workloads.formats import TRACE_FORMATS
from repro.workloads.streaming import (
    DEFAULT_CHUNK_REQUESTS,
    StreamingTrace,
)

__all__ = [
    "JOB_SCHEMA",
    "JobSpec",
    "cache_key",
    "code_version",
    "result_payload_bytes",
    "run_job",
    "verify_result_payload",
]

JOB_SCHEMA = "repro-job/1"
RESULT_SCHEMA = "repro-result/1"

_SYSTEMS = ("hcsd", "md")


@dataclass(frozen=True)
class JobSpec:
    """One simulation request, as submitted by a client.

    Exactly one of ``workload`` (a commercial workload name, trace
    synthesized at run time from ``seed``) and ``trace_path`` (an
    on-disk trace replayed through :class:`StreamingTrace`) must be
    set.  ``requests`` counts generated requests for workload jobs and
    truncates (``None`` = whole file) for trace-file jobs.
    """

    workload: Optional[str] = None
    trace_path: Optional[str] = None
    trace_format: Optional[str] = None
    system: str = "hcsd"
    requests: Optional[int] = 4000
    actuators: int = 1
    rpm: Optional[float] = None
    seed: Optional[int] = None
    #: Source-disk count a trace file's addresses are wrapped onto
    #: (trace-file jobs only; ``repro trace stat`` reports it).
    disks: int = 1
    #: Execution-only: replay chunk size (excluded from digests).
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS

    def validate(self) -> None:
        """Raise ``ValueError`` unless every field has a usable type and
        range.  Specs arrive as JSON from clients, so ``True`` is not a
        count and ``"10"`` is not a number."""
        for name in ("workload", "trace_path", "trace_format"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(
                    f"{name} must be a string or None, got {value!r}"
                )
        if self.trace_format is not None and (
            self.trace_format not in TRACE_FORMATS
        ):
            raise ValueError(
                f"trace_format must be one of {TRACE_FORMATS} or None, "
                f"got {self.trace_format!r}"
            )
        if self.requests is not None and not _is_int(self.requests):
            raise ValueError(
                f"requests must be an int or None, got {self.requests!r}"
            )
        if self.seed is not None and not _is_int(self.seed):
            raise ValueError(
                f"seed must be an int or None, got {self.seed!r}"
            )
        for name in ("actuators", "disks", "chunk_requests"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.rpm is not None and not _is_finite_positive(self.rpm):
            raise ValueError(
                f"rpm must be a finite positive number or None, got "
                f"{self.rpm!r}"
            )
        if bool(self.workload) == bool(self.trace_path):
            raise ValueError(
                "exactly one of workload and trace_path must be set"
            )
        if self.system not in _SYSTEMS:
            raise ValueError(
                f"system must be one of {_SYSTEMS}, got {self.system!r}"
            )
        if self.workload:
            from repro.workloads.commercial import COMMERCIAL_WORKLOADS

            if self.workload not in COMMERCIAL_WORKLOADS:
                raise ValueError(
                    f"unknown workload {self.workload!r}; choose from "
                    f"{sorted(COMMERCIAL_WORKLOADS)}"
                )
            if self.requests is None or self.requests <= 0:
                raise ValueError(
                    "workload jobs need a positive requests count, got "
                    f"{self.requests}"
                )
        else:
            if self.system == "md":
                raise ValueError(
                    "trace-file jobs replay onto the HC-SD system; the "
                    "MD array needs a workload's Table-2 geometry"
                )
            if self.requests is not None and self.requests <= 0:
                raise ValueError(
                    f"requests must be positive or None, got "
                    f"{self.requests}"
                )

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["schema"] = JOB_SCHEMA
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError(
                f"a job spec must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        data = dict(payload)
        schema = data.pop("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ValueError(
                f"unsupported job schema {schema!r} (expected "
                f"{JOB_SCHEMA})"
            )
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(
                f"unknown job fields: {sorted(unknown, key=repr)}"
            )
        spec = cls(**data)
        spec.validate()
        return spec

    # -- digests ----------------------------------------------------------
    def config_digest(self) -> str:
        """Digest of the figure-determining configuration."""
        config = {
            "system": self.system,
            "requests": self.requests,
            "actuators": self.actuators,
            "rpm": self.rpm,
            "disks": self.disks if self.trace_path else None,
        }
        return _sha256_json(config)

    def trace_digest(self) -> str:
        """Digest of the trace identity (file bytes or generator)."""
        if self.trace_path:
            return _file_digest(self.trace_path)
        return _sha256_json(
            {"generated": self.workload, "seed": self.seed}
        )


def _is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_positive(value) -> bool:
    """A non-bool int or float that is a positive, finite float."""
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:
        return False


def _sha256_json(value) -> str:
    payload = json.dumps(value, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Digest of the installed ``repro`` package's source files.

    Hashing (relative path, bytes) pairs in sorted order gives a
    version identifier that changes with any code change and needs no
    git checkout — the property the result cache keys on.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for directory, _, files in sorted(os.walk(root)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                rel = os.path.relpath(path, root)
                digest.update(rel.encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def cache_key(spec: JobSpec) -> str:
    """The content address of ``spec``'s result."""
    spec.validate()
    combined = json.dumps(
        {
            "config": spec.config_digest(),
            "trace": spec.trace_digest(),
            "code": code_version(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(combined.encode("ascii")).hexdigest()


class _WrappedStream(StreamingTrace):
    """A trace file's addresses wrapped onto a target address space.

    Arbitrary trace files address arbitrary devices; the replay system
    has ``disks`` source extents of ``extent_sectors`` each.  Wrapping
    ``source_disk`` and ``lba`` modulo the target space (the standard
    trace-replay convention) keeps every request in range while
    preserving locality structure.  ``limit`` truncates the stream:
    the reader stops at the last request the job replays.
    """

    def __init__(
        self,
        path: str,
        trace_format: Optional[str],
        chunk_requests: int,
        disks: int,
        extent_sectors: int,
        limit: Optional[int],
    ):
        super().__init__(
            path,
            trace_format=trace_format,
            chunk_requests=chunk_requests,
        )
        self._disks = disks
        self._extent = extent_sectors
        self._limit = limit

    def iter_chunks(
        self,
        chunk_requests: Optional[int] = None,
        limit: Optional[int] = None,
    ):
        # The tighter of the caller's limit and the job's.
        if limit is None or (
            self._limit is not None and self._limit < limit
        ):
            limit = self._limit
        disks = self._disks
        extent = self._extent
        for chunk in super().iter_chunks(chunk_requests, limit):
            for request in chunk:
                request.source_disk %= disks
                size = request.size
                if size > extent:
                    request.size = size = extent
                request.lba %= extent - size or 1
            yield chunk


def _build_system(spec: JobSpec, env):
    from repro.disk.specs import BARRACUDA_ES
    from repro.experiments.configs import (
        build_hcsd_drive,
        build_hcsd_system,
        build_md_system,
    )
    from repro.raid.array import DiskArray
    from repro.raid.layout import ConcatLayout
    from repro.workloads.commercial import COMMERCIAL_WORKLOADS

    if spec.workload:
        workload = COMMERCIAL_WORKLOADS[spec.workload]
        if spec.system == "md":
            return build_md_system(env, workload)
        return build_hcsd_system(
            env, workload, actuators=spec.actuators, rpm=spec.rpm
        )
    drive = build_hcsd_drive(
        env, actuators=spec.actuators, rpm=spec.rpm
    )
    extent = drive.geometry.total_sectors // spec.disks
    layout = ConcatLayout([extent] * spec.disks)
    suffix = f"-SA({spec.actuators})" if spec.actuators > 1 else ""
    return DiskArray(
        env,
        [drive],
        layout,
        label=f"HC-SD{suffix}-replay",
    )


def run_job(spec: JobSpec) -> Tuple[Dict, Dict]:
    """Execute ``spec`` and return ``(payload, stats)``.

    ``payload`` is the canonical, cacheable result — figures only, no
    timestamps, no host state — so its serialized bytes are identical
    for every execution of the same cache key.  ``stats`` carries the
    per-run extras (extent geometry, chunk count) a worker may log but
    must not cache.
    """
    from repro.experiments.runner import run_trace
    from repro.sim.engine import Environment

    spec.validate()
    env = Environment()
    system = _build_system(spec, env)
    chunks = 0

    def count_chunk(progress):
        nonlocal chunks
        chunks += 1

    if spec.workload:
        from repro.workloads.commercial import COMMERCIAL_WORKLOADS

        workload = COMMERCIAL_WORKLOADS[spec.workload]
        trace = workload.generate(spec.requests, seed=spec.seed)
        result = run_trace(env, system, trace)
    else:
        drive = system.drives[0]
        stream = _WrappedStream(
            spec.trace_path,
            spec.trace_format,
            spec.chunk_requests,
            spec.disks,
            drive.geometry.total_sectors // spec.disks,
            spec.requests,
        )
        result = run_trace(
            env,
            system,
            stream,
            keep_samples=False,
            on_chunk=count_chunk,
        )
    collector = result.collector
    figures = {
        "label": result.label,
        "requests": result.requests,
        "elapsed_ms": result.elapsed_ms,
        "mean_response_ms": collector.mean_response_ms,
        "max_response_ms": (
            collector.response_stats.maximum if collector.completed else 0.0
        ),
        "mean_rotational_ms": collector.mean_rotational_ms,
        "mean_seek_ms": collector.mean_seek_ms,
        "cache_hit_fraction": (
            collector.cache_hits / collector.completed
            if collector.completed
            else 0.0
        ),
        "response_cdf": collector.response_cdf(),
        "rotational_pdf": collector.rotational_pdf(),
        "power_watts": result.power.as_dict(),
    }
    if collector.keep_samples and collector.response_times:
        figures["p90_response_ms"] = collector.response_percentile(90)
    payload = {
        "schema": RESULT_SCHEMA,
        "job": _canonical_job(spec),
        "figures": figures,
        "figures_sha256": _sha256_json(figures),
    }
    stats = {"chunks": chunks, "completed": collector.completed}
    return payload, stats


def _canonical_job(spec: JobSpec) -> Dict:
    """The job identity stored inside the payload: digests, not paths.

    Embedding the *digests* (rather than the submitting client's local
    paths) keeps payload bytes identical when two clients submit the
    same trace from different locations.
    """
    return {
        "config_digest": spec.config_digest(),
        "trace_digest": spec.trace_digest(),
        "code_version": code_version(),
    }


def result_payload_bytes(payload: Dict) -> bytes:
    """Canonical serialized form of a result payload.

    Sorted keys, fixed separators, trailing newline: the exact bytes
    the cache stores and byte-identity checks compare.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("ascii")


def verify_result_payload(payload_bytes: bytes) -> Optional[str]:
    """Integrity-check cached payload bytes; returns the problem.

    ``None`` means intact: the bytes parse, carry the result schema,
    and the embedded ``figures_sha256`` matches a recomputation over
    the figures — the self-check that catches a torn cache write or
    bit rot before a worker serves it as a cache hit.
    """
    try:
        payload = json.loads(payload_bytes.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return f"torn JSON ({error}; {len(payload_bytes)} bytes)"
    if not isinstance(payload, dict):
        return f"not a payload object ({type(payload).__name__})"
    if payload.get("schema") != RESULT_SCHEMA:
        return (
            f"unexpected schema {payload.get('schema')!r} "
            f"(expected {RESULT_SCHEMA!r})"
        )
    figures = payload.get("figures")
    stored = payload.get("figures_sha256")
    if not isinstance(figures, dict) or not stored:
        return "missing figures/figures_sha256"
    if _sha256_json(figures) != stored:
        return "figures_sha256 mismatch (torn write or bit rot)"
    return None
