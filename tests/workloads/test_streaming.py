"""Tests for the bounded-memory StreamingTrace."""

import pytest

from repro.workloads.streaming import DEFAULT_CHUNK_REQUESTS, StreamingTrace
from repro.workloads.trace import save_trace


def write_trace(path, n=10, start=0.0, step=1.0):
    lines = [
        f"{start + i * step:.6f} {i % 2} {i * 16} 8 {'R' if i % 3 else 'W'}"
        for i in range(n)
    ]
    path.write_text("# trace: t\n" + "\n".join(lines) + "\n")


class TestStreamingTrace:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StreamingTrace(tmp_path / "nope.trace")

    def test_bad_chunk_size_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path)
        with pytest.raises(ValueError, match="chunk_requests"):
            StreamingTrace(path, chunk_requests=0)

    def test_reiterable(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=5)
        stream = StreamingTrace(path)
        first = [r.lba for r in stream]
        second = [r.lba for r in stream]
        assert first == second == [0, 16, 32, 48, 64]

    def test_defaults(self, tmp_path):
        path = tmp_path / "demo.trace.gz"
        save_trace(path, [])
        stream = StreamingTrace(path)
        assert stream.name == "demo"
        assert stream.trace_format == "disksim"
        assert stream.chunk_requests == DEFAULT_CHUNK_REQUESTS

    def test_non_monotone_fails_at_offender(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("2.0 0 0 8 R\n1.0 0 16 8 R\n")
        stream = StreamingTrace(path)
        with pytest.raises(ValueError, match="not.*monotone.*--sort"):
            list(stream)

    def test_iter_chunks_bounds_each_chunk(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=10)
        stream = StreamingTrace(path, chunk_requests=4)
        chunks = list(stream.iter_chunks())
        assert [len(c) for c in chunks] == [4, 4, 2]
        flat = [r.lba for chunk in chunks for r in chunk]
        assert flat == [r.lba for r in stream]

    def test_iter_chunks_override(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=10)
        chunks = list(StreamingTrace(path).iter_chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_materialize_matches_file(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=6)
        trace = StreamingTrace(path).materialize()
        assert len(trace) == 6
        assert trace.name == "t"

    def test_materialize_limit(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=6)
        assert len(StreamingTrace(path).materialize(limit=2)) == 2
        with pytest.raises(ValueError, match="limit"):
            StreamingTrace(path).materialize(limit=0)

    def test_count_and_summary(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=7)
        stream = StreamingTrace(path, name="renamed")
        assert stream.count() == 7
        summary = stream.summary()
        assert summary["requests"] == 7
        assert summary["name"] == "renamed"
        assert summary["monotone"]

    def test_non_monotone_across_a_chunk_boundary(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1.0 0 0 8 R\n2.0 0 16 8 R\n1.5 0 32 8 R\n")
        stream = StreamingTrace(path, chunk_requests=2)
        with pytest.raises(ValueError, match="at request 2: 1.5 after 2.0"):
            list(stream.iter_chunks())

    def test_iter_chunks_limit_stops_reading(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, n=10)
        with open(path, "a") as handle:
            handle.write("not a record\n")
        chunks = list(StreamingTrace(path).iter_chunks(4, limit=10))
        assert [len(c) for c in chunks] == [4, 4, 2]


class TestSkipCounts:
    """``last_skipped`` covers the lines a pass read, however it ends."""

    TEXT = "# one\n0.0 0 0 8 R\n# two\n\n1.0 0 8 8 R\n# three\n2.0 0 16 8 R\n"

    def test_full_pass(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(self.TEXT)
        stream = StreamingTrace(path)
        assert len(list(stream)) == 3
        assert stream.last_skipped == {"comments": 3, "blank": 1}

    def test_truncated_pass_counts_lines_read(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(self.TEXT)
        stream = StreamingTrace(path, chunk_requests=1)
        assert len(stream.materialize(limit=2)) == 2
        assert stream.last_skipped == {"comments": 2, "blank": 1}

    def test_early_close_counts_lines_read(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(self.TEXT)
        stream = StreamingTrace(path, chunk_requests=1)
        chunks = stream.iter_chunks()
        next(chunks)
        chunks.close()
        assert stream.last_skipped == {"comments": 1}

    def test_failed_pass_counts_lines_read(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# one\n\n0.0 0 0 8 R\nbroken\n")
        stream = StreamingTrace(path)
        with pytest.raises(ValueError, match=r"t\.trace:4: "):
            list(stream)
        assert stream.last_skipped == {"comments": 1, "blank": 1}

    def test_truncated_pass_feeds_the_metric(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, metrics_session

        path = tmp_path / "t.trace"
        path.write_text(self.TEXT)
        with metrics_session(MetricsRegistry()) as registry:
            StreamingTrace(path).materialize(limit=2)
        family = registry.counter(
            "repro_trace_skipped_lines_total", labels=("reason",)
        )
        assert family.labels(reason="comments").value == 2
        assert family.labels(reason="blank").value == 1
