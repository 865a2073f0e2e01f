"""Tests for the SPC-1/blktrace readers and trace format interop."""

import gzip

import pytest

from repro.disk.request import IORequest
from repro.workloads.formats import (
    TRACE_FORMATS,
    convert_trace,
    detect_trace_format,
    iter_trace_requests,
    stat_trace,
    write_trace_requests,
)
from repro.workloads.trace import parse_request_line

SPC1_LINES = """\
0,384,8192,W,0.000000
1,1024,4096,r,0.002000
0,392,512,R,0.005500
2,0,1000,w,0.010000
"""

BLKTRACE_LINES = """\
  8,0    1        1     0.000000000  1234  Q   R 2384 + 8 [prog]
  8,0    1        2     0.000050000  1234  G   R 2384 + 8 [prog]
  8,16   0        3     0.001000000  1235  Q  WS 100 + 16 [prog]
  8,0    1        4     0.002000000  1234  C   R 2384 + 8 [0]
  8,0    1        5     0.003000000  1234  Q   N 0 + 0 [prog]
CPU0 (sda):
 Reads Queued:           2,        8KiB
"""


class TestDetect:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("a.trace", "disksim"),
            ("a.dsim", "disksim"),
            ("a.txt", "disksim"),
            ("a.spc", "spc1"),
            ("a.spc1", "spc1"),
            ("a.csv", "spc1"),
            ("a.blktrace", "blktrace"),
            ("a.blkparse", "blktrace"),
            ("a.unknown", "disksim"),
            ("a.spc.gz", "spc1"),
            ("dir.csv/a.trace.gz", "disksim"),
        ],
    )
    def test_suffix_mapping(self, path, expected):
        assert detect_trace_format(path) == expected

    def test_formats_tuple(self):
        assert TRACE_FORMATS == ("disksim", "spc1", "blktrace")


class TestSpc1:
    def test_parsing(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text(SPC1_LINES)
        requests = list(iter_trace_requests(path))
        assert len(requests) == 4
        first = requests[0]
        assert first.source_disk == 0
        assert first.lba == 384
        assert first.size == 16  # 8192 bytes = 16 sectors
        assert not first.is_read
        assert first.arrival_time == 0.0
        assert requests[1].is_read  # lowercase opcode
        assert requests[1].arrival_time == pytest.approx(2.0)  # s -> ms
        assert requests[2].size == 1  # 512 bytes = exactly 1 sector
        assert requests[3].size == 2  # 1000 bytes rounds up

    def test_comments_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("# header\n\n0,0,512,R,0.0\n")
        skipped = {"comments": 0, "non_event": 0, "other_action": 0,
                   "no_data": 0}
        assert len(list(iter_trace_requests(path, skipped=skipped))) == 1
        assert skipped["comments"] == 1
        assert skipped["blank"] == 1

    def test_bad_opcode_rejected(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("0,0,512,X,0.0\n")
        with pytest.raises(ValueError, match="opcode"):
            list(iter_trace_requests(path))

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("0,0,512\n")
        with pytest.raises(ValueError, match="5 comma-separated"):
            list(iter_trace_requests(path))


class TestRejections:
    """Bad values fail with the file and line, never as a request."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ("0,0,512,R,nan", "timestamp must be finite"),
            ("0,0,512,R,inf", "timestamp must be finite"),
            ("0,0,512,R,1e306", "timestamp must be finite"),
            ("0,0,-512,R,0.0", "size must be non-negative"),
            ("0,abc,512,R,0.0", "invalid literal for int"),
            ("0,0,512,R,soon", "could not convert string to float"),
            ("0,-8,512,R,0.0", "lba must be non-negative"),
        ],
    )
    def test_spc1_bad_values(self, tmp_path, line, message):
        path = tmp_path / "t.spc"
        path.write_text(f"# header\n0,0,512,R,0.0\n{line}\n")
        with pytest.raises(ValueError, match=message) as caught:
            list(iter_trace_requests(path))
        assert str(caught.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("nan 0 100 8 R", "arrival time must be finite"),
            ("-inf 0 100 8 R", "arrival time must be finite"),
            ("1.0 0 abc 8 R", "invalid literal for int"),
            ("1.0 0 100 0 R", "size must be positive"),
            ("1.0 0 -1 8 W", "lba must be non-negative"),
        ],
    )
    def test_disksim_bad_values(self, tmp_path, line, message):
        path = tmp_path / "t.trace"
        path.write_text(f"0.0 0 100 8 R\n\n{line}\n")
        with pytest.raises(ValueError, match=message) as caught:
            list(iter_trace_requests(path))
        assert str(caught.value).startswith(f"{path}:3: ")

    def test_parse_request_line_names_where(self):
        with pytest.raises(ValueError, match="^here:7: arrival time"):
            parse_request_line("nan 0 100 8 R", where="here:7")
        with pytest.raises(ValueError, match="^here:7: invalid literal"):
            parse_request_line("1.0 x 100 8 R", where="here:7")

    def test_zero_byte_spc1_record_is_one_sector(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("0,0,0,R,0.0\n")
        assert [r.size for r in iter_trace_requests(path)] == [1]

    def test_blktrace_bad_values_are_skipped_as_non_events(self, tmp_path):
        path = tmp_path / "t.blktrace"
        path.write_text(
            "  8,0 1 1 nan 1 Q R 8 + 8 [p]\n"
            "  8,0 1 2 inf 1 Q R 8 + 8 [p]\n"
            "  8,0 1 3 0.5 1 Q R -8 + 8 [p]\n"
            "  8,0 1 4 1e306 1 Q R 8 + 8 [p]\n"
            "  8,0 1 5 1.0 1 Q R 16 + 8 [p]\n"
        )
        skipped = {}
        requests = list(iter_trace_requests(path, skipped=skipped))
        assert [r.lba for r in requests] == [16]
        assert skipped == {"non_event": 4}

    def test_limit_stops_before_a_bad_record(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("0,0,512,R,0.0\n0,8,512,R,0.1\n0,x,512,R,0.2\n")
        assert len(list(iter_trace_requests(path, limit=2))) == 2
        with pytest.raises(ValueError, match=":3: "):
            list(iter_trace_requests(path, limit=3))
        assert list(iter_trace_requests(path, limit=0)) == []
        with pytest.raises(ValueError, match="limit must be >= 0"):
            list(iter_trace_requests(path, limit=-1))


class TestBlktrace:
    def test_parsing(self, tmp_path):
        path = tmp_path / "t.blktrace"
        path.write_text(BLKTRACE_LINES)
        skipped = {"comments": 0, "non_event": 0, "other_action": 0,
                   "no_data": 0}
        requests = list(iter_trace_requests(path, skipped=skipped))
        # Only the two Q events with data survive.
        assert len(requests) == 2
        read, write = requests
        assert read.is_read and read.lba == 2384 and read.size == 8
        assert read.source_disk == 0  # 8,0 seen first
        assert not write.is_read and write.size == 16
        assert write.source_disk == 1  # 8,16 second device
        assert write.arrival_time == pytest.approx(1.0)  # s -> ms
        # G and C events are other actions; N-rwbs Q is no_data;
        # summary block lines are non-events.
        assert skipped["other_action"] == 2
        assert skipped["no_data"] == 1
        assert skipped["non_event"] > 0


class TestWrite:
    def test_blktrace_write_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="read-only|cannot write"):
            write_trace_requests(
                tmp_path / "o.blktrace", [], trace_format="blktrace"
            )

    def test_spc1_roundtrip(self, tmp_path):
        requests = [
            IORequest(lba=10, size=8, is_read=True, arrival_time=1.5,
                      source_disk=2),
            IORequest(lba=20, size=1, is_read=False, arrival_time=3.0,
                      source_disk=0),
        ]
        path = tmp_path / "t.spc"
        assert write_trace_requests(path, requests, "spc1") == 2
        back = list(iter_trace_requests(path))
        for a, b in zip(requests, back):
            assert (a.lba, a.size, a.is_read, a.source_disk) == (
                b.lba, b.size, b.is_read, b.source_disk
            )
            assert a.arrival_time == pytest.approx(b.arrival_time)


class TestConvert:
    def test_spc1_to_disksim_gzip(self, tmp_path):
        src = tmp_path / "in.spc"
        src.write_text(SPC1_LINES)
        dst = tmp_path / "out.trace.gz"
        summary = convert_trace(src, dst)
        assert summary["in_format"] == "spc1"
        assert summary["out_format"] == "disksim"
        assert summary["requests"] == 4
        with gzip.open(dst, "rt") as handle:
            assert handle.readline().startswith("# trace: out")
        back = list(iter_trace_requests(dst))
        assert [r.lba for r in back] == [384, 1024, 392, 0]

    def test_sort_repairs_out_of_order(self, tmp_path):
        src = tmp_path / "in.trace"
        src.write_text("5.0 0 100 8 R\n1.0 0 200 8 W\n")
        dst = tmp_path / "out.trace"
        summary = convert_trace(src, dst, sort=True)
        assert summary["sorted"]
        back = list(iter_trace_requests(dst))
        assert [r.arrival_time for r in back] == [1.0, 5.0]

    def test_limit_truncates(self, tmp_path):
        src = tmp_path / "in.spc"
        src.write_text(SPC1_LINES)
        dst = tmp_path / "out.trace"
        assert convert_trace(src, dst, limit=2)["requests"] == 2

    def test_bad_limit(self, tmp_path):
        src = tmp_path / "in.spc"
        src.write_text(SPC1_LINES)
        with pytest.raises(ValueError, match="limit"):
            convert_trace(src, tmp_path / "o.trace", limit=0)

    def test_unknown_format_rejected(self, tmp_path):
        src = tmp_path / "in.trace"
        src.write_text("0.0 0 1 8 R\n")
        with pytest.raises(ValueError, match="unknown trace format"):
            list(iter_trace_requests(src, "nope"))


class TestStat:
    def test_matches_in_memory_summary(self, tmp_path):
        from repro.workloads.commercial import WEBSEARCH
        from repro.workloads.trace import save_trace

        trace = WEBSEARCH.generate(200)
        path = tmp_path / "w.trace.gz"
        save_trace(path, trace)
        streamed = stat_trace(path)
        reference = trace.summary()
        for key in (
            "requests",
            "duration_ms",
            "mean_interarrival_ms",
            "read_fraction",
            "mean_size_sectors",
            "disks",
            "sequential_fraction",
        ):
            assert streamed[key] == pytest.approx(reference[key]), key
        assert streamed["monotone"]
        assert streamed["format"] == "disksim"
        assert streamed["name"] == "w"

    def test_flags_non_monotone(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("5.0 0 100 8 R\n1.0 0 200 8 W\n")
        summary = stat_trace(path)
        assert not summary["monotone"]
        assert summary["requests"] == 2

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# nothing\n")
        summary = stat_trace(path)
        assert summary["requests"] == 0
        assert summary["monotone"]
        assert summary["skipped"] == {"comments": 1}

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"")
        summary = stat_trace(path)
        assert summary["requests"] == 0
        assert summary["monotone"]
        assert summary["skipped"] == {}
        assert summary["duration_ms"] == 0.0

    def test_whitespace_only_file(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("\n   \n\t\n")
        summary = stat_trace(path)
        assert summary["requests"] == 0
        assert summary["skipped"] == {"blank": 3}

    def test_whitespace_only_spc1(self, tmp_path):
        path = tmp_path / "t.spc"
        path.write_text("\n \n")
        summary = stat_trace(path)
        assert summary["requests"] == 0
        assert summary["skipped"] == {"blank": 2}
