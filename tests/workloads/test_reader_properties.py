"""Property tests: chunked trace readers against a line-by-line model.

For generated SPC-1, blktrace and native (disksim) text — plain and
gzip, mixing records, comments, blank lines and at most one bad record
— every chunk size and limit must give the same requests and skip
counts as chunk size 1, and both must match what the lines say: or
the same ``ValueError``, naming the first bad line.
"""

import gzip
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.workloads.formats import iter_trace_chunks

# -- line strategies ----------------------------------------------------
# Each strategy draws (text, outcome): outcome is ("request", fields),
# ("skip", reason) or ("error",).  blktrace requests carry their device
# name in place of ``source_disk``; the model numbers devices itself.

_PAD = st.sampled_from(["", " ", "  ", "\t"])
_MICROS = st.integers(0, 10**9)

_BLANK = _PAD.map(lambda pad: (pad, ("skip", "blank")))
_COMMENT = st.tuples(_PAD, st.sampled_from(["", " x", " a,b,c,d,e", "#"])).map(
    lambda parts: (f"{parts[0]}#{parts[1]}", ("skip", "comments"))
)


@st.composite
def _spc1_record(draw):
    asu = draw(st.integers(0, 5))
    lba = draw(st.integers(0, 10**9))
    size_bytes = draw(st.integers(0, 1 << 20))
    opcode = draw(st.sampled_from("rRwW"))
    stamp = f"{draw(_MICROS) / 1e6:.6f}"
    pad = draw(_PAD)
    text = f"{pad}{asu},{lba}, {size_bytes},{opcode}{pad},{stamp}{pad}"
    size = max(1, -(-size_bytes // 512))
    request = (lba, size, opcode in "rR", float(stamp) * 1000.0, asu)
    return text, ("request", request)


_SPC1_BAD = st.sampled_from(
    [
        "0,0,512,R,nan",
        "0,0,512,R,inf",
        "0,0,512,R,-inf",
        "0,0,-1,R,0.0",
        "0,abc,512,R,0.0",
        "0,-8,512,R,0.0",
        "0,0,512,X,0.0",
        "0,0,512",
        "x,0,512,W,0.0",
    ]
).map(lambda text: (text, ("error",)))


@st.composite
def _disksim_record(draw):
    arrival = f"{draw(_MICROS) / 1e3:.6f}"
    disk = draw(st.integers(0, 5))
    lba = draw(st.integers(0, 10**9))
    size = draw(st.integers(1, 2048))
    kind = draw(st.sampled_from("rRwW"))
    pad = draw(_PAD)
    text = f"{pad}{arrival} {disk}\t{lba} {size} {kind}{pad}"
    return text, ("request", (lba, size, kind in "rR", float(arrival), disk))


_DISKSIM_BAD = st.sampled_from(
    [
        "nan 0 1 8 R",
        "inf 0 1 8 W",
        "1.0 0 1 8",
        "1.0 0 x 8 R",
        "1.0 0 1 0 R",
        "1.0 0 -1 8 R",
        "1.0 0 1 8 Q",
    ]
).map(lambda text: (text, ("error",)))


@st.composite
def _blktrace_event(draw):
    device = draw(st.sampled_from(["8,0", "8,16", "259,1"]))
    stamp = f"{draw(_MICROS) / 1e6:.9f}"
    action = draw(st.sampled_from(["Q", "Q", "Q", "G", "C", "D"]))
    rwbs = draw(st.sampled_from(["R", "RA", "W", "WS", "D", "N"]))
    sector = draw(st.integers(0, 10**9))
    count = draw(st.integers(0, 256))
    text = f"  {device} 1 7 {stamp} 99 {action} {rwbs} {sector} + {count} [p]"
    if action != "Q":
        return text, ("skip", "other_action")
    if rwbs == "N" or count == 0:
        return text, ("skip", "no_data")
    request = (sector, count, "R" in rwbs, float(stamp) * 1000.0, device)
    return text, ("request", request)


_BLKTRACE_OTHER = st.sampled_from(
    [
        ("CPU0 (sda):", ("skip", "non_event")),
        (" Reads Queued:           2,        8KiB", ("skip", "non_event")),
        ("# not blkparse output", ("skip", "non_event")),
        ("  8,0 1 1 nan 1 Q R 8 + 8 [p]", ("skip", "non_event")),
        ("  8,0 1 1 inf 1 Q R 8 + 8 [p]", ("skip", "non_event")),
        ("  8,0 1 1 1e306 1 Q R 8 + 8 [p]", ("skip", "non_event")),
        ("  8,0 1 1 0.5 1 Q R -8 + 8 [p]", ("skip", "non_event")),
        ("  8,0 1 1 0.5 1 Q R x + 8 [p]", ("skip", "non_event")),
    ]
)

FORMATS = {
    "spc1": (st.one_of(_spc1_record(), _COMMENT, _BLANK), _SPC1_BAD),
    "disksim": (st.one_of(_disksim_record(), _COMMENT, _BLANK), _DISKSIM_BAD),
    "blktrace": (st.one_of(_blktrace_event(), _BLANK), _BLKTRACE_OTHER),
}


@st.composite
def trace_texts(draw, trace_format):
    """Lines of one file: records and skippable lines, plus at most one
    bad line at a random position."""
    good, bad = FORMATS[trace_format]
    lines = draw(st.lists(good, max_size=40))
    if draw(st.booleans()):
        position = draw(st.integers(0, len(lines)))
        lines.insert(position, draw(bad))
    return lines


# -- model and reader ---------------------------------------------------


def model(lines, limit):
    """What reading ``lines`` up to ``limit`` requests must give."""
    requests, skipped, devices = [], {}, {}
    for number, (_, outcome) in enumerate(lines, start=1):
        if limit is not None and len(requests) == limit:
            break
        if outcome[0] == "error":
            return ("error", number, skipped)
        if outcome[0] == "skip":
            skipped[outcome[1]] = skipped.get(outcome[1], 0) + 1
            continue
        lba, size, is_read, arrival, source = outcome[1]
        if isinstance(source, str):  # blktrace: devices in first-use order
            source = devices.setdefault(source, len(devices))
        requests.append((lba, size, is_read, arrival, source))
    return ("ok", requests, skipped)


def read(path, trace_format, chunk_requests, limit):
    skipped = {}
    try:
        chunks = list(
            iter_trace_chunks(path, trace_format, skipped, chunk_requests,
                              limit)
        )
    except ValueError as error:
        return ("error", str(error), skipped)
    assert all(0 < len(chunk) <= chunk_requests for chunk in chunks)
    requests = [
        (r.lba, r.size, r.is_read, r.arrival_time, r.source_disk)
        for chunk in chunks
        for r in chunk
    ]
    return ("ok", requests, skipped)


def check(trace_format, lines, gz, data):
    records = sum(outcome[0] == "request" for _, outcome in lines)
    chunk_requests = data.draw(st.integers(1, records + 2), "chunk_requests")
    limit = data.draw(
        st.one_of(st.none(), st.integers(1, records + 1)), "limit"
    )
    text = "".join(line + "\n" for line, _ in lines)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.trace" + (".gz" if gz else ""))
        if gz:
            with gzip.open(path, "wt", encoding="ascii") as handle:
                handle.write(text)
        else:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text)
        reference = read(path, trace_format, 1, limit)
        assert read(path, trace_format, chunk_requests, limit) == reference
    expected = model(lines, limit)
    if expected[0] == "error":
        assert reference[0] == "error", reference
        assert reference[1].startswith(f"{path}:{expected[1]}: ")
        assert reference[2] == expected[2]
    else:
        assert reference == expected


_SETTINGS = settings(max_examples=150, deadline=None)


class TestChunkedReaders:
    @_SETTINGS
    @given(lines=trace_texts("spc1"), gz=st.booleans(), data=st.data())
    def test_spc1(self, lines, gz, data):
        check("spc1", lines, gz, data)

    @_SETTINGS
    @given(lines=trace_texts("disksim"), gz=st.booleans(), data=st.data())
    def test_disksim(self, lines, gz, data):
        check("disksim", lines, gz, data)

    @_SETTINGS
    @given(lines=trace_texts("blktrace"), gz=st.booleans(), data=st.data())
    def test_blktrace(self, lines, gz, data):
        check("blktrace", lines, gz, data)
