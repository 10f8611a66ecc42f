"""Tests for drive-log parsing and metric extraction."""

import csv
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tortb import (
    DriveLog,
    EmptyGroup,
    MissingTorMarker,
    MultipleTorMarkers,
    NonUniformSampling,
    SchemaError,
    TakeoverMetrics,
    TortbError,
    WindowOutOfRange,
    avg_lateral_displacement,
    describe,
    detect_tot,
    drive_log_to_csv,
    extract_metrics,
    max_acceleration,
    parse_drive_log,
    summarize,
)
from tortb import drivelog
from tortb.drivelog import CSV_HEADER
from tortb.simulate import MAX_LOG_S

RATE = 20.0
CHANNELS = ("t", "lateral_displacement", "acceleration", "steering", "brake")


def make_log(n=201, tor_index=100, lat=None, acc=None, steering=None, brake=None):
    t = np.arange(n) / RATE
    zeros = np.zeros(n)
    return DriveLog(
        t=t,
        lateral_displacement=zeros if lat is None else lat,
        acceleration=zeros if acc is None else acc,
        steering=zeros if steering is None else steering,
        brake=zeros if brake is None else brake,
        tor_time=float(t[tor_index]),
        sample_rate=RATE,
    )


def make_csv(rows):
    lines = ["t,lat_disp,acc,steering,brake,tor_flag"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ------------------------------- parsing --------------------------------


def test_parse_wellformed_three_rows():
    csv_text = make_csv(
        [
            (0.0, 0.1, 0.0, 0.2, 0.0, 0),
            (0.05, 0.2, 0.1, 0.2, 0.0, 1),
            (0.1, 0.3, 0.2, 0.2, 0.0, 0),
        ]
    )
    log = parse_drive_log(csv_text)
    assert log.tor_time == 0.05
    assert log.t.size == 3
    assert log.lateral_displacement[2] == 0.3


def test_parse_accepts_bytes():
    csv_text = make_csv([(0.0, 0, 0, 0, 0, 1), (0.05, 0, 0, 0, 0, 0)])
    assert parse_drive_log(csv_text.encode()).tor_time == 0.0


def test_parse_missing_tor_marker():
    with pytest.raises(MissingTorMarker):
        parse_drive_log(make_csv([(0.0, 0, 0, 0, 0, 0), (0.05, 0, 0, 0, 0, 0)]))


def test_parse_multiple_tor_markers():
    with pytest.raises(MultipleTorMarkers):
        parse_drive_log(make_csv([(0.0, 0, 0, 0, 0, 1), (0.05, 0, 0, 0, 0, 1)]))


def test_parse_gap_in_stream():
    rows = [(0.0, 0, 0, 0, 0, 1), (0.05, 0, 0, 0, 0, 0), (0.15, 0, 0, 0, 0, 0)]
    with pytest.raises(NonUniformSampling):
        parse_drive_log(make_csv(rows))


def test_parse_bad_header():
    with pytest.raises(SchemaError):
        parse_drive_log("time,lat,acc,steer,brake,flag\n0,0,0,0,0,1\n")


def test_parse_bad_field_count():
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,1\n")


def test_parse_non_numeric():
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n0,x,0,0,0,1\n")


def test_parse_bad_flag_value():
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,2\n")


def test_parse_empty_and_headerless():
    with pytest.raises(SchemaError):
        parse_drive_log("")
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n")


def test_parse_names_the_line_of_a_quoted_field_or_lone_cr():
    header = "t,lat_disp,acc,steering,brake,tor_flag\n"
    with pytest.raises(SchemaError, match="line 3: could not convert"):
        parse_drive_log(header + '0.0,0,0,0,0,1\n0.05,"0.5",0,0,0,0\n')
    with pytest.raises(SchemaError, match="line 2: expected 6 fields"):
        parse_drive_log(header + "0.0,0,0,0,0,1\r0.05,0,0,0,0,0\n")


def test_parse_reports_the_first_bad_line_whatever_its_fault():
    head = "t,lat_disp,acc,steering,brake,tor_flag\n0.0,0,0,0,0,1\n\n"
    bad = {
        "0.05,0,0,0,0,2": "tor_flag must be 0 or 1",
        "0.05,0,0,0,0": "expected 6 fields",
        "0.05,x,0,0,0,0": "could not convert",
    }
    for first, message in bad.items():
        rest = [line for line in bad if line != first]
        with pytest.raises(SchemaError, match=f"^line 4: {message}"):
            parse_drive_log(head + "\n".join([first, *rest]))


ROW_1 = "t,lat_disp,acc,steering,brake,tor_flag\n0.0,0,0,0,0,1\n"


@pytest.mark.parametrize("text, outcome", [
    (ROW_1 + "0.05,1_0,0,0,0,0\n",
     (SchemaError, "line 3: field '1_0' holds a '_' digit separator")),
    (ROW_1 + "0.05,1e5_0,0,0,0,0\n",
     (SchemaError, "line 3: field '1e5_0' holds a '_' digit separator")),
    (ROW_1 + "0.05,١,0,0,0,0\n",
     (SchemaError, "line 3: field '١' holds a non-ASCII character")),
    (ROW_1 + "0.05,１,0,0,0,0\n",
     (SchemaError, "line 3: field '１' holds a non-ASCII character")),
    ("t\r,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,1\n",
     (SchemaError, "line 1: CR before the end of the line")),
    ("t,lat_disp,acc,steering,brake,tor_flag\r\r\n0,0,0,0,0,1\n", [0.0]),
    ("t,lat_disp,acc,steering,brake,tor_flag\n1,2,3\r,4,5,0\n",
     (SchemaError, "line 2: CR before the end of the line")),
    (ROW_1 + "0.05,3\r,0,0,0,0\n", (SchemaError, "line 3: CR before the end of the line")),
    (ROW_1 + "0.05,0,0,0,0,0\r\r", (SchemaError, "line 3: CR before the end of the line")),
    (ROW_1 + "0.05,\x1c0.5\x1f,0,0,0,0\n", [0.0, 0.5]),
    # Unchanged: a lone CR ending a line, NBSP padding, a line holding only a
    # CR, the same wrong field count on every row.
    (ROW_1 + "0.05,0.5,0,0,0,0\r", [0.0, 0.5]),
    (ROW_1 + "0.05,\xa00.5 ,0,0,0,0\n", [0.0, 0.5]),
    (ROW_1 + "\r", (SchemaError, "line 3: expected 6 fields")),
    ("t,lat_disp,acc,steering,brake,tor_flag\n\r", (SchemaError, "line 2: expected 6 fields")),
    ("t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,1,0\n0.05,0,0,0,0,0,0\n",
     (SchemaError, "line 2: expected 6 fields")),
])
def test_parse_outcome_of_each_token_class(text, outcome):
    try:
        got = parse_drive_log(text).lateral_displacement.tolist()
    except TortbError as exc:
        got = type(exc), str(exc)
    assert got == outcome


def _reference_parse(data, sample_rate=20.0):
    """The csv.reader row loop parse_drive_log used to run; the oracle."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file; header row is mandatory") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise SchemaError(
            f"header must be {','.join(CSV_HEADER)}, got {','.join(header)!r}"
        )
    columns = [[] for _ in CSV_HEADER]
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise SchemaError(f"line {lineno}: expected {len(CSV_HEADER)} fields")
        try:
            values = [_declared_float(field) for field in row]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if values[-1] not in (0.0, 1.0):
            raise SchemaError(f"line {lineno}: tor_flag must be 0 or 1")
        for col, value in zip(columns, values):
            col.append(value)
    if not columns[0]:
        raise SchemaError("no data rows")
    flags = np.asarray(columns[-1])
    marked = np.flatnonzero(flags == 1.0)
    if marked.size == 0:
        raise MissingTorMarker("no row carries tor_flag=1")
    if marked.size > 1:
        raise MultipleTorMarkers(f"{marked.size} rows carry tor_flag=1")
    t = np.asarray(columns[0])
    return DriveLog(
        t=t,
        lateral_displacement=np.asarray(columns[1]),
        acceleration=np.asarray(columns[2]),
        steering=np.asarray(columns[3]),
        brake=np.asarray(columns[4]),
        tor_time=float(t[marked[0]]),
        sample_rate=sample_rate,
    )


def _declared_float(field):
    """float() on the declared field syntax: stripped of Unicode whitespace,
    then ASCII with no ``_`` digit separator, each rule named when it fails;
    float()'s message otherwise."""
    stripped = field.strip()
    if "_" in stripped:
        raise ValueError(f"field {field!r} holds a '_' digit separator")
    if not stripped.isascii():
        raise ValueError(f"field {field!r} holds a non-ASCII character")
    try:
        return float(stripped)
    except ValueError:
        raise ValueError(f"could not convert string to float: {field!r}") from None


EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
# Whitespace float() accepts around a field, and \x1c-\x1f, which it does not.
PADDING = st.sampled_from([" ", "\t", "\xa0", "\u2028", "\x1c", "\x1d", "\x1e", "\x1f"])
VALUE_TEXT = (
    FLOATS.map(repr)
    | st.builds(lambda pad, x, end: f"{pad}{x!r}{end}", PADDING, FLOATS, PADDING)
    | st.sampled_from(["+0", "-0", " 3 ", "1e308", "5e-324", "\x1f3\x1c"])
)
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity"])
# Rejected by the declared syntax though float() reads them: "_" digit
# separators and non-ASCII digits.
UNDECLARED = st.sampled_from(["1_0", "1_000.000_1", "1e5_0", "0_1", "١", "٣.٥", "１", "-１e٢"])
NOT_NUMERIC = (
    st.sampled_from(["n/a", "", "x", "1.2.3", "0x10", "--1", "1__0", "_1", "1_"]) | UNDECLARED
)
FLAG_TEXT = {0: st.sampled_from(["0", " 0", "0.0", "-0", "\x1e0"]),
             1: st.sampled_from(["1", "1.0", " 1 ", "1e0", "1\x1f"])}
BAD_FLAGS = st.sampled_from(["2", "0.5", "-1", "nan", "inf", "1e-300", "1_0", "0_1", "١"])
HEADERS = st.sampled_from([
    "t,lat_disp,acc,steering,brake,tor_flag",
    " t , lat_disp ,acc,steering,brake,tor_flag\t",
    "",
    "t,lat,acc,steering,brake,tor_flag",
    "T,lat_disp,acc,steering,brake,tor_flag",
    "t,lat_disp,acc,steering,brake",
    "t,lat_disp,acc,steering,brake,tor_flag,",
    "0.0,0,0,0,0,1",
])


@st.composite
def drive_log_texts(draw):
    """Drive-log CSV text, mostly well formed, with up to three faults.

    Fields may be padded with \x1c-\x1f, and a faulty token may be a "_"
    digit separator or a non-ASCII digit; the reference reads those
    through _declared_float.  Never holds a double quote or a CR outside a
    CRLF line end: csv.reader unquotes the one and ends a record at the
    other, so the row-loop oracle cannot follow the parser there.
    """
    n = draw(st.integers(1, 25))
    start = draw(st.integers(0, 400))
    tor = draw(st.integers(0, n - 1))
    rows = []
    for i in range(n):
        values = [draw(VALUE_TEXT) for _ in range(4)]
        rows.append([repr((start + i) / RATE), *values, draw(FLAG_TEXT[int(i == tor)])])
    header = "t,lat_disp,acc,steering,brake,tor_flag"
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, n - 1))
        row = rows[i]
        fault = draw(st.sampled_from(["drop", "extra", "rewrap", "token", "not_finite",
                                      "time", "flag", "no_tor", "two_tor", "header"]))
        if fault == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif fault == "extra":
            row.insert(draw(st.integers(0, len(row))), draw(VALUE_TEXT | NOT_NUMERIC))
        elif fault == "rewrap" and row and i + 1 < n:
            # A short line then a long one: the flat field sequence is intact.
            rows[i + 1].insert(0, row.pop())
        elif fault in ("token", "not_finite") and row:
            token = NOT_NUMERIC if fault == "token" else NOT_FINITE
            row[draw(st.integers(0, len(row) - 1))] = draw(token)
        elif fault == "time" and row:
            row[0] = draw(VALUE_TEXT | NOT_FINITE)
        elif fault == "flag" and row:
            row[-1] = draw(BAD_FLAGS)
        elif fault == "no_tor":
            for other in rows:
                if len(other) == len(CSV_HEADER):
                    other[-1] = "0"
        elif fault == "two_tor" and row:
            row[-1] = "1"
        elif fault == "header":
            header = draw(HEADERS)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", "", " "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, "", newline * 2]))
    text = newline.join([header, *lines]) + end
    return "" if draw(st.integers(0, 49)) == 0 else text


def _outcome(parse, text):
    """Bit patterns of every parsed array and the TOR time, or the error."""
    try:
        log = parse(text)
    except (TortbError, ValueError) as exc:
        return type(exc), str(exc)
    return [getattr(log, name).tobytes() for name in CHANNELS] + [log.tor_time.hex()]


@settings(max_examples=400)
@given(text=drive_log_texts())
def test_parse_matches_reference_row_loop(text):
    got = _outcome(parse_drive_log, text)
    assert got == _outcome(_reference_parse, text)
    if isinstance(got, tuple):
        assert issubclass(got[0], TortbError)
    # The line walker alone reads every text as the loadtxt fast path does.
    with mock.patch.object(drivelog.np, "loadtxt", side_effect=ValueError("stub")):
        assert _outcome(parse_drive_log, text) == got


def _loadtxt_raises(*args, **kwargs):
    raise ValueError("stub")


def _loadtxt_drops_last_column(*args, _real=np.loadtxt, **kwargs):
    return _real(*args, **kwargs)[:, :-1]


@pytest.mark.parametrize("loadtxt", [_loadtxt_raises, _loadtxt_drops_last_column])
def test_parse_reads_the_lines_itself_when_loadtxt_falls_short(monkeypatch, loadtxt):
    rng = np.random.default_rng(5)
    lat, acc, steering, brake = rng.normal(0.0, 0.5, (4, 41))
    text = drive_log_to_csv(make_log(n=41, tor_index=17, lat=lat, acc=acc,
                                     steering=steering, brake=brake))
    want = _outcome(parse_drive_log, text)
    assert isinstance(want, list)
    monkeypatch.setattr(drivelog.np, "loadtxt", loadtxt)
    assert _outcome(parse_drive_log, text) == want


@settings(max_examples=300)
@given(text=drive_log_texts(), data=st.data())
def test_parse_rejects_the_line_of_a_lone_cr(text, data):
    """A lone CR beside a comma rejects its line unless an earlier fault wins.

    The row-loop oracle cannot read such a text, so the parse of the same
    text without the CR stands in: it is kept if it names the header or an
    earlier line, and otherwise becomes a SchemaError naming the CR's line.
    """
    lines = text.split("\n")
    commas = [(i, j) for i, line in enumerate(lines) if i for j, c in enumerate(line) if c == ","]
    assume(commas)
    i, j = data.draw(st.sampled_from(commas))
    j += data.draw(st.integers(0, 1))
    lines[i] = lines[i][:j] + "\r" + lines[i][j:]
    got = _outcome(parse_drive_log, "\n".join(lines))
    without = _outcome(parse_drive_log, text)
    earlier = isinstance(without, tuple) and re.match(r"header |line (\d+):", without[1])
    if earlier and int(earlier[1] or 0) < i + 1:
        assert got == without
    else:
        assert got[0] is SchemaError and got[1].startswith(f"line {i + 1}: "), (got, without)


def _reference_render(log):
    """The csv.writer row loop drive_log_to_csv used to run; the oracle."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    tor_index = log.tor_index
    for i in range(log.t.size):
        writer.writerow(
            [
                str(float(log.t[i])),
                str(float(log.lateral_displacement[i])),
                str(float(log.acceleration[i])),
                str(float(log.steering[i])),
                str(float(log.brake[i])),
                1 if i == tor_index else 0,
            ]
        )
    return out.getvalue()


# Both signed zeros, both sides of each switch to exponent form, subnormals
# and the extremes.
RENDER_EDGES = st.sampled_from([
    -0.0, 0.0, 0.0001, 1e-05, -1e-05, 1e15, 1e16, -1e16, 1.5e-07, 5e-324, 1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1 + 0.2,
])
RENDER_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | RENDER_EDGES


# Samples in the longest log the simulator writes, all on the 20 Hz grid.
GRID_CAP = int(MAX_LOG_S * RATE) + 1


def _timestamps(draw, rate):
    """Timestamps at the drawn rate: off the grid ``k / 20`` that simulated
    logs use, on it near either end of the longest simulated log, or one
    extreme value."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["offset", "grid", "lone"]))
    if kind == "offset":
        start = draw(st.integers(-400, 400).map(lambda k: k / rate) | st.floats(-1e4, 1e4))
        return start + np.arange(n) / rate
    if kind == "lone":
        # A signed zero, the smallest subnormal and a value near the float limit.
        return np.array([draw(st.sampled_from([-0.0, 5e-324, 1e308]))])
    # (k0 + i) / rate lies on the grid near t = 0 or near GRID_CAP / 20, the
    # longest log's end; at 50 Hz only every fifth sample lies on it.
    at_cap = int(GRID_CAP * rate / RATE)
    k0 = draw(st.integers(-400, 400) | st.integers(at_cap - 40, at_cap + 40))
    t = (k0 + np.arange(n)) / rate
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        t[i] = np.nextafter(t[i], draw(st.sampled_from([-np.inf, np.inf])))
    return t


@st.composite
def drive_logs(draw):
    """Valid logs of arbitrary finite channel values, TOR on or between samples."""
    rate = draw(st.sampled_from([RATE, 10.0, 50.0]))
    t = _timestamps(draw, rate)
    n = t.size
    tor = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    # Half a period early still marks sample `tor` as the TOR sample.
    early = draw(st.sampled_from([0.0, 0.5 / rate])) if tor > 0 else 0.0
    # Channels draw from one small pool, so values repeat within and across
    # columns, as the simulator's do.
    pool = st.sampled_from(draw(st.lists(RENDER_FLOATS, min_size=1, max_size=10)))
    channels = [draw(st.lists(pool, min_size=n, max_size=n)) for _ in range(4)]
    return DriveLog(
        t=t,
        lateral_displacement=channels[0],
        acceleration=channels[1],
        steering=channels[2],
        brake=channels[3],
        tor_time=float(t[tor]) - early,
        sample_rate=rate,
    )


def _lone(t):
    """A one-sample log at ``t``."""
    return DriveLog(t=[t], lateral_displacement=[0.0], acceleration=[0.0], steering=[0.0],
                    brake=[0.0], tor_time=t)


@settings(max_examples=300)
@given(log=drive_logs())
@example(log=make_log(n=1, tor_index=0))
@example(log=make_log(n=4, tor_index=0, lat=[-0.0, 0.0, 0.0, -0.0], brake=[1e-05] * 4))
@example(log=make_log(n=4, tor_index=3, acc=[0.0, -0.0, 1e16, 5e-324], steering=[-1e308] * 4))
@example(log=make_log(n=3, tor_index=1, lat=[-0.0] * 3, acc=[0.0] * 3, brake=[-0.0, 1.0, -0.0]))
@example(log=_lone(-0.0))
@example(log=_lone(5e-324))
@example(log=_lone(1e308))
def test_render_matches_reference_row_loop_and_round_trips(log):
    text = drive_log_to_csv(log)
    assert text == _reference_render(log)
    parsed = parse_drive_log(text, log.sample_rate)
    for name in CHANNELS:
        assert getattr(parsed, name).tobytes() == getattr(log, name).tobytes()
    assert parsed.tor_time == log.t[log.tor_index]


def test_csv_round_trip():
    rng = np.random.default_rng(7)
    log = make_log(
        n=61,
        tor_index=30,
        lat=rng.normal(0, 1, 61),
        acc=rng.normal(0, 1, 61),
        steering=rng.uniform(0, 1, 61),
        brake=rng.uniform(0, 1, 61),
    )
    parsed = parse_drive_log(drive_log_to_csv(log))
    assert parsed.tor_time == log.tor_time
    for name in ("t", "lateral_displacement", "acceleration", "steering", "brake"):
        assert np.array_equal(getattr(parsed, name), getattr(log, name))


def test_log_arrays_are_frozen():
    log = make_log(n=5, tor_index=2)
    with pytest.raises(ValueError):
        log.steering[0] = 1.0


def test_log_validation():
    t = np.arange(5) / RATE
    with pytest.raises(NonUniformSampling):
        DriveLog(t[::-1], t, t, t, t, tor_time=0.0)
    with pytest.raises(ValueError):
        DriveLog(t, t, t, t, t, tor_time=99.0)
    with pytest.raises(SchemaError):
        DriveLog(t, t[:3], t, t, t, tor_time=0.0)
    with pytest.raises(SchemaError, match="at least one sample"):
        DriveLog([], [], [], [], [], tor_time=0.0)
    with pytest.raises(ValueError, match="sample_rate"):
        DriveLog(t, t, t, t, t, tor_time=0.0, sample_rate=float("nan"))
    t_nan = t.copy()
    t_nan[3] = np.nan
    with pytest.raises(NonUniformSampling):
        DriveLog(t_nan, t, t, t, t, tor_time=0.0)
    for name in CHANNELS[1:]:
        for bad in (np.nan, np.inf, -np.inf):
            channel = t.copy()
            channel[3] = bad
            channels = {n: t for n in CHANNELS} | {name: channel}
            with pytest.raises(SchemaError, match=f"{name} must be finite.* at sample 3"):
                DriveLog(**channels, tor_time=0.0)


# ------------------------------ detect_tot -------------------------------


def scan_tot(log, threshold=0.05):
    """Linear-scan oracle, independent of the vectorized implementation."""
    i0 = None
    for i in range(log.t.size):
        if log.t[i] >= log.tor_time - 1e-9:
            i0 = i
            break
    s0, b0 = log.steering[i0], log.brake[i0]
    for i in range(i0, log.t.size):
        if abs(log.steering[i] - s0) >= threshold or abs(log.brake[i] - b0) >= threshold:
            return float(log.t[i] - log.tor_time)
    return None


def test_detect_tot_step_against_nonzero_baseline():
    steering = np.full(201, 0.10)
    steering[130:] = 0.16  # 1.5 s after the TOR at index 100
    log = make_log(steering=steering)
    tot = detect_tot(log)
    assert tot == pytest.approx(1.5, abs=1e-9)
    assert tot == scan_tot(log)


def test_detect_tot_absent_when_constant():
    assert detect_tot(make_log()) is None


def test_detect_tot_brake_ramp():
    n, tor_index = 101, 20
    t = np.arange(n) / RATE
    brake = np.clip((t - t[tor_index]) / 2.0, 0.0, 1.0)
    log = make_log(n=n, tor_index=tor_index, brake=brake)
    tot = detect_tot(log)
    assert tot == pytest.approx(0.10, abs=1e-9)
    assert tot == scan_tot(log)


def test_detect_tot_matches_scan_oracle_on_random_logs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(10, 120))
        tor_index = int(rng.integers(0, n))
        log = make_log(
            n=n,
            tor_index=tor_index,
            steering=np.clip(rng.normal(0.3, 0.05, n), 0, 1),
            brake=np.clip(rng.normal(0.1, 0.03, n), 0, 1),
        )
        tot = detect_tot(log)
        assert tot == scan_tot(log)
        if tot is not None:
            assert 0.0 <= tot <= log.t[-1] - log.tor_time + 1e-9


def test_detect_tot_is_zero_when_the_tor_lies_just_after_its_sample():
    """A TOR up to 1e-9 s after a sample takes that sample as its own."""
    t = np.arange(201) / RATE
    zeros = np.zeros(201)
    log = DriveLog(t, zeros, zeros, zeros, zeros, tor_time=5.0000000005, sample_rate=RATE)
    assert log.tor_index == 100
    assert detect_tot(log, 0.0) == 0.0


def test_detect_tot_ignores_pre_tor_samples():
    steering = np.zeros(201)
    steering[140:] = 0.5
    log = make_log(steering=steering)
    baseline = detect_tot(log)
    mutated = steering.copy()
    rng = np.random.default_rng(3)
    mutated[:100] = rng.uniform(0, 1, 100)
    assert detect_tot(make_log(steering=mutated)) == baseline


def test_detect_tot_monotone_in_threshold():
    rng = np.random.default_rng(11)
    steering = np.clip(np.cumsum(rng.normal(0, 0.02, 201)) + 0.3, 0, 1)
    log = make_log(steering=steering)
    thresholds = [0.2, 0.1, 0.05, 0.02, 0.01]
    tots = [detect_tot(log, th) for th in thresholds]
    previous = np.inf
    for tot in tots:
        current = np.inf if tot is None else tot
        assert current <= previous
        previous = current


@pytest.mark.parametrize("threshold", [float("nan"), -0.01, 1.5])
def test_detect_tot_rejects_threshold_outside_unit_range(threshold):
    with pytest.raises(ValueError, match="threshold"):
        detect_tot(make_log(), threshold)


# ------------------------ average lateral displacement -------------------


def brute_avg_ld(log, pre, post):
    lo, hi = log.tor_time - pre, log.tor_time + post
    values = [
        abs(log.lateral_displacement[i])
        for i in range(log.t.size)
        if lo - 1e-9 <= log.t[i] <= hi + 1e-9
    ]
    return sum(values) / len(values)


def test_avg_ld_constant():
    log = make_log(lat=np.full(201, 0.5))
    assert avg_lateral_displacement(log, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_avg_ld_alternating_signs_use_absolute_value():
    lat = np.tile([1.0, -1.0], 101)[:201]
    log = make_log(lat=lat)
    assert avg_lateral_displacement(log, 2.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_avg_ld_zero_for_perfect_lane_keeping():
    assert avg_lateral_displacement(make_log(), 2.0, 2.0) == 0.0


def test_avg_ld_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(30, 200))
        tor_index = int(rng.integers(5, n - 5))
        log = make_log(n=n, tor_index=tor_index, lat=rng.normal(0, 2, n))
        pre = float(rng.uniform(0.04, log.tor_time - log.t[0]))
        post = float(rng.uniform(0.04, log.t[-1] - log.tor_time))
        got = avg_lateral_displacement(log, pre, post)
        assert abs(got - brute_avg_ld(log, pre, post)) < 1e-9


def test_avg_ld_window_out_of_range():
    log = make_log()
    with pytest.raises(WindowOutOfRange):
        avg_lateral_displacement(log, 100.0, 1.0)
    with pytest.raises(WindowOutOfRange):
        avg_lateral_displacement(log, 1.0, 100.0)


def test_avg_ld_rejects_non_positive_windows():
    with pytest.raises(ValueError):
        avg_lateral_displacement(make_log(), 0.0, 1.0)
    with pytest.raises(ValueError, match="pre_window"):
        avg_lateral_displacement(make_log(), float("nan"), 1.0)
    with pytest.raises(ValueError, match="post_window"):
        avg_lateral_displacement(make_log(), 1.0, float("nan"))


def test_avg_ld_rejects_an_overflowing_mean():
    log = make_log(lat=np.full(201, -1e308))
    with pytest.raises(ValueError, match=r"over \[4, 6\] s overflows"):
        avg_lateral_displacement(log, 1.0, 1.0)


# --------------------------- max acceleration ----------------------------


def test_max_acc_peak_inside_window():
    acc = np.zeros(201)
    acc[110] = 1.16
    acc[150] = 3.0  # outside the window below
    log = make_log(acc=acc)
    assert max_acceleration(log, log.t[120]) == 1.16


def test_max_acc_singleton_window():
    acc = np.linspace(-1, 1, 201)
    log = make_log(acc=acc)
    assert max_acceleration(log, log.tor_time) == acc[100]


def test_max_acc_all_negative():
    acc = -np.abs(np.linspace(1, 2, 201))
    log = make_log(acc=acc)
    assert max_acceleration(log, log.t[-1]) == np.max(acc[100:])


def test_max_acc_invariant_to_outside_permutation():
    rng = np.random.default_rng(9)
    acc = rng.normal(0, 1, 201)
    log = make_log(acc=acc)
    end = log.t[120]
    reference = max_acceleration(log, end)
    shuffled = acc.copy()
    rng.shuffle(shuffled[:100])
    rng.shuffle(shuffled[121:])
    assert max_acceleration(make_log(acc=shuffled), end) == reference


def test_max_acc_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(10, 150))
        tor_index = int(rng.integers(0, n))
        log = make_log(n=n, tor_index=tor_index, acc=rng.normal(0, 1, n))
        end_index = int(rng.integers(tor_index, n))
        end = float(log.t[end_index])
        brute = max(
            log.acceleration[i]
            for i in range(n)
            if log.tor_time - 1e-9 <= log.t[i] <= end + 1e-9
        )
        assert max_acceleration(log, end) == brute


def test_max_acc_window_out_of_range():
    log = make_log()
    with pytest.raises(WindowOutOfRange):
        max_acceleration(log, log.tor_time - 1.0)
    with pytest.raises(WindowOutOfRange):
        max_acceleration(log, log.t[-1] + 1.0)
    with pytest.raises(WindowOutOfRange):
        max_acceleration(log, float("nan"))


# ------------------------------- summaries -------------------------------


def test_describe_two_points():
    stats = describe([2, 4])
    assert (stats.mean, stats.std, stats.min, stats.max, stats.n) == (3, 1, 2, 4, 2)


def test_describe_single_point_has_zero_std():
    assert describe([5.0]).std == 0.0


def test_describe_empty():
    with pytest.raises(EmptyGroup):
        describe([])


def test_summarize_singleton_groups():
    metrics = [
        TakeoverMetrics(tot=1.0, avg_ld=0.1, max_acc=0.5, takeover_time_abs=6.0),
        TakeoverMetrics(tot=2.0, avg_ld=0.2, max_acc=0.6, takeover_time_abs=7.0),
        TakeoverMetrics(tot=3.0, avg_ld=0.3, max_acc=0.7, takeover_time_abs=8.0),
    ]
    keys = [("S1", "G1", 1), ("S2", "G1", 1), ("S3", "G1", 1)]
    out = summarize(metrics, keys)
    assert set(out) == set(keys)
    for key, metric in zip(keys, metrics):
        assert out[key]["tot"].n == 1
        assert out[key]["tot"].mean == metric.tot


def test_summarize_skips_absent_values():
    metrics = [
        TakeoverMetrics(tot=None, avg_ld=0.1, max_acc=None, takeover_time_abs=None),
        TakeoverMetrics(tot=2.0, avg_ld=0.3, max_acc=0.6, takeover_time_abs=7.0),
    ]
    out = summarize(metrics, ["g", "g"])
    assert out["g"]["tot"].n == 1
    assert out["g"]["avg_ld"].n == 2
    only_absent = summarize([metrics[0]], ["g"])
    assert only_absent["g"]["tot"] is None
    assert summarize(metrics) == {"all": out["g"]}


def test_summarize_validation():
    with pytest.raises(EmptyGroup):
        summarize([], [])
    metric = TakeoverMetrics(tot=1.0, avg_ld=0.1, max_acc=0.5, takeover_time_abs=6.0)
    with pytest.raises(ValueError):
        summarize([metric], ["a", "b"])


def test_extract_metrics_absent_tot_means_absent_max_acc():
    metrics = extract_metrics(make_log(), pre_window=2.0, post_window=2.0)
    assert metrics.tot is None
    assert metrics.max_acc is None
    assert metrics.takeover_time_abs is None
    assert metrics.avg_ld == 0.0


def test_extract_metrics_with_response():
    steering = np.zeros(201)
    steering[120:] = 0.2
    log = make_log(steering=steering)
    metrics = extract_metrics(log, pre_window=2.0, post_window=2.0)
    assert metrics.tot == pytest.approx(1.0, abs=1e-9)
    assert metrics.takeover_time_abs == pytest.approx(log.tor_time + 1.0, abs=1e-9)
    assert metrics.max_acc == 0.0
