"""Drive-log ingestion and objective takeover performance measures.

Logs are fixed-rate traces (default 20 Hz) of lateral displacement,
longitudinal acceleration, and normalized steering/brake inputs, with a
marker at the takeover-request (TOR) instant.  The measures extracted
here:

* takeover time (TOT): seconds from the TOR to the first sample where
  steering or brake input moved at least 5 % of full range away from its
  value at the TOR.  The baseline is the value *at* the TOR, not zero,
  because drivers may hold nonzero steering in curves.
* average lateral displacement: mean absolute offset from the lane center
  over a window straddling the TOR.  Absolute values, so left and right
  excursions cannot cancel.
* maximum acceleration between the TOR and the takeover instant.

Questionnaire-derived measures (situation awareness, workload) are out of
scope; they cannot be extracted from a vehicle log.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .defaults import (_T_EPS, CSV_HEADER, POST_WINDOW_S, PRE_WINDOW_S, SAMPLE_RATE_HZ,
                       TOT_THRESHOLD)
from .errors import (
    EmptyGroup,
    MissingTorMarker,
    MultipleTorMarkers,
    NonUniformSampling,
    SchemaError,
    WindowOutOfRange,
    check_range,
    check_type,
    located,
    shown,
)
from .stats import SummaryStats, describe

#: The CSV's value columns in file order, each with the DriveLog field it
#: fills; a tor_flag column follows them.
_CHANNELS = dict(zip(CSV_HEADER, ("t", "lateral_displacement", "acceleration", "steering",
                                  "brake")))


@dataclass(frozen=True)
class DriveLog:
    """Validated fixed-rate drive trace.

    Arrays are copied and frozen on construction; all values must be
    finite, timestamps must strictly increase and stay within 1e-6 s of the
    declared sample period, and the TOR instant must lie within the log
    extent.
    """

    t: np.ndarray  # [s]
    lateral_displacement: np.ndarray  # [m], signed offset from lane center
    acceleration: np.ndarray  # [m/s^2]
    steering: np.ndarray  # normalized [0, 1] of full range
    brake: np.ndarray  # normalized [0, 1]
    tor_time: float  # [s]
    sample_rate: float = SAMPLE_RATE_HZ  # [Hz]

    def __post_init__(self) -> None:
        arrays = {}
        for name in _CHANNELS.values():
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        n = arrays["t"].size
        if n == 0:
            raise SchemaError("log must contain at least one sample")
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise SchemaError(f"channel {name} must match the timestamp length")
            if not np.isfinite(arr).all():
                i = int(np.flatnonzero(~np.isfinite(arr))[0])
                error = NonUniformSampling if name == "t" else SchemaError
                raise error(f"channel {name} must be finite, got {arr[i]} at sample {i}")
        check_range("sample_rate", self.sample_rate, 0, above=True)
        # Far-apart finite timestamps overflow to inf, rejected below as off-period.
        with np.errstate(over="ignore"):
            dt = np.diff(arrays["t"])
        if not np.all(dt > 0):
            raise NonUniformSampling("timestamps must strictly increase")
        period = 1.0 / self.sample_rate
        if dt.size and float(np.max(np.abs(dt - period))) > 1e-6:
            raise NonUniformSampling(
                f"timestamps deviate from the {self.sample_rate:g} Hz period by "
                "more than 1e-6 s"
            )
        # The log readers and the simulator pass a plain float, which skips the type rule.
        if type(self.tor_time) is not float:
            check_type("tor_time", self.tor_time, Real, "a number")
        # Python floats compare exactly with an int too large for a float.
        t0, t1 = float(arrays["t"][0]), float(arrays["t"][-1])
        if not t0 - _T_EPS <= self.tor_time <= t1 + _T_EPS:
            raise SchemaError(
                f"tor_time must lie within the log extent [{t0:g}, {t1:g}] s, "
                f"got {shown(self.tor_time)}"
            )

    @property
    def tor_index(self) -> int:
        """Index of the first sample at or after the TOR instant."""
        return int(np.searchsorted(self.t, self.tor_time - _T_EPS))


def parse_drive_log(data: bytes | str, sample_rate: float = SAMPLE_RATE_HZ) -> DriveLog:
    """Parse and validate a drive-log CSV.

    Expects the UTF-8 header ``t,lat_disp,acc,steering,brake,tor_flag``,
    unquoted ASCII decimal or exponent numbers (``-0.5``, ``2.5e-3``) with
    ``.`` as decimal separator, no ``_`` and optional whitespace around
    them, LF or CRLF line ends with a CR only at a line end, and exactly
    one row flagged as the TOR instant.  Blank lines are skipped.  The
    schema carries no sample rate, so the expected rate is a parameter and
    timestamps are validated against it.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 ({exc})") from None
    if not text:
        raise SchemaError("empty file; header row is mandatory")
    lines = text.replace("\r\n", "\n").split("\n")
    if tuple(h.strip() for h in lines[0].split(",")) != CSV_HEADER:
        raise SchemaError(f"header must be {','.join(CSV_HEADER)}, got {lines[0]!r}")
    if "\r" in lines[0][:-1]:
        raise SchemaError("line 1: CR before the end of the line")
    values = _loadtxt_rows(lines[1:])
    if values is None:
        values = _read_lines(lines)
    marked = np.flatnonzero(values[:, -1] == 1.0)
    if marked.size == 0:
        raise MissingTorMarker("no row carries tor_flag=1")
    if marked.size > 1:
        raise MultipleTorMarkers(f"{marked.size} rows carry tor_flag=1")
    return DriveLog(
        **dict(zip(_CHANNELS.values(), values.T)),
        tor_time=float(values[marked[0], 0]),
        sample_rate=sample_rate,
    )


def _loadtxt_rows(body: list[str]) -> np.ndarray | None:
    """The data rows as ``np.loadtxt`` reads them, or None if it falls short.

    None when the body has no data line or a line holding only a CR (which
    loadtxt would warn on, or skip as blank), when loadtxt raises, and when
    it returns a field count or a flag the schema forbids: a wrong field
    count on every row alike gets through it.
    """
    if not any(body) or "\r" in body:
        return None
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    flags = values[:, -1]
    if values.shape[1] != len(CSV_HEADER) or not np.all((flags == 0.0) | (flags == 1.0)):
        return None
    return values


def _read_lines(lines: list[str]) -> np.ndarray:
    """The data rows, read one line at a time: the rule every body is held to.

    Reads every body that ``np.loadtxt`` does not cleanly accept.  Raises
    the SchemaError of the first malformed line in file order, whatever the
    kind of fault, or ``no data rows`` when no line holds data.
    """
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        with located(f"line {lineno}"):
            fields = line.split(",")
            if len(fields) != len(CSV_HEADER):
                raise SchemaError(f"expected {len(CSV_HEADER)} fields")
            values = [_field_value(field) for field in fields]
            if values[-1] not in (0.0, 1.0):
                raise SchemaError("tor_flag must be 0 or 1")
            if "\r" in line[:-1]:
                raise SchemaError("CR before the end of the line")
        rows.append(values)
    if not rows:
        raise SchemaError("no data rows")
    return np.array(rows)


def _field_value(field: str) -> float:
    """One field as ``np.loadtxt`` reads it: stripped, ASCII, no ``_``."""
    s = field.strip()
    if "_" in s:
        raise SchemaError(f"field {field!r} holds a '_' digit separator")
    if not s.isascii():
        raise SchemaError(f"field {field!r} holds a non-ASCII character")
    try:
        return float(s)
    except ValueError:
        raise SchemaError(f"could not convert string to float: {field!r}") from None


def drive_log_to_csv(log: DriveLog) -> str:
    """Render a log back to the CSV schema.

    Floats are written as their shortest repr, so the text parses back to
    bit-identical arrays, ``-0.0`` included; fields are unquoted and lines
    end in LF.
    """
    flags = ["0"] * log.t.size
    flags[log.tor_index] = "1"
    columns = [map(repr, getattr(log, name).tolist()) for name in _CHANNELS.values()]
    return "".join(",".join(row) + "\n" for row in (CSV_HEADER, *zip(*columns, flags)))


def detect_tot(log: DriveLog, threshold: float = TOT_THRESHOLD) -> float | None:
    """Takeover time [s], or None if the driver never responded.

    Scans forward from the TOR for the earliest sample where steering or
    brake differs from its value at the TOR by at least ``threshold``
    (a fraction of full input range).  The first scanned sample may lie up
    to ``_T_EPS`` before the TOR; it counts as the TOR, so the result is
    never negative.
    """
    check_range("threshold", threshold, 0, 1)
    i0 = log.tor_index
    steering = log.steering[i0:]
    brake = log.brake[i0:]
    # A difference beyond the float range overflows to inf, which counts as moved.
    with np.errstate(over="ignore"):
        moved = (np.abs(steering - steering[0]) >= threshold) | (
            np.abs(brake - brake[0]) >= threshold
        )
    hits = np.flatnonzero(moved)
    if hits.size == 0:
        return None
    return max(0.0, float(log.t[i0 + hits[0]] - log.tor_time))


def _window(log: DriveLog, lo: float, hi: float) -> slice:
    """The samples in ``[lo, hi]`` [s], ends inclusive.

    Raises :class:`WindowOutOfRange` unless ``lo <= hi`` and both ends lie
    inside the log, each comparison within ``_T_EPS``; NaN fails them all.
    """
    start, stop = lo - _T_EPS, hi + _T_EPS
    if not (log.t[0] - _T_EPS <= lo and start <= hi and hi <= log.t[-1] + _T_EPS):
        raise WindowOutOfRange(
            f"window [{lo:g}, {hi:g}] s must be ordered and lie inside the log "
            f"[{log.t[0]:g}, {log.t[-1]:g}] s"
        )
    return slice(int(np.searchsorted(log.t, start)),
                 int(np.searchsorted(log.t, stop, side="right")))


def avg_lateral_displacement(
    log: DriveLog, pre_window: float, post_window: float
) -> float:
    """Mean absolute lane-center offset [m] over [TOR-pre, TOR+post].

    Both window ends are inclusive and must lie inside the log extent.
    """
    check_range("pre_window", pre_window, 0, above=True)
    check_range("post_window", post_window, 0, above=True)
    lo = log.tor_time - pre_window
    hi = log.tor_time + post_window
    window = _window(log, lo, hi)
    # Finite offsets near the float limit can still overflow the sum.
    with np.errstate(over="ignore"):
        avg = float(np.mean(np.abs(log.lateral_displacement[window])))
    if not math.isfinite(avg):
        raise SchemaError(
            f"mean absolute lateral displacement over [{lo:g}, {hi:g}] s overflows"
        )
    return avg


def max_acceleration(log: DriveLog, takeover_time_abs: float) -> float:
    """Maximum acceleration [m/s^2] over [TOR, takeover], ends inclusive."""
    return float(np.max(log.acceleration[_window(log, log.tor_time, takeover_time_abs)]))


@dataclass(frozen=True)
class TakeoverMetrics:
    """Per-takeover objective measures; None marks an absent value.

    When no takeover is detected there is no window end for the maximum
    acceleration, so it is reported absent rather than scanned to log end.
    """

    tot: float | None  # [s]
    avg_ld: float  # [m]
    max_acc: float | None  # [m/s^2]
    takeover_time_abs: float | None  # [s]


def extract_metrics(
    log: DriveLog,
    pre_window: float = PRE_WINDOW_S,
    post_window: float = POST_WINDOW_S,
    threshold: float = TOT_THRESHOLD,
) -> TakeoverMetrics:
    """All measures for one log in a single pass."""
    tot = detect_tot(log, threshold)
    if tot is None:
        takeover_abs = None
        max_acc = None
    else:
        takeover_abs = log.tor_time + tot
        max_acc = max_acceleration(log, takeover_abs)
    return TakeoverMetrics(
        tot=tot,
        avg_ld=avg_lateral_displacement(log, pre_window, post_window),
        max_acc=max_acc,
        takeover_time_abs=takeover_abs,
    )


#: TakeoverMetrics fields summarize() aggregates.
METRIC_FIELDS = ("tot", "avg_ld", "max_acc")


def summarize(
    metrics: Sequence[TakeoverMetrics], group_keys: Sequence[Hashable] | None = None
) -> dict[Hashable, dict[str, SummaryStats | None]]:
    """Descriptive statistics of each metric field per group key.

    ``group_keys`` is parallel to ``metrics``; None puts everything in a
    single group keyed ``"all"``.  Absent values are skipped per field;
    a field with no present values in a group reports None.
    """
    if not metrics:
        raise EmptyGroup("no metrics to summarize")
    if group_keys is None:
        group_keys = ["all"] * len(metrics)
    if len(group_keys) != len(metrics):
        raise SchemaError("group_keys must be parallel to metrics")
    grouped: dict[Hashable, list[TakeoverMetrics]] = {}
    for key, metric in zip(group_keys, metrics):
        grouped.setdefault(key, []).append(metric)
    out: dict[Hashable, dict[str, SummaryStats | None]] = {}
    for key, members in grouped.items():
        fields: dict[str, SummaryStats | None] = {}
        for field in METRIC_FIELDS:
            present = [getattr(m, field) for m in members if getattr(m, field) is not None]
            with located(field):
                fields[field] = describe(present) if present else None
        out[key] = fields
    return out
