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
from bisect import bisect_left, bisect_right
from collections.abc import Hashable, Sequence
from numbers import Real
from operator import sub

from .defaults import (_T_EPS, CSV_HEADER, POST_WINDOW_S, PRE_WINDOW_S, SAMPLE_RATE_HZ,
                       TOT_THRESHOLD)
from .errors import (EmptyGroup, MissingTorMarker, MultipleTorMarkers, NonUniformSampling,
                     SchemaError, WindowOutOfRange, check_range, check_type, located, shown,
                     to_float)
from .records import record
from .stats import SummaryStats, _mean, describe

#: The CSV's value columns in file order, each with the DriveLog field it
#: fills; a tor_flag column follows them.
_CHANNELS = dict(zip(CSV_HEADER, ("t", "lateral_displacement", "acceleration", "steering",
                                  "brake")))
#: Fields per CSV row, the tor_flag included.
_WIDTH = len(CSV_HEADER)


class _Floats(tuple):
    """A channel of floats from a log reader, which DriveLog need not convert again."""


@record
class DriveLog:
    """Validated fixed-rate drive trace.

    Each channel is converted to a tuple of floats on construction; all
    values must be finite numbers, not str or bool, timestamps must strictly
    increase and stay within 1e-6 s of the declared sample period, and the
    TOR instant must lie within the log extent.
    """

    t: tuple[float, ...]  # [s]
    lateral_displacement: tuple[float, ...]  # [m], signed offset from lane center
    acceleration: tuple[float, ...]  # [m/s^2]
    steering: tuple[float, ...]  # normalized [0, 1] of full range
    brake: tuple[float, ...]  # normalized [0, 1]
    tor_time: float  # [s]
    sample_rate: float = SAMPLE_RATE_HZ  # [Hz]

    def __post_init__(self) -> None:
        for name in _CHANNELS.values():
            values = getattr(self, name)
            if type(values) is not _Floats:
                with located(f"channel {name}"):
                    values = [v if type(v) is float else to_float("value", v) for v in values]
            object.__setattr__(self, name, tuple(values))
        t = self.t
        n = len(t)
        if n == 0:
            raise SchemaError("log must contain at least one sample")
        for name in _CHANNELS.values():
            values = getattr(self, name)
            if len(values) != n:
                raise SchemaError(f"channel {name} must match the timestamp length")
            # An inf or a NaN makes the sum non-finite; so can finite values that overflow it.
            if not math.isfinite(sum(values)):
                for i, value in enumerate(values):
                    if not math.isfinite(value):
                        error = NonUniformSampling if name == "t" else SchemaError
                        raise error(f"channel {name} must be finite, got {value} at sample {i}")
        check_range("sample_rate", self.sample_rate, 0, above=True)
        period = 1.0 / self.sample_rate
        # Far-apart finite timestamps overflow to inf, rejected below as off-period.
        dt = list(map(sub, t[1:], t)) or [period]  # a lone sample has no step
        shortest, longest = min(dt), max(dt)
        if not shortest > 0:
            raise NonUniformSampling("timestamps must strictly increase")
        # Subtraction is monotone, so these bound |dt - period| over every step.
        if max(longest - period, period - shortest) > 1e-6:
            raise NonUniformSampling(
                f"timestamps deviate from the {self.sample_rate:g} Hz period by more than 1e-6 s")
        # The log readers and the simulator pass a plain float, which skips the type rule.
        if type(self.tor_time) is not float:
            check_type("tor_time", self.tor_time, Real, "a number")
        # Python floats compare exactly with an int too large for a float.
        if not t[0] - _T_EPS <= self.tor_time <= t[-1] + _T_EPS:
            raise SchemaError(
                f"tor_time must lie within the log extent [{t[0]:g}, {t[-1]:g}] s, "
                f"got {shown(self.tor_time)}"
            )

    @property
    def tor_index(self) -> int:
        """Index of the first sample at or after the TOR instant."""
        return bisect_left(self.t, self.tor_time - _T_EPS)


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
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    header, _, body = text.partition("\n")
    if tuple(h.strip() for h in header.split(",")) != CSV_HEADER:
        raise SchemaError(f"header must be {','.join(CSV_HEADER)}, got {header!r}")
    if "\r" in header[:-1]:
        raise SchemaError("line 1: CR before the end of the line")
    columns, flags = _bulk_rows(body) or _read_lines(body.split("\n"))
    marked = flags.count("1")
    if marked == 0:
        raise MissingTorMarker("no row carries tor_flag=1")
    if marked > 1:
        raise MultipleTorMarkers(f"{marked} rows carry tor_flag=1")
    return DriveLog(*columns, tor_time=columns[0][flags.index("1")], sample_rate=sample_rate)


def _bulk_rows(body: str) -> tuple[list[_Floats], list[str]] | None:
    """The value columns and flag texts of a plain body, or None to decline it.

    Takes only ASCII bodies without ``_``, CR or blank lines, split at every
    comma and row break at once.  A row break becomes a field of its own,
    so rows of six fields put one at every seventh place; no value converts
    from a row break and no flag is one, so no other field holds one.
    Declines a body whose fields do not fall so, a flag that is not the
    text ``0`` or ``1`` and a value ``float`` refuses, such as one padded
    with a control character.  :func:`_read_lines` reads what it declines.
    """
    if (not body.isascii() or "_" in body or "\r" in body or "\n\n" in body
            or body.startswith("\n")):
        return None
    fields = body.replace("\n", ",\n,").split(",")
    if body.endswith("\n"):
        del fields[-2:]  # the last row break and the empty field after it
    stride = _WIDTH + 1  # a row's fields and the break after it
    rows, extra = divmod(len(fields) + 1, stride)
    if extra or fields[_WIDTH::stride].count("\n") != rows - 1:
        return None
    flags = fields[_WIDTH - 1::stride]
    if flags.count("0") + flags.count("1") != rows:
        return None
    try:
        columns = [_Floats(map(float, fields[k::stride])) for k in range(_WIDTH - 1)]
    except ValueError:
        return None
    return columns, flags


def _read_lines(lines: list[str]) -> tuple[list[_Floats], list[str]]:
    """The value columns and flag texts of the body ``lines``, read one line
    at a time: the rule every body is held to.

    Reads every body that :func:`_bulk_rows` declines.  Raises the
    SchemaError of the first malformed line in file order, whatever the
    kind of fault, or ``no data rows`` when no line holds data.
    """
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        with located(f"line {lineno}"):
            fields = line.split(",")
            if len(fields) != _WIDTH:
                raise SchemaError(f"expected {_WIDTH} fields")
            values = [_field_value(field) for field in fields]
            if values[-1] not in (0.0, 1.0):
                raise SchemaError("tor_flag must be 0 or 1")
            if "\r" in line[:-1]:
                raise SchemaError("CR before the end of the line")
        values[-1] = "1" if values[-1] else "0"
        rows.append(values)
    if not rows:
        raise SchemaError("no data rows")
    *columns, flags = zip(*rows)
    return list(map(_Floats, columns)), list(flags)


def _field_value(field: str) -> float:
    """One field as ``float`` reads it once stripped: ASCII, no ``_``."""
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
    bit-identical columns, ``-0.0`` included; fields are unquoted and lines
    end in LF.
    """
    flags = ["0"] * len(log.t)
    flags[log.tor_index] = "1"
    columns = [map(repr, getattr(log, name)) for name in _CHANNELS.values()]
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
    steering0, brake0 = log.steering[i0], log.brake[i0]
    # A difference beyond the float range overflows to inf, which counts as moved.
    for t, steering, brake in zip(log.t[i0:], log.steering[i0:], log.brake[i0:]):
        if abs(steering - steering0) >= threshold or abs(brake - brake0) >= threshold:
            return max(0.0, t - log.tor_time)
    return None


def _window(log: DriveLog, lo: float, hi: float) -> slice:
    """The samples in ``[lo, hi]`` [s], ends inclusive.

    Raises :class:`WindowOutOfRange` unless ``lo <= hi``, both ends lie
    inside the log, each comparison within ``_T_EPS`` (NaN fails them all),
    and a sample lies between them.
    """
    start, stop = lo - _T_EPS, hi + _T_EPS
    t = log.t
    if not (t[0] - _T_EPS <= lo and start <= hi and hi <= t[-1] + _T_EPS):
        raise WindowOutOfRange(
            f"window [{lo:g}, {hi:g}] s must be ordered and lie inside the log "
            f"[{t[0]:g}, {t[-1]:g}] s"
        )
    window = slice(bisect_left(t, start), bisect_right(t, stop))
    if window.start == window.stop:
        raise WindowOutOfRange(f"window [{lo:g}, {hi:g}] s holds no sample")
    return window


def avg_lateral_displacement(log: DriveLog, pre_window: float, post_window: float) -> float:
    """Mean absolute lane-center offset [m] over [TOR-pre, TOR+post].

    Both window ends are inclusive and must lie inside the log extent.  The
    mean is summed in the order :func:`tortb.stats.describe` sums in.
    """
    check_range("pre_window", pre_window, 0, above=True)
    check_range("post_window", post_window, 0, above=True)
    lo, hi = log.tor_time - pre_window, log.tor_time + post_window
    avg = _mean(list(map(abs, log.lateral_displacement[_window(log, lo, hi)])))
    # Finite offsets near the float limit can still overflow the sum.
    if not math.isfinite(avg):
        raise SchemaError(f"mean absolute lateral displacement over [{lo:g}, {hi:g}] s overflows")
    return avg


def max_acceleration(log: DriveLog, takeover_time_abs: float) -> float:
    """Maximum acceleration [m/s^2] over [TOR, takeover], ends inclusive.

    Of equal values the first is kept, so a window of ``0.0, -0.0`` gives ``0.0``.
    """
    return max(log.acceleration[_window(log, log.tor_time, takeover_time_abs)])


@record
class TakeoverMetrics:
    """Per-takeover objective measures; None marks an absent value.

    When no takeover is detected there is no window end for the maximum
    acceleration, so it is reported absent rather than scanned to log end.
    """

    tot: float | None  # [s]
    avg_ld: float  # [m]
    max_acc: float | None  # [m/s^2]
    takeover_time_abs: float | None  # [s]


def extract_metrics(log: DriveLog, pre_window: float = PRE_WINDOW_S,
                    post_window: float = POST_WINDOW_S,
                    threshold: float = TOT_THRESHOLD) -> TakeoverMetrics:
    """All measures for one log in a single pass."""
    tot = detect_tot(log, threshold)
    takeover_abs = None if tot is None else log.tor_time + tot
    max_acc = None if takeover_abs is None else max_acceleration(log, takeover_abs)
    avg_ld = avg_lateral_displacement(log, pre_window, post_window)
    return TakeoverMetrics(tot=tot, avg_ld=avg_ld, max_acc=max_acc, takeover_time_abs=takeover_abs)


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
