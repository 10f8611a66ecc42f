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
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

import numpy as np

from .errors import (
    EmptyGroup,
    MissingTorMarker,
    MultipleTorMarkers,
    NonUniformSampling,
    SchemaError,
    WindowOutOfRange,
    check_range,
)

CSV_HEADER = ("t", "lat_disp", "acc", "steering", "brake", "tor_flag")

# Slack for float comparisons on sample timestamps (the sample period is
# 0.05 s at 20 Hz, so 1e-9 can never move a boundary across a sample).
_T_EPS = 1e-9


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
    sample_rate: float = 20.0  # [Hz]

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("t", "lateral_displacement", "acceleration", "steering", "brake"):
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
        t0, t1 = arrays["t"][0], arrays["t"][-1]
        if not t0 - _T_EPS <= self.tor_time <= t1 + _T_EPS:
            raise ValueError(
                f"tor_time must lie within the log extent [{t0:g}, {t1:g}] s, "
                f"got {self.tor_time}"
            )

    @property
    def tor_index(self) -> int:
        """Index of the first sample at or after the TOR instant."""
        return int(np.searchsorted(self.t, self.tor_time - _T_EPS))


def parse_drive_log(data: bytes | str, sample_rate: float = 20.0) -> DriveLog:
    """Parse and validate a drive-log CSV.

    Expects the UTF-8 header ``t,lat_disp,acc,steering,brake,tor_flag``
    with ``.`` as decimal separator, unquoted fields, LF or CRLF line
    ends, and exactly one row flagged as the TOR instant.  Blank lines are
    skipped.  The schema carries no sample rate, so the expected rate is a
    parameter and timestamps are validated against it.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not valid UTF-8 ({exc})") from None
    if not text:
        raise SchemaError("empty file; header row is mandatory")
    lines = text.replace("\r\n", "\n").split("\n")
    if tuple(h.strip() for h in lines[0].split(",")) != CSV_HEADER:
        raise SchemaError(f"header must be {','.join(CSV_HEADER)}, got {lines[0]}")
    rows = [line.split(",") for line in lines[1:] if line]
    if not rows:
        raise SchemaError("no data rows")
    # Every row must have the full field count before the flat values can
    # be reshaped: a short row next to a long one would shift columns.
    if set(map(len, rows)) != {len(CSV_HEADER)}:
        _raise_first_bad_line(lines)
    try:
        values = np.fromiter(
            map(float, chain.from_iterable(rows)), float, len(rows) * len(CSV_HEADER)
        )
    except ValueError:
        _raise_first_bad_line(lines)
    t, lat, acc, steering, brake, flags = values.reshape(-1, len(CSV_HEADER)).T
    if not np.all((flags == 0.0) | (flags == 1.0)):
        _raise_first_bad_line(lines)
    marked = np.flatnonzero(flags == 1.0)
    if marked.size == 0:
        raise MissingTorMarker("no row carries tor_flag=1")
    if marked.size > 1:
        raise MultipleTorMarkers(f"{marked.size} rows carry tor_flag=1")
    return DriveLog(
        t=t,
        lateral_displacement=lat,
        acceleration=acc,
        steering=steering,
        brake=brake,
        tor_time=float(t[marked[0]]),
        sample_rate=sample_rate,
    )


def _raise_first_bad_line(lines: list[str]) -> NoReturn:
    """Raise the SchemaError of the first malformed data line.

    Only called once the bulk conversion has found that some line is
    malformed; walks the lines in order so the reported line is the first
    one, whatever the kind of fault.
    """
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(CSV_HEADER):
            raise SchemaError(f"line {lineno}: expected {len(CSV_HEADER)} fields")
        try:
            values = [float(field) for field in fields]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if values[-1] not in (0.0, 1.0):
            raise SchemaError(f"line {lineno}: tor_flag must be 0 or 1")


def drive_log_to_csv(log: DriveLog) -> str:
    """Render a log back to the CSV schema.

    Floats are written as their shortest repr, so the text parses back to
    bit-identical arrays; fields are unquoted and lines end in LF.  Each
    distinct bit pattern across the five channels is rendered once and its
    text reused wherever it occurs.  Reprs are keyed by bits, never by
    value: ``-0.0 == 0.0`` would write one as the other.
    """
    channels = (log.t, log.lateral_displacement, log.acceleration, log.steering, log.brake)
    n = log.t.size
    bits, inverse = np.unique(np.concatenate(channels).view(np.uint64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    table = np.empty((n, len(CSV_HEADER)), dtype=object)
    table[:, :-1] = reprs[inverse].reshape(len(channels), n).T
    table[:, -1] = "0"
    table[log.tor_index, -1] = "1"
    body = "\n".join(map(",".join, table.tolist()))
    return ",".join(CSV_HEADER) + "\n" + body + "\n"


def detect_tot(log: DriveLog, threshold: float = 0.05) -> float | None:
    """Takeover time [s], or None if the driver never responded.

    Scans forward from the TOR for the earliest sample where steering or
    brake differs from its value at the TOR by at least ``threshold``
    (a fraction of full input range).
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
    return float(log.t[i0 + hits[0]] - log.tor_time)


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
        raise ValueError(
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
    pre_window: float = 5.0,
    post_window: float = 5.0,
    threshold: float = 0.05,
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


@dataclass(frozen=True)
class SummaryStats:
    """Population descriptive statistics."""

    mean: float
    std: float  # population standard deviation
    min: float
    max: float
    n: int


def describe(values: Iterable[float]) -> SummaryStats:
    """Population mean/std/min/max over a non-empty collection."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise EmptyGroup("cannot describe an empty collection")
    return SummaryStats(
        mean=float(np.mean(arr)),
        std=float(np.std(arr)),
        min=float(np.min(arr)),
        max=float(np.max(arr)),
        n=int(arr.size),
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
        raise ValueError("group_keys must be parallel to metrics")
    grouped: dict[Hashable, list[TakeoverMetrics]] = {}
    for key, metric in zip(group_keys, metrics):
        grouped.setdefault(key, []).append(metric)
    out: dict[Hashable, dict[str, SummaryStats | None]] = {}
    for key, members in grouped.items():
        fields: dict[str, SummaryStats | None] = {}
        for field in METRIC_FIELDS:
            present = [getattr(m, field) for m in members if getattr(m, field) is not None]
            fields[field] = describe(present) if present else None
        out[key] = fields
    return out
