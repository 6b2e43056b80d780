"""Failure-history ingestion, validation, and time-unit conversion.

Two on-disk formats are understood:

* ``cumulative_csv`` with header ``time,cumulative_failures`` and one
  measurement per row, and
* ``tbf_csv`` with header ``tbf`` and one positive time-between-failures
  value per row (cumulated on ingestion, counts become 1, 2, 3, ...).

Times are 64-bit floats, cumulative failure counts are integers.
Datasets and conversion profiles are immutable after construction and can
be shared freely between concurrent readers.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DataFormatError

__all__ = [
    "FailureDataset",
    "TimeConversionProfile",
    "TimeUnit",
    "convert_time",
    "parse_dataset",
    "rescale_dataset",
    "to_cumulative_csv",
]

DATASET_FORMATS = ("cumulative_csv", "tbf_csv")

# The smallest integer count that no longer fits the int64 counts of a
# FailureDataset.
_COUNT_LIMIT = 2**63


class TimeUnit(Enum):
    """Supported time axes for failure histories."""

    INCIDENT = "incident"
    TEST_CASE = "test_case"
    IN_SERVICE_HOUR = "in_service_hour"
    CALENDAR_DAY = "calendar_day"


@dataclass(frozen=True)
class FailureDataset:
    """An ordered failure history: cumulative failure count against time.

    Times are strictly increasing and strictly positive (time zero with
    zero failures is implicit) and counts never decrease.  At least one
    point is required; fitting operations additionally need two usable
    points, which they check themselves.

    ``times`` (float) and ``counts`` (int64) hold the points as read-only
    arrays over immutable ``bytes``, which no caller can make writable.
    """

    points: tuple[tuple[float, int], ...]
    label: str = ""
    native_unit: TimeUnit = TimeUnit.INCIDENT
    times: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        normalized = []
        for point in self.points:
            t, c = point
            t = float(t)
            # An integer is checked and kept exact: its float loses digits
            # above 2**53 and rounds 2**63 - 1 up to 2**63.
            if not isinstance(c, (int, np.integer)):
                try:
                    c_float = float(c)
                except OverflowError:
                    raise ValueError("cumulative failure counts must fit in 64 bits") from None
                if not c_float.is_integer():
                    raise ValueError(f"cumulative failure counts must be integers, got {c!r}")
                c = c_float
            c = int(c)
            if abs(c) >= _COUNT_LIMIT:
                raise ValueError("cumulative failure counts must fit in 64 bits")
            normalized.append((t, c))
        if not normalized:
            raise ValueError("a failure history needs at least one point")
        object.__setattr__(self, "points", tuple(normalized))
        object.__setattr__(self, "native_unit", TimeUnit(self.native_unit))

        times = np.array([p[0] for p in self.points], dtype=float)
        counts = np.array([p[1] for p in self.points], dtype=np.int64)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if times[0] <= 0:
            raise ValueError(
                "first time must be positive (time 0 carries zero failures implicitly)"
            )
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("cumulative failure counts must be non-negative")
        if np.any(np.diff(counts) < 0):
            raise ValueError("cumulative failure counts must not decrease")
        object.__setattr__(self, "times", _frozen(times))
        object.__setattr__(self, "counts", _frozen(counts))

    def __len__(self) -> int:
        return len(self.points)

    def prefix(self, n: int) -> "FailureDataset":
        """The first ``n`` points as a history of their own, equal to
        ``FailureDataset(self.points[:n], self.label, self.native_unit)``.

        A prefix of a valid history is valid, so nothing is checked again:
        the prefix slices this history's points tuple, and its ``times``
        and ``counts`` are read-only views of this history's arrays, as are
        its usable points (:meth:`_usable_points`), so every model fitted
        to any prefix shares one pass of ``ln`` over the counts.  Raises
        ``ValueError`` unless ``n`` is an integer from 1 to ``len(self)``.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"a prefix length must be an integer, got {n!r}")
        if not 1 <= n <= len(self.points):
            raise ValueError(f"a prefix length must lie in 1..{len(self.points)}, got {n}")
        n = int(n)
        sub = _checked_history(
            self.points[:n], self.label, self.native_unit, self.times[:n], self.counts[:n]
        )
        times, log_counts, skipped = self._usable_points()
        used = max(n - skipped, 0)
        sub.__dict__["_usable"] = (times[:used], log_counts[:used], min(n, skipped))
        return sub

    def _usable_points(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Times and ``ln`` counts of the points with at least one failure,
        as read-only arrays, and how many points come before them.

        Counts never decrease, so the points without a failure lead the
        history, and the usable points of a prefix are a prefix of the
        history's usable points: :meth:`prefix` slices them from its
        history's, which gives the floats built afresh (``ln`` is
        elementwise).  They are built once per history and cached in its
        ``__dict__``; a racing writer can only replace them with equal
        arrays."""
        usable = self.__dict__.get("_usable")
        if usable is None:
            skipped = int(np.searchsorted(self.counts, 1))
            log_counts = np.log(self.counts[skipped:].astype(float))
            log_counts.setflags(write=False)
            usable = self.__dict__["_usable"] = (self.times[skipped:], log_counts, skipped)
        return usable

    @property
    def final_time(self) -> float:
        """Time of the last measurement (the end of the observation window)."""
        return self.points[-1][0]

    @property
    def final_count(self) -> int:
        """Total failures observed by the end of the window."""
        return self.points[-1][1]

    def count_at(self, t: float) -> int:
        """Cumulative failure count at time ``t`` (step lookup, 0 before the
        first measurement)."""
        idx = int(np.searchsorted(self.times, t, side="right"))
        return 0 if idx == 0 else int(self.counts[idx - 1])

    def failure_times(self) -> np.ndarray:
        """Per-failure occurrence times, linearly interpolated between
        measurements.

        For histories ingested from ``tbf_csv`` (one count per point) this
        reproduces the recorded failure times exactly; for coarser
        cumulative histories the k-th failure is placed proportionally
        inside the measurement interval in which the count passes k.
        """
        q = self.final_count
        if q == 0:
            return np.empty(0, dtype=float)
        ks = np.arange(1, q + 1)
        idx = np.searchsorted(self.counts, ks, side="left")
        t_hi = self.times[idx]
        c_hi = self.counts[idx].astype(float)
        t_lo = np.where(idx > 0, self.times[np.maximum(idx - 1, 0)], 0.0)
        c_lo = np.where(idx > 0, self.counts[np.maximum(idx - 1, 0)], 0).astype(float)
        return t_lo + (ks - c_lo) / (c_hi - c_lo) * (t_hi - t_lo)

    def time_between_failures(self) -> np.ndarray:
        """Intervals between successive (interpolated) failure times."""
        ft = self.failure_times()
        if ft.size == 0:
            return ft
        return np.diff(ft, prepend=0.0)

    @classmethod
    def from_tbf(
        cls,
        tbf_values,
        label: str = "",
        native_unit: TimeUnit = TimeUnit.INCIDENT,
    ) -> "FailureDataset":
        """Build a history from successive time-between-failures values."""
        values = [float(v) for v in tbf_values]
        if any(v <= 0 for v in values):
            raise ValueError("time-between-failures values must be positive")
        times = np.cumsum(values)
        points = tuple((float(t), k + 1) for k, t in enumerate(times))
        return cls(points, label, native_unit)


def _frozen(values: np.ndarray) -> np.ndarray:
    """A read-only copy of ``values`` over immutable ``bytes``."""
    return np.frombuffer(values.tobytes(), dtype=values.dtype)


def _checked_history(points, label, native_unit, times, counts) -> FailureDataset:
    """A history from points that already pass :class:`FailureDataset`'s
    checks, in its normal form (float times, int counts, a ``TimeUnit``),
    with their ``times`` and ``counts`` as read-only arrays: equal to
    ``FailureDataset(points, label, native_unit)``, without checking again."""
    ds = object.__new__(FailureDataset)
    object.__setattr__(ds, "points", points)
    object.__setattr__(ds, "label", label)
    object.__setattr__(ds, "native_unit", native_unit)
    object.__setattr__(ds, "times", times)
    object.__setattr__(ds, "counts", counts)
    return ds


@dataclass(frozen=True)
class TimeConversionProfile:
    """Factors linking the four time axes.

    One test case counts as ``test_case_incident_equivalent`` incidents
    (the default 1.0 treats them as interchangeable; raise it when directed
    testing makes a test case worth more than one field incident), a fleet
    of ``client_count`` clients produces
    ``incidents_per_client_per_day * client_count`` incidents per calendar
    day, and one test case occupies ``avg_test_case_duration`` in-service
    hours.  Indirect unit pairs compose through these three links, so
    round trips are identities up to floating-point rounding.  A profile
    in which some unit is not worth a finite positive float of incidents
    is refused.
    """

    incidents_per_client_per_day: float
    client_count: int
    test_case_incident_equivalent: float = 1.0
    avg_test_case_duration: float = 1.0

    def __post_init__(self) -> None:
        if not self.incidents_per_client_per_day > 0:
            raise ValueError("incidents_per_client_per_day must be positive")
        if isinstance(self.client_count, bool) or not isinstance(
            self.client_count, (int, np.integer)
        ) or self.client_count < 1:
            raise ValueError(f"client_count must be a positive integer, got {self.client_count!r}")
        if not self.test_case_incident_equivalent > 0:
            raise ValueError("test_case_incident_equivalent must be positive")
        if not self.avg_test_case_duration > 0:
            raise ValueError("avg_test_case_duration must be positive")
        # Each link must also be finite and not underflow, or a conversion
        # through it gives 0, inf or NaN.
        for unit in TimeUnit:
            try:
                factor = float(self.incident_equivalent(unit))
            except OverflowError:  # an integer beyond the float range
                factor = math.inf
            if not 0.0 < factor < math.inf:
                raise ValueError(
                    f"one {unit.value} must be a finite positive number of incidents, "
                    f"got {factor!r}"
                )

    def incident_equivalent(self, unit: TimeUnit) -> float:
        """How many incidents one unit of ``unit`` is worth."""
        unit = TimeUnit(unit)
        if unit is TimeUnit.INCIDENT:
            return 1.0
        if unit is TimeUnit.TEST_CASE:
            return self.test_case_incident_equivalent
        if unit is TimeUnit.CALENDAR_DAY:
            return self.incidents_per_client_per_day * self.client_count
        # One in-service hour is 1/avg_test_case_duration test cases.
        return self.test_case_incident_equivalent / self.avg_test_case_duration

    @classmethod
    def from_dict(cls, payload: dict) -> "TimeConversionProfile":
        """Build a profile from a JSON-style mapping."""
        known = {
            "incidents_per_client_per_day",
            "client_count",
            "test_case_incident_equivalent",
            "avg_test_case_duration",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown profile fields: {sorted(unknown)}")
        return cls(**payload)


def convert_time(
    value: float,
    source: TimeUnit,
    target: TimeUnit,
    profile: TimeConversionProfile,
) -> float:
    """Express ``value`` (given in ``source`` units) in ``target`` units."""
    src = TimeUnit(source)
    tgt = TimeUnit(target)
    if src is tgt:
        return float(value)
    return float(value) * profile.incident_equivalent(src) / profile.incident_equivalent(tgt)


def rescale_dataset(
    ds: FailureDataset,
    profile: TimeConversionProfile,
    target: TimeUnit,
) -> FailureDataset:
    """The same failure history with every time expressed in ``target`` units.

    Counts and label are preserved; only the time axis and the recorded
    native unit change.
    """
    tgt = TimeUnit(target)
    points = tuple(
        (convert_time(t, ds.native_unit, tgt, profile), c) for t, c in ds.points
    )
    return FailureDataset(points, ds.label, tgt)


def _decode(source) -> str:
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"input is not valid UTF-8: {exc}") from exc
    return data


def parse_dataset(
    source,
    format: str,
    label: str = "",
    native_unit: TimeUnit = TimeUnit.INCIDENT,
) -> FailureDataset:
    """Read a failure history from a byte stream (or bytes/str) in one of
    the supported formats.

    ``cumulative_csv`` rows are taken as-is; ``tbf_csv`` rows are cumulated
    so that the k-th failure lands at the running sum of the first k
    intervals.  Malformed rows are reported with their line number.
    """
    if format not in DATASET_FORMATS:
        raise ValueError(f"unknown dataset format {format!r}; choose from {DATASET_FORMATS}")
    text = _decode(source)
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise DataFormatError(f"unreadable CSV: {exc}") from exc
    # Trailing blank lines are tolerated; blank lines inside the data are not.
    while rows and not any(cell.strip() for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise DataFormatError("empty input")

    header = [cell.strip().lower() for cell in rows[0]]
    expected = ["time", "cumulative_failures"] if format == "cumulative_csv" else ["tbf"]
    if header != expected:
        raise DataFormatError(
            f"expected header {','.join(expected)!r}, got {','.join(rows[0])!r}", line=1
        )
    if len(rows) == 1:
        raise DataFormatError("no data rows")

    times = []
    if format == "cumulative_csv":
        counts = []
        prev_time = 0.0
        prev_count = 0
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 2:
                raise DataFormatError(f"expected 2 fields, got {len(row)}", line=lineno)
            try:
                t = float(row[0])
                c = int(row[1])
            except ValueError as exc:
                raise DataFormatError(f"malformed row {row!r}: {exc}", line=lineno) from exc
            if not math.isfinite(t):
                raise DataFormatError(f"time must be finite, got {t}", line=lineno)
            if t <= prev_time:
                raise DataFormatError(
                    f"non-monotone time: {t} does not exceed {prev_time}", line=lineno
                )
            if c < 0:
                raise DataFormatError(f"negative failure count {c}", line=lineno)
            if c >= _COUNT_LIMIT:
                raise DataFormatError(f"failure count {c} does not fit in 64 bits", line=lineno)
            if c < prev_count:
                raise DataFormatError(
                    f"cumulative failures fell from {prev_count} to {c}", line=lineno
                )
            times.append(t)
            counts.append(c)
            prev_time, prev_count = t, c
    else:
        total = 0.0
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 1:
                raise DataFormatError(f"expected 1 field, got {len(row)}", line=lineno)
            try:
                v = float(row[0])
            except ValueError as exc:
                raise DataFormatError(f"malformed row {row!r}: {exc}", line=lineno) from exc
            if v <= 0:
                raise DataFormatError(
                    f"time between failures must be positive, got {v}", line=lineno
                )
            # The failure time, as FailureDataset.from_tbf computes it
            # (np.cumsum adds in the same order), checked here so that a
            # problem with it is reported on its line, and an overflow
            # raises no numpy warning.
            previous, total = total, total + v
            if not math.isfinite(total):
                raise DataFormatError(f"failure time {total} is not finite", line=lineno)
            if total <= previous:
                raise DataFormatError(
                    f"failure time does not advance past {previous} by {v}", line=lineno
                )
            times.append(total)
        counts = range(1, len(times) + 1)
    # Every row has passed the checks that FailureDataset makes, so the
    # history is built from them without a second pass.
    return _checked_history(
        tuple(zip(times, counts)),
        label,
        TimeUnit(native_unit),
        _frozen(np.array(times, dtype=float)),
        _frozen(np.array(counts, dtype=np.int64)),
    )


def to_cumulative_csv(ds: FailureDataset) -> str:
    """Serialize a history in ``cumulative_csv`` form.

    Times are written with ``repr`` so that parsing the output recovers the
    dataset bit-for-bit.
    """
    lines = ["time,cumulative_failures"]
    lines.extend(f"{t!r},{c}" for t, c in ds.points)
    return "\n".join(lines) + "\n"
