import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomrel.data import (
    FailureDataset,
    TimeConversionProfile,
    TimeUnit,
    convert_time,
    parse_dataset,
    rescale_dataset,
    to_cumulative_csv,
)
from geomrel.errors import DataFormatError

PROFILE = TimeConversionProfile(
    incidents_per_client_per_day=2.0,
    client_count=10,
    test_case_incident_equivalent=1.0,
    avg_test_case_duration=0.5,
)

REPO_DATA = Path(__file__).resolve().parent.parent / "data"


class TestFailureDataset:
    def test_basic_construction(self):
        ds = FailureDataset(((10.0, 4), (20.0, 7)), label="p1")
        assert len(ds) == 2
        assert ds.final_time == 20.0
        assert ds.final_count == 7
        assert ds.native_unit is TimeUnit.INCIDENT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FailureDataset(())

    def test_time_zero_rejected(self):
        with pytest.raises(ValueError):
            FailureDataset(((0.0, 1),))

    def test_non_monotone_time_rejected(self):
        with pytest.raises(ValueError):
            FailureDataset(((10.0, 4), (5.0, 6)))
        with pytest.raises(ValueError):
            FailureDataset(((10.0, 4), (10.0, 6)))  # duplicates are rejected, not merged

    def test_decreasing_counts_rejected(self):
        with pytest.raises(ValueError):
            FailureDataset(((1.0, 4), (2.0, 3)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FailureDataset(((1.0, -1),))

    @pytest.mark.parametrize("count", [2**63, 10**30, 10**400])
    def test_counts_beyond_int64_rejected(self, count):
        with pytest.raises(ValueError, match="64 bits"):
            FailureDataset(((1.0, count),))

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError):
            FailureDataset(((1.0, 1.5),))

    @pytest.mark.parametrize(
        "count",
        [
            2**53 + 1,
            np.int64(2**53 + 1),
            np.uint64(2**62 + 1),
            2**63 - 513,
            2**63 - 1,
            np.int64(2**63 - 1),
        ],
    )
    def test_integer_counts_kept_exactly(self, count):
        ds = FailureDataset(((1.0, count),))
        assert ds.final_count == int(count)
        assert type(ds.final_count) is int
        assert int(ds.counts[-1]) == int(count)

    def test_integral_float_counts_accepted(self):
        ds = FailureDataset(((1.0, 3.0), (2.0, 2.0**60)))
        assert ds.points == ((1.0, 3), (2.0, 2**60))

    def test_count_at_steps(self):
        ds = FailureDataset(((3.0, 1), (5.0, 2), (10.0, 3)))
        assert ds.count_at(2.9) == 0
        assert ds.count_at(3.0) == 1
        assert ds.count_at(7.0) == 2
        assert ds.count_at(100.0) == 3

    def test_failure_times_exact_for_unit_counts(self):
        ds = FailureDataset.from_tbf([3.0, 2.0, 5.0])
        assert np.allclose(ds.failure_times(), [3.0, 5.0, 10.0])
        assert np.allclose(ds.time_between_failures(), [3.0, 2.0, 5.0])

    def test_failure_times_interpolate_coarse_counts(self):
        # Counts pass 1..4 inside two intervals; each failure is placed
        # proportionally.
        ds = FailureDataset(((10.0, 2), (20.0, 4)))
        assert np.allclose(ds.failure_times(), [5.0, 10.0, 15.0, 20.0])

    def test_failure_times_empty_when_no_failures(self):
        ds = FailureDataset(((10.0, 0),))
        assert ds.failure_times().size == 0
        assert ds.time_between_failures().size == 0


def _ntds_history():
    with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
        return parse_dataset(handle, "tbf_csv", label="ntds")


def _grid_history():
    # Cumulative counts on a grid: zero counts first, repeats, and counts
    # beyond the float's exact integers.
    counts = [0, 0, 3, 3, 8, 9, 9, 14, 2**62, 2**63 - 1]
    points = tuple((2.5 * (i + 1), c) for i, c in enumerate(counts))
    return FailureDataset(points, "grid", TimeUnit.CALENDAR_DAY)


def assert_unwritable(arr):
    """Neither the array nor any array it views can be made writable, and
    the memory under them is an immutable ``bytes``."""
    while isinstance(arr, np.ndarray):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        arr = arr.base
    assert isinstance(arr, bytes)


def assert_same_history(parsed):
    """``parsed`` equals the history that ``FailureDataset`` builds and
    checks from its points, label and unit, down to the bits and
    read-only memory of its arrays and its usable points."""
    rebuilt = FailureDataset(parsed.points, parsed.label, parsed.native_unit)
    assert parsed == rebuilt
    assert hash(parsed) == hash(rebuilt)
    assert parsed.native_unit is rebuilt.native_unit
    for (t, c), (t_rebuilt, c_rebuilt) in zip(parsed.points, rebuilt.points, strict=True):
        assert type(t) is float and type(c) is int
        assert t.hex() == t_rebuilt.hex() and c == c_rebuilt
    for name in ("times", "counts"):
        arr, expected = getattr(parsed, name), getattr(rebuilt, name)
        assert arr.dtype == expected.dtype
        assert arr.tobytes() == expected.tobytes()
        assert_unwritable(arr)
    for got, expected in zip(parsed._usable_points(), rebuilt._usable_points(), strict=True):
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        else:
            assert got == expected


class TestPrefix:
    @pytest.mark.parametrize("history", [_ntds_history, _grid_history], ids=["ntds", "grid"])
    def test_equals_the_rebuilt_history(self, history):
        ds = history()
        for n in range(1, len(ds) + 1):
            sub = ds.prefix(n)
            rebuilt = FailureDataset(ds.points[:n], ds.label, ds.native_unit)
            assert sub == rebuilt
            assert hash(sub) == hash(rebuilt)
            assert sub.points == rebuilt.points
            assert sub.native_unit is rebuilt.native_unit
            for name in ("times", "counts"):
                arr, expected = getattr(sub, name), getattr(rebuilt, name)
                assert arr.dtype == expected.dtype
                assert arr.tolist() == expected.tolist()
                assert_unwritable(arr)
                assert_unwritable(expected)

    @pytest.mark.parametrize("n", [0, -1, 11, 2.0, np.float64(3.0), "3", None, True])
    def test_invalid_length_rejected(self, n):
        with pytest.raises(ValueError, match="prefix length"):
            _grid_history().prefix(n)

    def test_numpy_integer_length_accepted(self):
        ds = _grid_history()
        assert ds.prefix(np.int64(4)) == ds.prefix(4)


class TestParseDataset:
    def test_tbf_rows_are_cumulated(self):
        ds = parse_dataset(b"tbf\n3\n2\n5\n", "tbf_csv")
        assert ds.points == ((3.0, 1), (5.0, 2), (10.0, 3))

    def test_cumulative_identity_read(self):
        ds = parse_dataset(b"time,cumulative_failures\n10,4\n20,7\n", "cumulative_csv")
        assert ds.points == ((10.0, 4), (20.0, 7))
        assert ds.final_count == 7

    def test_reads_streams(self):
        stream = io.BytesIO(b"tbf\n1\n2\n")
        ds = parse_dataset(stream, "tbf_csv", label="x")
        assert ds.label == "x"
        assert len(ds) == 2

    def test_non_monotone_time_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_dataset(b"time,cumulative_failures\n10,4\n5,6\n", "cumulative_csv")
        assert err.value.line == 3
        assert "non-monotone" in str(err.value)

    def test_malformed_row_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_dataset(b"time,cumulative_failures\n10,4\nfoo,7\n", "cumulative_csv")
        assert err.value.line == 3

    def test_negative_values_rejected(self):
        with pytest.raises(DataFormatError):
            parse_dataset(b"time,cumulative_failures\n10,-4\n", "cumulative_csv")
        with pytest.raises(DataFormatError):
            parse_dataset(b"tbf\n-1\n", "tbf_csv")
        with pytest.raises(DataFormatError):
            parse_dataset(b"tbf\n0\n", "tbf_csv")

    def test_decreasing_counts_rejected(self):
        with pytest.raises(DataFormatError):
            parse_dataset(b"time,cumulative_failures\n10,4\n20,3\n", "cumulative_csv")

    def test_header_required(self):
        with pytest.raises(DataFormatError):
            parse_dataset(b"10,4\n20,7\n", "cumulative_csv")
        with pytest.raises(DataFormatError):
            parse_dataset(b"time\n1\n", "tbf_csv")

    def test_empty_and_headers_only(self):
        with pytest.raises(DataFormatError):
            parse_dataset(b"", "tbf_csv")
        with pytest.raises(DataFormatError):
            parse_dataset(b"tbf\n", "tbf_csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_dataset(b"tbf\n1\n", "xml")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(DataFormatError, match="UTF-8"):
            parse_dataset(b"tbf\n\xff\xfe\n", "tbf_csv")

    def test_non_integer_count_rejected(self):
        with pytest.raises(DataFormatError):
            parse_dataset(b"time,cumulative_failures\n10,4.5\n", "cumulative_csv")

    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_tbf_differences_recover_inputs_exactly(self, tbf):
        text = "tbf\n" + "\n".join(str(v) for v in tbf) + "\n"
        ds = parse_dataset(text.encode(), "tbf_csv")
        assert np.array_equal(np.diff(ds.times, prepend=0.0), np.array(tbf, dtype=float))

    @given(
        gaps=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40),
        steps=st.lists(st.integers(0, 2**40), min_size=40, max_size=40),
        unit=st.sampled_from([*TimeUnit, "calendar_day"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_parsed_history_equals_the_checked_one(self, gaps, steps, unit):
        # Both formats, rows written with repr, from growing times and
        # non-decreasing counts (zero counts and repeats included).
        times = np.cumsum(gaps)
        # A gap far below its time would not advance it.
        assume(np.all(np.diff(times) > 0))
        counts = np.cumsum(steps[: len(gaps)]) - steps[0]
        cumulative = "time,cumulative_failures\n" + "".join(
            f"{float(t)!r},{int(c)}\n" for t, c in zip(times, counts)
        )
        tbf = "tbf\n" + "".join(f"{g!r}\n" for g in gaps)
        for text, fmt in ((cumulative, "cumulative_csv"), (tbf, "tbf_csv")):
            parsed = parse_dataset(text.encode(), fmt, label="h", native_unit=unit)
            assert_same_history(parsed)
            assert parsed.native_unit is TimeUnit(unit)
        assert parsed == FailureDataset.from_tbf(gaps, "h", unit)

    def test_csv_roundtrip_is_exact(self):
        ds = FailureDataset(((3.5, 1), (5.25, 2), (10.125, 4)), label="rt")
        again = parse_dataset(to_cumulative_csv(ds).encode(), "cumulative_csv", label="rt")
        assert again.points == ds.points

    @pytest.mark.parametrize(
        "text, fmt, line",
        [
            (b"time,cumulative_failures\n1,1\n2,999999999999999999999999999999\n",
             "cumulative_csv", 3),
            # 2**63, one past the largest int64.
            (b"time,cumulative_failures\n1,9223372036854775808\n", "cumulative_csv", 2),
            (b"time,cumulative_failures\n1,1\nnan,2\n", "cumulative_csv", 3),
            (b"time,cumulative_failures\n1,1\ninf,2\n", "cumulative_csv", 3),
            (b"tbf\n1e308\n1e308\n", "tbf_csv", 3),
            (b"tbf\n1\ninf\n", "tbf_csv", 3),
            (b"tbf\n1\nnan\n", "tbf_csv", 3),
            # 1e20 + 1 == 1e20: the second failure time would not advance.
            (b"tbf\n1e20\n1\n", "tbf_csv", 3),
        ],
        ids=["count-1e30", "count-2**63", "time-nan", "time-inf", "tbf-sum-overflows",
             "tbf-inf", "tbf-nan", "tbf-below-resolution"],
    )
    def test_out_of_range_values_report_their_line(self, text, fmt, line):
        with pytest.raises(DataFormatError) as err:
            parse_dataset(text, fmt)
        assert err.value.line == line

    def test_largest_count_an_int64_holds_is_accepted(self):
        for count in (2**63 - 513, 2**63 - 1):
            text = f"time,cumulative_failures\n1,{count}\n".encode()
            ds = parse_dataset(text, "cumulative_csv")
            assert ds.final_count == count
            assert int(ds.counts[-1]) == count

    def test_counts_above_2_53_load_exactly(self):
        ds = parse_dataset(b"time,cumulative_failures\n1,9007199254740993\n", "cumulative_csv")
        assert ds.points == ((1.0, 2**53 + 1),)
        assert int(ds.counts[-1]) == 2**53 + 1


# Cells drawn from the characters numbers are written with, and the ones
# that break CSV rows: commas, quotes, line ends and NUL.
_CELLS = st.one_of(
    st.text(alphabet="0123456789+-.eE,", max_size=8),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e308", "1e400", "1e-320", "\x00", "1\x002", '"', "\r",
         "9" * 30, "", " "]
    ),
)
_ROWS = st.lists(_CELLS, max_size=3).map(",".join)
_NUMBERS = st.one_of(
    st.integers(0, 2**64).map(str),
    st.floats(0.0, 1e308, allow_nan=False).map(repr),
)


@given(
    header=st.sampled_from(
        ["time,cumulative_failures", "tbf", " TBF ", "time", "", "tbf,x", "\x00"]
    ),
    rows=st.lists(_ROWS, max_size=8),
    ending=st.sampled_from(["", "\n", "\n\n", "\r\n"]),
    fmt=st.sampled_from(["cumulative_csv", "tbf_csv"]),
)
@settings(max_examples=400, deadline=None)
def test_parse_dataset_fuzz_gives_a_dataset_or_a_format_error(header, rows, ending, fmt):
    text = "\n".join([header, *rows]) + ending
    try:
        ds = parse_dataset(text.encode(), fmt)
    except DataFormatError:
        return
    assert isinstance(ds, FailureDataset)
    assert_same_history(ds)


@given(data=st.data(), fmt=st.sampled_from(["cumulative_csv", "tbf_csv"]))
@settings(max_examples=400, deadline=None)
def test_parse_dataset_fuzz_of_rows_under_their_header(data, fmt):
    # The cells above and plain numbers, one per header field, so that
    # histories of both formats parse, and each is checked against the
    # history rebuilt from its points.
    header = "time,cumulative_failures" if fmt == "cumulative_csv" else "tbf"
    width = header.count(",") + 1
    cell = st.one_of(_CELLS, _NUMBERS, _NUMBERS)
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    rows = data.draw(st.lists(row, min_size=1, max_size=8), label="rows")
    try:
        ds = parse_dataset("\n".join([header, *rows]).encode(), fmt, label="fuzz")
    except DataFormatError:
        return
    assert_same_history(ds)


@st.composite
def corrupted_histories(draw):
    """A valid history of 1 to 40 rows in either format, with at most one
    cell, the header's included, replaced by one of the cells above:
    ``(text, format, whether a cell was replaced)``.  Cumulative rows
    have sorted times and counts that never fall, as
    ``cumulative_histories`` in test_cli.py draws them; tbf rows have
    gaps that always advance the time."""
    fmt = draw(st.sampled_from(["cumulative_csv", "tbf_csv"]))
    if fmt == "cumulative_csv":
        times = sorted(draw(st.lists(st.floats(1e-6, 1e12), min_size=1, max_size=40, unique=True)))
        counts = sorted(draw(st.lists(
            st.integers(0, 2**63 - 1), min_size=len(times), max_size=len(times))))
        rows = [["time", "cumulative_failures"]]
        rows += ([repr(t), str(c)] for t, c in zip(times, counts))
    else:
        gaps = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40))
        rows = [["tbf"], *([repr(g)] for g in gaps)]
    corrupted = draw(st.booleans())
    if corrupted:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(_CELLS)
    return "".join(",".join(cells) + "\n" for cells in rows), fmt, corrupted


@given(history=corrupted_histories())
@settings(max_examples=400, deadline=None)
def test_parse_dataset_fuzz_of_histories_with_one_bad_cell(history):
    """A valid history parses, in either format; one with a replaced cell
    gives a history or a format error.  Each parsed history equals the
    one rebuilt from its points."""
    text, fmt, corrupted = history
    try:
        ds = parse_dataset(text.encode(), fmt, label="fuzz")
    except DataFormatError:
        assert corrupted
        return
    assert_same_history(ds)


class TestTimeConversion:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TimeConversionProfile(0.0, 10)
        with pytest.raises(ValueError):
            TimeConversionProfile(2.0, 0)
        with pytest.raises(ValueError):
            TimeConversionProfile(2.0, 10, test_case_incident_equivalent=-1.0)
        with pytest.raises(ValueError):
            TimeConversionProfile(2.0, 10, avg_test_case_duration=0.0)

    @pytest.mark.parametrize(
        "fields, unit, factor",
        [
            ({"incidents_per_client_per_day": math.inf}, "calendar_day", math.inf),
            ({"incidents_per_client_per_day": 1e308, "client_count": 10}, "calendar_day", math.inf),
            ({"client_count": 10**400}, "calendar_day", math.inf),
            ({"test_case_incident_equivalent": 10**400}, "test_case", math.inf),
            ({"test_case_incident_equivalent": 5e-324, "avg_test_case_duration": 10.0},
             "in_service_hour", 0.0),
            ({"avg_test_case_duration": 1e-320}, "in_service_hour", math.inf),
        ],
        ids=["infinite-rate", "overflowing-product", "huge-count", "huge-test-case",
             "underflowing-hour", "overflowing-hour"],
    )
    def test_every_unit_must_be_worth_a_finite_positive_float(self, fields, unit, factor):
        given = {"incidents_per_client_per_day": 2.0, "client_count": 1, **fields}
        message = f"^one {unit} must be a finite positive number of incidents, got {factor!r}$"
        with pytest.raises(ValueError, match=message):
            TimeConversionProfile(**given)

    def test_default_test_case_equals_incident(self):
        profile = TimeConversionProfile(2.0, 10)
        assert convert_time(1.0, TimeUnit.TEST_CASE, TimeUnit.INCIDENT, profile) == 1.0

    def test_incidents_to_calendar_days(self):
        # 100 incidents at 10 clients x 2 incidents/client/day -> 5 days.
        assert convert_time(100.0, TimeUnit.INCIDENT, TimeUnit.CALENDAR_DAY, PROFILE) == 5.0

    def test_test_cases_to_service_hours(self):
        assert convert_time(4.0, TimeUnit.TEST_CASE, TimeUnit.IN_SERVICE_HOUR, PROFILE) == 2.0

    def test_indirect_pair_composes(self):
        # calendar day -> incidents -> test cases -> in-service hours
        one_day_in_hours = convert_time(
            1.0, TimeUnit.CALENDAR_DAY, TimeUnit.IN_SERVICE_HOUR, PROFILE
        )
        assert one_day_in_hours == pytest.approx(20.0 * 0.5)

    @given(
        value=st.floats(1e-6, 1e9),
        src=st.sampled_from(list(TimeUnit)),
        tgt=st.sampled_from(list(TimeUnit)),
        ipcd=st.floats(0.01, 100.0),
        clients=st.integers(1, 10_000),
        tcie=st.floats(0.01, 100.0),
        duration=st.floats(0.01, 100.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_identity(self, value, src, tgt, ipcd, clients, tcie, duration):
        profile = TimeConversionProfile(ipcd, clients, tcie, duration)
        there = convert_time(value, src, tgt, profile)
        back = convert_time(there, tgt, src, profile)
        assert back == pytest.approx(value, rel=1e-9)

    def test_string_units_accepted(self):
        assert convert_time(1.0, "test_case", "incident", PROFILE) == 1.0

    def test_from_dict(self):
        profile = TimeConversionProfile.from_dict(
            {"incidents_per_client_per_day": 2.0, "client_count": 10}
        )
        assert profile.test_case_incident_equivalent == 1.0
        with pytest.raises(ValueError):
            TimeConversionProfile.from_dict({"clients": 3})
        with pytest.raises(TypeError):
            TimeConversionProfile.from_dict({"client_count": 3})


class TestRescaleDataset:
    def test_identity_unit(self):
        ds = FailureDataset(((3.0, 1), (5.0, 2)))
        same = rescale_dataset(ds, PROFILE, TimeUnit.INCIDENT)
        assert same.points == ds.points
        assert same.native_unit is TimeUnit.INCIDENT

    def test_hand_scaled_values(self):
        # 1 incident = 0.5 days under 1 client x 2 incidents/day.
        profile = TimeConversionProfile(2.0, 1)
        ds = FailureDataset(((3.0, 1), (5.0, 2)))
        days = rescale_dataset(ds, profile, TimeUnit.CALENDAR_DAY)
        assert days.points == ((1.5, 1), (2.5, 2))
        assert days.native_unit is TimeUnit.CALENDAR_DAY

    def test_counts_and_size_preserved(self):
        ds = FailureDataset(((3.0, 1), (5.0, 2), (9.0, 5)), label="keep")
        out = rescale_dataset(ds, PROFILE, TimeUnit.CALENDAR_DAY)
        assert len(out) == len(ds)
        assert [c for _, c in out.points] == [c for _, c in ds.points]
        assert out.label == "keep"

    def test_roundtrip_within_tolerance(self):
        ds = FailureDataset(((3.0, 1), (5.0, 2), (9.0, 5)))
        out = rescale_dataset(
            rescale_dataset(ds, PROFILE, TimeUnit.IN_SERVICE_HOUR), PROFILE, TimeUnit.INCIDENT
        )
        assert np.allclose(out.times, ds.times, rtol=1e-9)
