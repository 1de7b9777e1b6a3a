from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from enose import acquisition as acq
from enose.checks import split_lines
from enose.sensors import GasMixture
from oracles import impute_missing_per_run, parse_stream_per_line


def volts_of(raws) -> list[float]:
    """`Session.voltages` of the given counts, four to a frame, in order."""
    counts = np.asarray(raws).reshape(-1, 4)
    return acq.Session(np.arange(len(counts)), counts).voltages().ravel().tolist()


class TestAdcToVoltage:
    """The ADC conversion rule raw * 3.3 / 4096, as `Session.voltages` applies it."""

    def test_zero(self):
        assert volts_of([0] * 4) == [0.0] * 4

    def test_half_scale(self):
        assert volts_of([2048] * 4) == [1.65] * 4

    def test_full_scale_exact_rational(self):
        # independent arithmetic: 4095 * 33/10 / 4096 = 27027/8192, which is
        # dyadic and therefore exactly representable
        expected = Fraction(4095) * Fraction(33, 10) / 4096
        assert expected == Fraction(27027, 8192)
        assert volts_of([4095] * 4) == [float(expected)] * 4 == [3.2991943359375] * 4

    def test_range_errors(self):
        with pytest.raises(ValueError, match="raw counts"):
            volts_of([0, 0, -1, 0])
        with pytest.raises(ValueError, match="raw counts"):
            volts_of([0, 4096, 0, 0])

    def test_exhaustive_monotone_and_bounded(self):
        volts = volts_of(range(4096))
        assert all(b > a for a, b in zip(volts, volts[1:]))
        assert volts[0] == 0.0
        assert volts[-1] <= 3.3 * 4095 / 4096


def frame_line(t, raws):
    return f"{t},{raws[0]},{raws[1]},{raws[2]},{raws[3]}"


class TestParseStream:
    def test_direct_field_mapping(self):
        session = acq.parse_stream(["0,100,200,300,400"])
        assert session.t_ms.tolist() == [0]
        assert session.counts.tolist() == [[100, 200, 300, 400]]

    def test_out_of_range_is_malformed(self):
        good = [frame_line(10 + i * 10, (1, 2, 3, 4)) for i in range(20)]
        session = acq.parse_stream(["0,100,200,300,4096", *good])
        assert len(session.t_ms) == 20
        assert session.t_ms[0] == 10

    def test_rejects_above_ten_percent_malformed(self):
        lines = [frame_line(i * 10, (1, 2, 3, 4)) for i in range(85)]
        lines += ["bad line"] * 15
        with pytest.raises(acq.StreamError) as err:
            acq.parse_stream(lines)
        assert err.value.n_malformed == 15
        assert err.value.n_lines == 100

    def test_exactly_ten_percent_is_accepted(self):
        lines = [frame_line(i * 10, (1, 2, 3, 4)) for i in range(90)]
        lines += ["nope"] * 10
        session = acq.parse_stream(lines)
        assert len(session.t_ms) == 90

    def test_rejects_non_monotone_timestamps(self):
        with pytest.raises(acq.StreamError, match="increasing"):
            acq.parse_stream(["0,1,1,1,1", "10,1,1,1,1", "10,2,2,2,2"])

    def test_skips_blank_lines_and_header(self):
        session = acq.parse_stream(
            ["", acq.SESSION_HEADER, "0,1,2,3,4", "", "100,5,6,7,8"])
        assert len(session.t_ms) == 2

    def test_rejects_empty_stream(self):
        with pytest.raises(acq.StreamError):
            acq.parse_stream([])

    def test_blank_field_is_imputed_not_malformed(self):
        session = acq.parse_stream(["0,10,2,3,4", "10,,2,3,4", "20,30,2,3,4"])
        assert session.counts[:, 0].tolist() == [10, 20, 30]

    def test_all_missing_channel_rejected(self):
        with pytest.raises(acq.StreamError, match="channel 1"):
            acq.parse_stream(["0,,2,3,4", "10,,2,3,4"])

    def test_fields_may_carry_surrounding_whitespace(self):
        session = acq.parse_stream([" 0 , 1,2 ,3,\t4", "10,5,6,7,8"])
        assert session.t_ms.tolist() == [0, 10]
        assert session.counts[0].tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("field", ["1_0", "+5", "-0", "\u0663"])
    @pytest.mark.parametrize("column", [0, 1, 4])
    def test_non_decimal_integer_field_is_malformed(self, field, column):
        good = [frame_line(100 + i * 10, (1, 2, 3, 4)) for i in range(20)]
        fields = ["0", "7", "7", "7", "7"]
        fields[column] = field
        with pytest.raises(acq.StreamError) as err:
            acq.parse_stream([",".join(fields)] * 3 + good)
        assert err.value.n_malformed == 3
        session = acq.parse_stream([",".join(fields), *good])
        assert session.t_ms.tolist() == [100 + i * 10 for i in range(20)]

    def test_timestamp_beyond_int64_rejected(self):
        with pytest.raises(acq.StreamError, match="int64"):
            acq.parse_stream(["0,1,2,3,4", f"{2**63},1,2,3,4"])

    # frame streams are ASCII: a non-ASCII character, whitespace or not,
    # makes its line malformed, wherever it stands
    def test_non_ascii_padded_field_is_malformed(self):
        lines = [frame_line(i * 10, (1, 2, 3, 4)) for i in range(10)]
        lines[4] = "40,1,\xa02,3,4"
        session = acq.parse_stream(lines)
        assert session.t_ms.tolist() == [0, 10, 20, 30, 50, 60, 70, 80, 90]

    def test_unicode_whitespace_at_line_ends_is_malformed(self):
        lines = [frame_line(i * 10, (1, 2, 3, 4)) for i in range(10)]
        lines[2] += "\u3000"
        lines[7] = "\x85" + lines[7]
        with pytest.raises(acq.StreamError) as err:
            acq.parse_stream([*lines, "\u2028"])
        assert (err.value.n_malformed, err.value.n_lines) == (3, 11)

    def test_comment_after_unicode_space_is_a_data_line(self):
        with pytest.raises(acq.StreamError) as err:
            acq.parse_stream(["0,1,2,3,4", "# a comment", "\u3000#x"])
        assert (err.value.n_malformed, err.value.n_lines) == (1, 2)


def outcome(parse, lines):
    """What a parser makes of a stream: its arrays, or why it rejected it."""
    try:
        t_ms, counts = parse(lines)
    except acq.StreamError as err:
        return "rejected", str(err), err.n_malformed, err.n_lines
    return "parsed", t_ms.tolist(), counts.tolist()


def parse_to_arrays(lines):
    session = acq.parse_stream(lines)
    return session.t_ms, session.counts


# Whitespace str.strip() removes: ASCII (including \x1c-\x1f), which the
# parser strips too, and non-ASCII, which makes a line malformed.
PADS = ["", " ", "\t", "\r", "\v", "\f", "\x1c", "\x1f", "\xa0", "\u3000", "\u2028",
        "\x85", " \t\xa0"]
ODD_FIELDS = ["", "  ", "\u0663", "+5", "1_0", "\x00", "7\x008", "-0", "1 2", "x", "\u00b2",
              "\ud800", "4096", "04096", "00004095", "0" * 25 + "7", "9" * 20,
              "1" + "0" * 19, str(2**63 - 1), str(2**63), "\u30001",
              "\u0135", "\u01201"]   # their low bytes are "5" and " "


@st.composite
def dirty_streams(draw):
    """Frame streams with a drawn share of dirty lines, on both sides of 10%."""
    n = draw(st.integers(1, 30))
    dirty_pct = draw(st.sampled_from([0, 3, 10, 25, 60, 100]))
    blank_channel = draw(st.sampled_from([None, None, 1, 4]))
    repeat_at = draw(st.sampled_from([None, None, None, 0, 1, 5]))   # a repeated t_ms
    t = draw(st.sampled_from([0, 0, 3, 1000, 2**63 - 40, 2**63 - 1]))
    lines = []
    for i in range(n):
        t += 0 if i == repeat_at else draw(st.sampled_from([1, 2, 7]))
        fields = [str(t)] + [str(draw(st.integers(0, 4095))) for _ in range(4)]
        if blank_channel is not None and draw(st.booleans()):
            fields[blank_channel] = ""
        if draw(st.integers(0, 99)) < dirty_pct:
            kind = draw(st.integers(0, 7))
            col = draw(st.integers(0, 4))
            if kind == 0:
                fields[col] = draw(st.sampled_from(ODD_FIELDS))
            elif kind == 1:
                fields[col] = (draw(st.sampled_from(PADS)) + fields[col]
                               + draw(st.sampled_from(PADS)))
            elif kind == 2:
                fields[col] = "0" * draw(st.integers(1, 22)) + fields[col]
            elif kind == 3:
                del fields[col]                       # four fields
            elif kind == 4:
                fields.insert(col, draw(st.sampled_from(["", "0", "12"])))  # six
            elif kind == 5:
                fields[col] += "\n"                   # element with its own newline
            elif kind == 6:
                lines.append(draw(st.sampled_from(
                    ["", "   ", "# comment, 1,2,3,4", acq.SESSION_HEADER,
                     f" {acq.SESSION_HEADER}\t", "\u3000#x"])))
            else:
                fields[-1] += "\n" + ",".join(fields)  # two frames in one element
        lines.append(draw(st.sampled_from(PADS)) + ",".join(fields)
                     + draw(st.sampled_from(PADS)))
    return lines


LISTED_STREAMS = [
    ["0,1,2,3,4", "10, 5 ,\t6,7\x1c,\x1f8"],
    ["0\u3000,\xa01,2\u2028,3,4", "10,1,2,3,4"],
    ["0,1,2,3,4", "10,1_0,2,3,4"],
    ["0,1,2,3,4", "10,\u0135,2,3,4", "20,1\u012c2,3,4", "30,\u01201,2,3,4"],
    ["0,1,2,3,4", "10,1,2,3,04096", "20,00004095,0,0,0"],
    ["0,1,2,3,4", f"{2**63 - 1},1,2,3,4"],
    ["0,1,2,3,4", f"{2**63},1,2,3,4"],
    ["0,1,2,3,4", "0000000000000000000000000009,1,2,3,4"],
    ["0,1,2\n,3,4", "10,1,2,3,4\n20,1,2,3,4"],
    ["# header next", acq.SESSION_HEADER, "", "0,,2,3,4", "10,5,,7,8", "20,1,2,3,"],
    [f"{i * 10},1,2,3,4" for i in range(9)] + ["90,1,2,3"],
    [f"{i * 10},1,2,3,4" for i in range(8)] + ["80,1,2,3", "90,1,2,3,4,5"],
    ["0,1,2,3,4", "0,1,2,3,4"],
    ["0,,2,3,4", "10,,2,3,4"],
]


class TestCodecAgainstPerLineReference:
    @pytest.mark.parametrize("lines", LISTED_STREAMS)
    def test_listed_streams(self, lines):
        assert outcome(parse_to_arrays, lines) == outcome(parse_stream_per_line, lines)

    @given(dirty_streams())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dirty_streams(self, lines):
        assert outcome(parse_to_arrays, lines) == outcome(parse_stream_per_line, lines)

    @given(st.lists(st.tuples(*[st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 99),
                                          st.sampled_from([0, 9, 10, 10**18, 2**63 - 1]))
                                ] * 5), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_frame_lines_match_fstrings(self, rows):
        values = np.array(rows, dtype=np.int64).reshape(-1, 5)
        expected = "".join(f"{t},{a},{b},{c},{d}\n" for t, a, b, c, d in rows)
        assert acq.frame_lines(values[:, 0], values[:, 1:]) == expected.encode("ascii")

    def test_frame_lines_reject_negative_or_float_values(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            acq.frame_lines([-1], [[1, 2, 3, 4]])
        with pytest.raises(ValueError, match="non-negative integers"):
            acq.frame_lines([0.5], [[1, 2, 3, 4]])


@st.composite
def gap_matrices(draw):
    """n x k matrices whose columns mix leading, trailing and interior NaN
    runs with runs of present values, single ones included."""
    n, k = draw(st.integers(1, 24)), draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(-1e6, 1e6) | st.integers(0, 4095).map(float),
                           min_size=n * k, max_size=n * k))
    m = np.array(values).reshape(n, k)
    gap = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))).reshape(n, k)
    for j, i in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))):
        gap[i, j] = False    # every column keeps a present value
    m[gap] = np.nan
    return m


class TestImputeMissing:
    def test_midpoint_mean(self):
        assert acq.impute_missing([1.0, np.nan, 3.0]).tolist() == [1.0, 2.0, 3.0]

    def test_boundary_copy(self):
        assert acq.impute_missing([np.nan, 5.0, 5.0]).tolist() == [5.0, 5.0, 5.0]

    def test_double_gap_takes_shared_mean(self):
        out = acq.impute_missing([2.0, np.nan, np.nan, 6.0])
        assert out.tolist() == [2.0, 4.0, 4.0, 6.0]

    def test_all_missing_is_an_error(self):
        with pytest.raises(ValueError):
            acq.impute_missing([np.nan, np.nan])
        with pytest.raises(ValueError, match="all-missing"):
            acq.impute_missing([[1.0, np.nan], [2.0, np.nan]])

    @given(st.lists(st.one_of(st.floats(-100, 100), st.none()),
                    min_size=1, max_size=40).filter(
                        lambda vs: any(v is not None for v in vs)))
    @settings(max_examples=150)
    def test_present_values_untouched_and_no_gaps(self, values):
        arr = np.array([np.nan if v is None else v for v in values])
        out = acq.impute_missing(arr)
        assert not np.isnan(out).any()
        keep = ~np.isnan(arr)
        assert np.array_equal(out[keep], arr[keep])

    @given(gap_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matrix_matches_per_column_oracle(self, m):
        expected = np.column_stack([impute_missing_per_run(col) for col in m.T])
        assert acq.impute_missing(m).tobytes() == expected.tobytes()
        assert acq.impute_missing(m[:, 0]).tobytes() == expected[:, 0].tobytes()

    def test_matrix_runs_and_single_values(self):
        nan = np.nan
        m = np.array([[nan, 1.0], [2.0, nan], [nan, nan], [nan, 7.0], [5.0, nan]])
        assert acq.impute_missing(m).tolist() == [
            [2.0, 1.0], [2.0, 4.0], [3.5, 4.0], [3.5, 7.0], [5.0, 7.0]]


INT64_MAX = 2**63 - 1


@st.composite
def valid_sessions(draw):
    """Any Session that `Session` accepts: n >= 1 frames, `t_ms` strictly
    increasing within [0, 2**63 - 1], counts anywhere in [0, 4095]."""
    n = draw(st.integers(1, 40))
    t_ms = sorted(draw(st.sets(st.integers(0, INT64_MAX), min_size=n, max_size=n)))
    counts = draw(st.lists(st.tuples(*[st.integers(0, acq.ADC_MAX)] * 4),
                           min_size=n, max_size=n))
    ppm = st.floats(min_value=0.0, allow_infinity=False)
    return acq.Session(
        t_ms, counts, label=draw(st.integers(0, 3)),
        mixture=draw(st.none() | st.builds(GasMixture, ppm, ppm, ppm)),
        sample_rate_hz=draw(st.floats(min_value=0.0, exclude_min=True,
                                      allow_infinity=False)))


class TestRoundTrip:
    @given(valid_sessions())
    @example(acq.Session([0, 1, INT64_MAX], [(0, 0, 0, 0), (4095, 4095, 4095, 4095),
                                             (0, 4095, 1, 4094)], label=3))
    @settings(max_examples=200)
    def test_parse_serialize_parse_identity(self, session):
        # every valid Session survives the wire format unchanged, so a
        # simulated session needs no trip through it before preprocessing
        wire = acq.frame_lines(session.t_ms, session.counts)
        again = acq.parse_stream(split_lines(wire.decode("ascii")),
                                 label=session.label, mixture=session.mixture,
                                 sample_rate_hz=session.sample_rate_hz)
        for name in ("t_ms", "counts"):
            a, b = getattr(again, name), getattr(session, name)
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
        assert again.label == session.label
        assert again.mixture == session.mixture
        assert again.sample_rate_hz == session.sample_rate_hz

    def test_file_round_trip_with_meta(self, tmp_path):
        i = np.arange(5)
        session = acq.Session(i * 100, np.column_stack([i, i + 1, i + 2, i + 3]),
                              label=2, mixture=GasMixture(1.5, 99.0, 0.25),
                              sample_rate_hz=10.0)
        path = tmp_path / "session.csv"
        acq.write_session(session, path)
        assert (tmp_path / "session.meta").exists()
        again = acq.read_session(path)
        assert np.array_equal(again.t_ms, session.t_ms)
        assert np.array_equal(again.counts, session.counts)
        assert again.label == 2
        assert again.mixture == session.mixture
        assert again.sample_rate_hz == 10.0

    def test_missing_meta_gives_defaults(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text(acq.SESSION_HEADER + "\n0,1,2,3,4\n")
        session = acq.read_session(path)
        assert (session.label, session.mixture, session.sample_rate_hz) == (0, None, 10.0)

    @pytest.mark.parametrize("text, message", [
        # a misspelt key, a line with no `=` and three missing keys
        ("labl=2\nacetone_ppm=5.0\ngarbage line\n", "line 3: expected 'key = value'"),
        ("labl=2\nacetone_ppm=5.0\n", "unknown key 'labl'"),
        ("label=2\nacetone_ppm=5.0\n", "missing key 'ethanol_ppm'"),
        ("label=2\nlabel=3\n", "line 2: key 'label' given twice"),
        ("label=two\nacetone_ppm=0\nethanol_ppm=0\nmethanol_ppm=0\nsample_rate_hz=10\n",
         "invalid literal for int"),
    ])
    def test_bad_meta_rejected(self, tmp_path, text, message):
        path = tmp_path / "session.csv"
        path.write_text(acq.SESSION_HEADER + "\n0,1,2,3,4\n")
        (tmp_path / "session.meta").write_text(text)
        with pytest.raises(ValueError, match=f"session.meta: {message}"):
            acq.read_meta(path)

    def test_meta_keys_are_the_written_keys(self, tmp_path):
        path = tmp_path / "session.csv"
        acq.write_meta(acq.Session([0], [(1, 1, 1, 1)], label=3), path)
        lines = (tmp_path / "session.meta").read_text().splitlines()
        assert [line.partition("=")[0] for line in lines] == list(acq.META_KEYS)


def one_frame(raw=(1, 1, 1, 1), t_ms=0):
    return [t_ms], [raw]


class TestSessionInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acq.Session(t_ms=[], counts=np.empty((0, 4), dtype=np.int64))

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            acq.Session(t_ms=[5, 5], counts=[(1, 1, 1, 1), (2, 2, 2, 2)])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            acq.Session(*one_frame(), label=4)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            acq.Session(*one_frame(), sample_rate_hz=0.0)
        # a sidecar can say nan or inf
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sample_rate_hz"):
                acq.Session(*one_frame(), sample_rate_hz=rate)

    def test_counts_outside_12_bits_rejected(self):
        with pytest.raises(ValueError, match="4095"):
            acq.Session(*one_frame(raw=(0, 0, 0, 4096)))
        with pytest.raises(ValueError, match="4095"):
            acq.Session(*one_frame(raw=(0, -1, 0, 0)))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            acq.Session(*one_frame(t_ms=-1))

    def test_counts_shape_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            acq.Session(t_ms=[0, 10], counts=[(1, 1, 1, 1)])
        with pytest.raises(ValueError, match="shape"):
            acq.Session(t_ms=[0], counts=[(1, 1, 1)])

    def test_non_integer_arrays_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            acq.Session(t_ms=[0.5], counts=[(1, 1, 1, 1)])

    def test_arrays_are_read_only_copies(self):
        t_ms, counts = np.array([0, 10]), np.ones((2, 4), dtype=np.int64)
        session = acq.Session(t_ms, counts)
        t_ms[0], counts[0, 0] = 99, 99
        assert session.t_ms[0] == 0 and session.counts[0, 0] == 1
        with pytest.raises(ValueError):
            session.counts[0, 0] = 2

    def test_voltages_match_scalar_rule(self):
        session = acq.Session(*one_frame(raw=(0, 2048, 4095, 7)))
        v = session.voltages()[0]
        assert v.tolist() == [r * 3.3 / 4096 for r in (0, 2048, 4095, 7)]
