import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funclass as fc
from funclass import grid
from funclass.grid import read_csv, read_json, write_csv, write_json
from funclass.oracle import read_csv_rows, write_columns_repr


class TestTolerance:
    def test_defaults(self):
        tol = fc.Tolerance()
        assert tol.abs == 1e-9
        assert tol.rel == 1e-12

    def test_basic_acceptance(self):
        tol = fc.Tolerance(abs=0.1, rel=0.0)
        assert tol.leq(1.05, 1.0)
        assert not tol.leq(1.25, 1.0)
        assert tol.eq(1.0, 1.05)
        assert not tol.eq(1.0, 1.2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(fc.GridError):
            fc.Tolerance(abs=-1.0)
        with pytest.raises(fc.GridError):
            fc.Tolerance(rel=1.5)
        with pytest.raises(fc.GridError):
            fc.Tolerance(abs=float("nan"))

    @given(
        x=st.floats(-1e6, 1e6),
        y=st.floats(-1e6, 1e6),
        bump=st.floats(0, 1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_acceptance_monotone_in_rhs(self, x, y, bump):
        tol = fc.Tolerance()
        if tol.leq(x, y):
            assert tol.leq(x, y + bump)

    def test_zero_rel_accepts_an_infinite_rhs(self):
        tol = fc.Tolerance(rel=0.0)
        assert tol.leq(1e300, math.inf)
        x, y = np.array([1e300, 1.0]), np.array([math.inf, 0.5])
        assert tol.leq_array(x, y).tolist() == [True, False]

    @pytest.mark.parametrize("tol", [fc.Tolerance(), fc.Tolerance(0.0, 0.0), fc.Tolerance(0.5, 0.5)])
    def test_an_infinite_lhs_is_accepted_only_against_plus_inf(self, tol):
        # with rel > 0 the margin rel * max(|X|, |Y|) of an infinite X is inf,
        # and a finite Y plus an infinite margin accepted anything
        ys = [1.0, -1.0, 0.0, 1.7e308, -1.7e308, -math.inf, math.nan, math.inf]
        for x in (math.inf, -math.inf):
            want = [y == math.inf for y in ys]
            assert [tol.leq(x, y) for y in ys] == want
            assert tol.leq_array(np.full(len(ys), x), np.array(ys)).tolist() == want
            assert tol.leq_array(x, np.array(ys)).tolist() == want
        assert not tol.geq(1.0, math.inf)
        assert tol.eq(math.inf, math.inf)
        # a column of left sides against a tile of right sides, as the pair scans call it
        lhs, bound = np.array([[math.inf], [1.0]]), np.array([[1.0, math.inf], [2.0, 0.5]])
        assert tol.leq_array(lhs, bound).tolist() == [[False, True], [True, tol.leq(1.0, 0.5)]]

    def test_leq_array_matches_scalar_rule(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, 2000)
        y = np.concatenate([x[:500], x[500:1000] + 1e-9, rng.uniform(-1.0, 1.0, 1000)])
        for tol in (fc.Tolerance(), fc.Tolerance(abs=0.0, rel=0.0), fc.Tolerance(0.1, 0.5)):
            expected = [tol.leq(float(a), float(b)) for a, b in zip(x, y)]
            assert tol.leq_array(x, y).tolist() == expected


class TestWitness:
    def test_slotted_witness_pickles_and_hashes(self):
        w = fc.Witness(indices=(2, 3), lhs=1.5, rhs=0.5)
        assert not hasattr(w, "__dict__")
        assert pickle.loads(pickle.dumps(w)) == w
        assert hash(w) == hash(fc.Witness(indices=(2, 3), lhs=1.5, rhs=0.5))
        with pytest.raises(AttributeError):
            w.lhs = 0.0


    def test_witness_columns_are_a_sequence_of_witnesses(self):
        w = fc.Witnesses([1, 2, 3], [4, 5, 6], [1.5, -0.0, 2.5], [0.5, 0.25, 5e-324])
        items = (fc.Witness((1, 4), 1.5, 0.5), fc.Witness((2, 5), -0.0, 0.25),
                 fc.Witness((3, 6), 2.5, 5e-324))
        assert len(w) == 3 and w
        assert w == items and items == w and w == fc.Witnesses(w.i, w.j, w.lhs, w.rhs)
        assert w != items[:2] and w != items[::-1] and w != list(items)
        assert tuple(w) == items and list(reversed(w)) == list(items[::-1])
        assert (w[0], w[-1], w[-3]) == (items[0], items[2], items[0])
        assert type(w[0].indices[0]) is int and type(w[0].lhs) is float
        assert math.copysign(1.0, w[1].lhs) == -1.0
        assert w.index(items[1]) == 1 and items[2] in w
        for k in (3, -4):
            with pytest.raises(IndexError):
                w[k]
        assert sum(c.nbytes for c in (w.i, w.j, w.lhs, w.rhs)) == 32 * len(w)
        with pytest.raises(ValueError):
            w.rhs[0] = 1.0
        empty = fc.Witnesses([], [], [], [])
        assert len(empty) == 0 and not empty and empty == () and () == empty
        assert list(empty) == [] and empty != items
        for columns in (([1], [2, 3], [1.0], [0.0]), ([[1]], [[2]], [[1.0]], [[0.0]])):
            with pytest.raises(fc.GridError, match="1-D and of one length"):
                fc.Witnesses(*columns)


class TestGridFunction:
    def test_construction_and_abscissas(self):
        f = fc.GridFunction(1.0, 0.5, [0.0, 1.0, 4.0])
        assert f.n == 2
        assert f.x(2) == 2.0
        assert np.array_equal(f.xs(), np.array([1.0, 1.5, 2.0]))

    def test_index_abscissa_mapping_is_direct(self):
        f = fc.GridFunction(0.1, 0.7, np.zeros(50))
        for i in (0, 7, 23, 49):
            assert f.x(i) == 0.1 + i * 0.7

    def test_values_are_read_only(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    @pytest.mark.parametrize(
        "origin,step,values",
        [
            (0.0, 1.0, [0.0]),
            (0.0, 0.0, [0.0, 1.0]),
            (0.0, -1.0, [0.0, 1.0]),
            (float("inf"), 1.0, [0.0, 1.0]),
            (0.0, 1.0, [0.0, float("nan")]),
            (0.0, 1.0, [0.0, float("inf")]),
        ],
    )
    def test_rejects_invalid_input(self, origin, step, values):
        with pytest.raises(fc.GridError):
            fc.GridFunction(origin, step, values)

    def test_arithmetic(self):
        f = fc.GridFunction(0.0, 1.0, [1.0, 2.0, 3.0])
        g = fc.GridFunction(0.0, 1.0, [0.5, 0.5, 0.5])
        assert np.array_equal((f + g).values, [1.5, 2.5, 3.5])
        assert np.array_equal((f - g).values, [0.5, 1.5, 2.5])
        assert np.array_equal((-f).values, [-1.0, -2.0, -3.0])
        assert np.array_equal((2.0 * f).values, [2.0, 4.0, 6.0])
        assert np.array_equal((f**2).values, [1.0, 4.0, 9.0])

    def test_power_rejects_a_non_positive_exponent(self):
        f = fc.GridFunction(0.0, 1.0, [1.0, 2.0])
        message = r"^pointwise power expects a positive integer, got 0$"
        with pytest.raises(fc.GridError, match=message):
            f**0

    def test_arithmetic_rejects_mismatched_grids(self):
        f = fc.GridFunction(0.0, 1.0, [1.0, 2.0])
        g = fc.GridFunction(0.0, 0.5, [1.0, 2.0])
        with pytest.raises(fc.GridError):
            f + g

    def test_equality_is_bit_exact(self):
        f = fc.GridFunction(0.0, 1.0, [1.0, 2.0])
        g = fc.GridFunction(0.0, 1.0, [1.0, 2.0])
        h = fc.GridFunction(0.0, 1.0, [1.0, 2.0 + 1e-16])
        assert f == g
        assert f == h  # 2.0 + 1e-16 rounds to 2.0 in double precision
        assert f != fc.GridFunction(0.0, 1.0, [1.0, 2.5])


class TestSample:
    def test_expression_square(self):
        f = fc.sample("x^2", 0, 0.25, 5)
        assert np.array_equal(f.values, [0.0, 0.0625, 0.25, 0.5625, 1.0])

    def test_zero_function(self):
        f = fc.sample("0", 0, 1, 2)
        assert np.array_equal(f.values, [0.0, 0.0])

    def test_sqrt_against_independent_roots(self):
        f = fc.sample("sqrt(x)", 0, 0.25, 5)
        expected = [math.sqrt(0.25 * i) for i in range(5)]
        assert np.allclose(f.values, expected, rtol=0, atol=0)

    def test_callable_source(self):
        f = fc.sample(lambda t: 2 * t, 0, 0.5, 3)
        assert np.array_equal(f.values, [0.0, 1.0, 2.0])

    def test_table_source(self):
        f = fc.sample([3.0, 1.0, 2.0], 0, 1, 3)
        assert np.array_equal(f.values, [3.0, 1.0, 2.0])
        with pytest.raises(fc.GridError):
            fc.sample([3.0, 1.0], 0, 1, 3)

    def test_rejects_non_finite_with_abscissa(self):
        with pytest.raises(fc.GridError, match="x=0.0"):
            fc.sample("log(x)", 0, 0.5, 3)
        with pytest.raises(fc.GridError, match="x=1.0"):
            fc.sample(lambda t: float("inf") if t == 1.0 else 0.0, 0, 0.5, 3)

    def test_rejects_small_count(self):
        with pytest.raises(fc.GridError):
            fc.sample("x", 0, 1, 1)

    # both counts lie past any address space: numpy refuses them without allocating
    @pytest.mark.parametrize("count", [2**50, 2**62])
    def test_count_past_the_address_space_names_the_bytes(self, count):
        message = rf"^cannot hold {count} samples: {8 * count} bytes needed$"
        with pytest.raises(fc.GridError, match=message):
            fc.sample("x", 0, 1.0, count)

    @pytest.mark.parametrize("step", [0.0, math.inf])
    def test_rejects_zero_or_infinite_step(self, step):
        with pytest.raises(fc.GridError, match=rf"^step must be finite and > 0, got {step}$"):
            fc.sample("x", 0, step, 3)


class TestCsv:
    def test_literal_read(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n1,1\n2,4\n")
        f = read_csv(path)
        assert f.origin == 0.0
        assert f.step == 1.0
        assert np.array_equal(f.values, [0.0, 1.0, 4.0])

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y\n0,0\n1,1\n2,4\n")
        assert np.array_equal(read_csv(path).values, [0.0, 1.0, 4.0])

    def test_round_trip_is_bit_exact(self, tmp_path):
        f = fc.sample("x^2", 0, 0.25, 5)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert read_csv(path) == f

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_on_arbitrary_finite_values(self, values, tmp_path_factory):
        f = fc.GridFunction(0.0, 0.5, values)
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        write_csv(f, path)
        assert read_csv(path) == f

    @pytest.mark.parametrize("step", [1e-12, 1e3])
    @pytest.mark.parametrize("count", [5, 100_001])
    def test_round_trip_is_bit_exact_at_extreme_steps(self, step, count, tmp_path):
        f = fc.GridFunction(0.0, step, np.random.default_rng(3).uniform(-1.0, 1.0, count))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert read_csv(path) == f

    def test_abscissa_roundoff_from_a_shifted_origin_is_accepted(self, tmp_path):
        # written x = 1 + k * 1e-6 drift from the re-read step by ~1e-5 steps
        f = fc.GridFunction(1.0, 1e-6, np.zeros(100_001))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert read_csv(path).step == pytest.approx(1e-6, rel=1e-9)

    def test_spacing_below_absolute_tolerance_is_still_checked(self, tmp_path):
        # a tolerance wider than the step must not hide a row 498 steps off the grid
        path = tmp_path / "f.csv"
        path.write_text("0,1\n1e-12,2\n5e-10,3\n")
        with pytest.raises(fc.GridError, match="line 3: non-uniform spacing"):
            read_csv(path)

    def test_non_uniform_spacing_reports_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n1,1\n2.5,4\n")
        with pytest.raises(fc.GridError, match="line 3"):
            read_csv(path)
        # two bad rows: the earlier one in file order is named
        path.write_text("0,0\n1,1\n2,4\n3.5,9\n4,16\n5.5,25\n")
        with pytest.raises(fc.GridError, match="line 4: non-uniform spacing, x=3.5 "):
            read_csv(path)

    def test_decreasing_x_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n-1,1\n-2,4\n")
        with pytest.raises(fc.GridError):
            read_csv(path)

    def test_repeated_x_after_line_2_rejected(self, tmp_path):
        # 2^53 - 1, 2^53, 2^53: the expected x of row 3, 2^53 + 1, rounds onto the repeat,
        # so the row is on the grid and only the order check rejects it
        path = tmp_path / "f.csv"
        path.write_text("9007199254740991,0\n9007199254740992,1\n9007199254740992,2\n")
        with pytest.raises(fc.GridError, match=r"^line 3: x column must be strictly increasing$"):
            read_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n")
        with pytest.raises(fc.GridError):
            read_csv(path)

    def test_non_utf8_bytes_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"x,y\n0,0\n1,\xff\n")
        with pytest.raises(fc.GridError, match=r"latin\.csv: not UTF-8 text .* at byte offset 10"):
            read_csv(path)

    def test_byte_order_mark_is_not_part_of_line_1(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1\n1,2\n2,5\n")
        f = read_csv(path)
        assert (f.origin, f.step, f.values.tolist()) == (0.0, 1.0, [1.0, 2.0, 5.0])
        path.write_bytes(b"\xef\xbb\xbfx,y\n0,1\n1,2\n")
        assert read_csv(path).values.tolist() == [1.0, 2.0]

    def test_byte_order_mark_keeps_decode_offsets_in_file_bytes(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa\xff")
        with pytest.raises(fc.GridError, match=r"bom\.csv: not UTF-8 text .* at byte offset 4\)$"):
            read_csv(path)

    def test_overflowing_step_rejected_naming_line_2(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("-1.7e308,1\n1.7e308,2\n")
        with pytest.raises(fc.GridError, match="line 2: x step .* overflows"):
            read_csv(path)

    def test_grid_past_the_float_range_rejected_without_a_warning(self, tmp_path):
        # the step is finite, but origin + 2 * step is not a double
        path = tmp_path / "f.csv"
        path.write_text("-1e308,1\n0,2\n1e308,3\n")
        match = r"line 3: non-uniform spacing, x=1e\+308 but expected inf"
        with pytest.raises(fc.GridError, match=match):
            read_csv(path)

    def test_grid_at_the_top_of_the_float_range_is_read(self, tmp_path):
        # the acceptance margin of the last row overflows to inf and accepts
        top = float(np.finfo(np.float64).max)
        below = float(np.nextafter(top, 0.0))
        path = tmp_path / "f.csv"
        path.write_text(f"{below!r},1\n{top!r},2\n")
        f = read_csv(path)
        assert (f.origin, f.origin + f.step) == (below, top)


# --- malformed files ---------------------------------------------------------
# Whatever the bytes, reading either returns a grid or raises GridError; under
# the suite's warning filter a RuntimeWarning from numpy counts as a failure.

FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
NON_FINITE_TOKENS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"]
BAD_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc0", b"\xe2\x28\xa1"]


@st.composite
def csv_grid_lines(draw):
    """Rows of a valid uniform grid, as ``write_csv`` writes them."""
    origin = draw(st.floats(-1e6, 1e6))
    step = draw(st.floats(1e-3, 1e3))
    values = draw(st.lists(FINITE, min_size=2, max_size=8))
    return [f"{origin + i * step!r},{v!r}" for i, v in enumerate(values)]


def csv_line():
    number = st.one_of(FINITE, st.floats(min_value=1e307), st.floats(max_value=-1e307)).map(repr)
    token = st.one_of(number, st.sampled_from(NON_FINITE_TOKENS + ["x", "y", "", " "]))
    return st.one_of(
        st.tuples(number, number).map(",".join),  # a data row
        st.lists(token, max_size=4).map(",".join),  # ragged, empty, non-finite or text
    )


def _read(reader, tmp_path_factory, data: bytes):
    path = tmp_path_factory.mktemp("malformed") / "f"
    path.write_bytes(data)
    try:
        return reader(path)
    except fc.GridError as exc:
        return exc


class TestMalformedCsv:
    @given(
        lines=st.lists(csv_line(), max_size=8),
        junk=st.one_of(st.just(b""), st.sampled_from(BAD_UTF8), st.binary(max_size=3)),
        at=st.integers(0, 400),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_file_reads_or_raises_grid_error(self, lines, junk, at, tmp_path_factory):
        data = "\n".join(lines).encode()
        got = _read(read_csv, tmp_path_factory, data[:at] + junk + data[at:])
        assert isinstance(got, (fc.GridFunction, fc.GridError))

    @given(lines=csv_grid_lines(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ragged_row_is_named(self, lines, data, tmp_path_factory):
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        lines[k] = ",".join(data.draw(st.sampled_from([fields[:1], fields + ["0"], fields * 2])))
        got = _read(read_csv, tmp_path_factory, "\n".join(lines).encode())
        assert isinstance(got, fc.GridError)
        assert f"line {k + 1}: expected two columns" in str(got)

    @given(lines=csv_grid_lines(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_token_is_named(self, lines, data, tmp_path_factory):
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        fields[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(NON_FINITE_TOKENS))
        lines[k] = ",".join(fields)
        got = _read(read_csv, tmp_path_factory, "\n".join(lines).encode())
        assert isinstance(got, fc.GridError)
        assert f"line {k + 1}: non-finite entry" in str(got)

    @given(lines=csv_grid_lines(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_header_after_line_1_is_named(self, lines, data, tmp_path_factory):
        k = data.draw(st.integers(1, len(lines)))
        lines.insert(k, data.draw(st.sampled_from(["x,y", "a,b", "x,1", "1,y"])))
        got = _read(read_csv, tmp_path_factory, "\n".join(lines).encode())
        assert isinstance(got, fc.GridError)
        assert f"line {k + 1}: could not parse numbers" in str(got)

    @given(lines=csv_grid_lines(), junk=st.sampled_from(BAD_UTF8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_utf8_bytes_are_rejected(self, lines, junk, data, tmp_path_factory):
        text = "\n".join(lines).encode()
        at = data.draw(st.integers(0, len(text)))
        got = _read(read_csv, tmp_path_factory, text[:at] + junk + text[at:])
        assert isinstance(got, fc.GridError)
        assert "not UTF-8 text" in str(got)

    @given(
        low=st.floats(9e307, 1.7976931348623157e308),
        high=st.floats(9e307, 1.7976931348623157e308),
        ys=st.lists(FINITE, min_size=2, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_overflowing_spacing_is_rejected_at_line_2(self, low, high, ys, tmp_path_factory):
        xs = [-low, high] + [high] * (len(ys) - 2)
        text = "\n".join(f"{x!r},{y!r}" for x, y in zip(xs, ys))
        got = _read(read_csv, tmp_path_factory, text.encode())
        assert isinstance(got, fc.GridError)
        assert "line 2: x step" in str(got)


# --- read_csv against the per-line reference ---------------------------------
# Every str.splitlines break, and lines that are blank, headers, Unicode digits,
# underscores, ragged, non-finite or padded with whitespace that float() does
# not strip by itself.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD_LINES = [
    "", " ", "\t", "\x1f", "\xa0 ", "x,y", "a,b", "x,1", "1_0,2", "\u0661.\u0665,1", "0,1,2",
    "1,2,", ",", "nan,1", "0, inf", " 0 , 1 ", "\x1f0,1\x1f", "0,\x1f", "1 0,2", "0x1,2",
]


@st.composite
def csv_text(draw):
    """A CSV text near a valid grid: odd lines, repeated rows, any breaks, a BOM."""
    lines = draw(st.one_of(csv_grid_lines(), csv_grid_lines(), st.lists(csv_line(), max_size=8)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["odd", "any", "repeat"]))
        if kind == "repeat" and lines:  # off the grid, or not increasing
            lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
        elif kind == "odd":
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
        else:
            lines.insert(at, draw(csv_line()))
    breaks = st.sampled_from(LINE_BREAKS) if draw(st.booleans()) else st.just("\n")
    text = "".join(line + draw(breaks) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(LINE_BREAKS))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(reader, path):
    """A grid's origin, step and value bits, or the message of the GridError."""
    try:
        f = reader(path)
    except fc.GridError as exc:
        return str(exc)
    return repr(f.origin), repr(f.step), f.values.tobytes()


class TestReadCsvAgainstRows:
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @given(text=csv_text())
    @settings(max_examples=300, deadline=None)
    def test_same_grid_or_message_across_block_boundaries(self, chunk, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(grid, "_CHUNK", chunk):
            assert _outcome(read_csv, path) == _outcome(read_csv_rows, path)

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeff0,1\n1,2\n2,5\n",
            "x,y\r\n0,1\r\n1,2\r\n",
            "\n \n0,1\n\t\n1,2\n\n",
            "x,y\n0,1\nx,y\n",
            "\u0660,1_0\n\u0661.\u0665e0,2\n3,3\n",
            "0,1\u20281,2\u20292,3\x854,4",
            "0,1\n1,2\n2,3,4\n",
            "0,1\n1,2,\n",
            "0,1\n1,2\n2,3,",
            "0,1\n1,inf\n2,x\n",
            "0,1\n1,x\n2,inf\n",
            "0,1\ninf,x\n",
            "0,1\n1,2\nstray\n",
            "\x1f0,1\x1f\n1,\x1f2\n",
            "0,1\n1,2\n2.5,3\n",
            "0,1\n1,2\n1,3\n",
            "",
            "x,y",
        ],
    )
    def test_same_grid_or_message_on_named_cases(self, text, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        for chunk in (1, 2, grid._CHUNK):
            with mock.patch.object(grid, "_CHUNK", chunk):
                assert _outcome(read_csv, path) == _outcome(read_csv_rows, path), chunk

    def test_large_file_in_several_blocks(self, tmp_path):
        f = fc.GridFunction(-2.0, 1e-3, np.random.default_rng(5).normal(size=60_001))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert _outcome(read_csv, path) == _outcome(read_csv_rows, path)
        text = path.read_text()
        at = text.index("\n", len(text) // 2) + 1
        path.write_text(text[:at] + "0,1,2\n" + text[at:])  # a ragged row in a later block
        message = _outcome(read_csv, path)
        assert message == _outcome(read_csv_rows, path)
        assert message == f"line {text.count(chr(10), 0, at) + 1}: expected two columns, got 3"


def json_value():
    scalar = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
        st.integers(min_value=10**300, max_value=10**400),
    )
    return st.recursive(scalar, lambda inner: st.lists(inner, max_size=3), max_leaves=8)


class TestMalformedJson:
    @given(
        doc=st.one_of(
            json_value(),
            st.fixed_dictionaries(
                {"origin": json_value(), "step": json_value(), "values": json_value()}
            ),
            st.fixed_dictionaries(
                {"origin": st.floats(), "step": st.floats(), "values": st.lists(st.floats())}
            ),
        ),
        junk=st.one_of(st.just(b""), st.sampled_from(BAD_UTF8)),
        at=st.integers(0, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_document_reads_or_raises_grid_error(self, doc, junk, at, tmp_path_factory):
        data = json.dumps(doc).encode()  # NaN and Infinity become bare tokens
        got = _read(read_json, tmp_path_factory, data[:at] + junk + data[at:])
        assert isinstance(got, (fc.GridFunction, fc.GridError))

    @given(values=st.lists(FINITE, min_size=2, max_size=8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_finite_value_is_named(self, values, data, tmp_path_factory):
        k = data.draw(st.integers(0, len(values) - 1))
        values[k] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        text = json.dumps({"origin": 0.0, "step": 1.0, "values": values})
        got = _read(read_json, tmp_path_factory, text.encode())
        assert isinstance(got, fc.GridError)
        assert f"non-finite value {values[k]} at index {k}" in str(got)


def _writer_grids():
    rng = np.random.default_rng(7)
    return [
        fc.GridFunction(0.0, 0.25, [0.0, -0.0, 5e-324, -1.5, 1e300]),
        fc.GridFunction(-3.0, 1e-6, rng.normal(size=40001)),  # past two write blocks
        fc.GridFunction(1.0, 1e-6, np.zeros(1001)),  # abscissae with roundoff
        fc.GridFunction(-0.0, 0.1, rng.uniform(-1e-310, 1e-310, 50)),
        fc.GridFunction(1e308, 1e308, [0.0, 1.0, 2.0]),  # the last abscissa is inf
    ]


class TestWriters:
    """The array writers give the bytes the per-element formatting gave."""

    @pytest.mark.parametrize("f", _writer_grids(), ids=range(5))
    def test_csv_bytes_match_per_row_formatting(self, f, tmp_path):
        path = tmp_path / "f.csv"
        write_csv(f, path)
        rows = [f"{f.x(i)!r},{float(v)!r}" for i, v in enumerate(f.values)]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("f", _writer_grids(), ids=range(5))
    def test_json_bytes_match_per_value_conversion(self, f, tmp_path):
        path = tmp_path / "f.json"
        write_json(f, path)
        old = {"origin": f.origin, "step": f.step, "values": [float(v) for v in f.values]}
        assert path.read_bytes() == (json.dumps(old) + "\n").encode()
        assert all(type(v) is float for v in f.to_dict()["values"])


class TestJson:
    def test_round_trip(self, tmp_path):
        f = fc.sample("x^2", 0, 0.25, 5)
        path = tmp_path / "f.json"
        write_json(f, path)
        assert read_json(path) == f

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b'\xef\xbb\xbf{"origin": 0, "step": 1, "values": [1, 2]}')
        assert read_json(path) == fc.GridFunction(0.0, 1.0, [1.0, 2.0])

    def test_dict_shape(self):
        f = fc.GridFunction(1.0, 0.5, [0.0, 2.0])
        assert f.to_dict() == {"origin": 1.0, "step": 0.5, "values": [0.0, 2.0]}

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"origin": 0.0, "values": [1, 2]}')
        with pytest.raises(fc.GridError):
            read_json(path)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[1, 2]")
        with pytest.raises(fc.GridError, match="must be an object, got list"):
            read_json(path)

    def test_non_list_values_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"origin": 0, "step": 1, "values": 5}')
        with pytest.raises(fc.GridError, match="'values' must be a list"):
            read_json(path)

    def test_nested_values_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"origin": 0, "step": 1, "values": [[1, 2], [3, 4]]}')
        with pytest.raises(fc.GridError, match="non-numeric 'values'"):
            read_json(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"origin": 0, "step": 1, "values": [' + "1" * 5000 + ", 2]}",  # int digit limit
            '{"origin": 0, "step": 1, "values": [1e0, ' + "1" * 400 + "]}",  # overflows a double
            "[" * 100_000 + "]" * 100_000,  # nesting beyond the decoder's recursion
        ],
        ids=["long-integer", "huge-integer", "deep-nesting"],
    )
    def test_numbers_and_nesting_beyond_range_rejected(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(fc.GridError):
            read_json(path)

    @pytest.mark.parametrize("key", ["origin", "step"])
    def test_non_numeric_origin_or_step_rejected(self, tmp_path, key):
        d = {"origin": 0, "step": 1, "values": [1, 2]} | {key: "a"}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(d))
        with pytest.raises(fc.GridError, match=f"non-numeric '{key}'"):
            read_json(path)

    def test_non_utf8_bytes_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"origin": 0.0, "step": 1.0, "values": [1, 2]} \xff')
        with pytest.raises(fc.GridError, match=r"latin\.json: not UTF-8 text"):
            read_json(path)


def _repr_lines(values) -> bytes:
    """What ``grid.repr_bytes`` must give: each ``repr``, then a newline."""
    return "".join(repr(v) + "\n" for v in np.asarray(values, np.float64).tolist()).encode()


def _with_neighbours(values) -> np.ndarray:
    """``values`` and their negatives, each with the doubles on either side."""
    v = np.asarray(values, np.float64)
    v = np.concatenate([v, -v])
    with np.errstate(over="ignore"):  # past the largest double is inf
        v = np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)])
    return v[np.isfinite(v)]


def _interval_boundaries() -> np.ndarray:
    """Doubles half a spacing from a short decimal ``c * 10**t``, c odd.

    With ``c * 5**t`` in ``[2**53, 2**54]``, ``x = m * 2**(t + 1)`` for
    ``m = (c * 5**t -+ 1) / 2`` has ``c * 10**t`` exactly on the edge of its
    rounding interval, which reads back as ``x`` iff ``m`` is even.
    """
    out = []
    for t in range(24):  # 5**24 > 2**54
        first = 2**53 // 5**t | 1
        for c in range(first, first + 80, 2):
            for m in ((c * 5**t - 1) // 2, (c * 5**t + 1) // 2):
                if 2**52 <= m < 2**53:
                    out.append(float(m * 2 ** (t + 1)))
    return np.array(out)


class TestReprBytes:
    """``grid.repr_bytes`` and the CSV writer give ``repr``'s bytes exactly."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_patterns(self, patterns):
        values = np.array(patterns, np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert grid.repr_bytes(values) == _repr_lines(values)

    def test_values_with_few_decimal_places_and_their_neighbours(self):
        rng = np.random.default_rng(24)
        texts = [f"{m}e-{places}" for places in range(9)
                 for m in rng.integers(1, 10**9, 400).tolist()]
        values = _with_neighbours([float(t) for t in texts])
        assert grid.repr_bytes(values) == _repr_lines(values)

    def test_powers_of_two_and_ten(self):
        values = np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
            [float(f"1e{k}") for k in range(-323, 309)],
        ])
        values = _with_neighbours(values[values > 0])
        assert grid.repr_bytes(values) == _repr_lines(values)

    def test_powers_of_two_whose_symmetric_interval_admits_a_shorter_decimal(self):
        # 1.844674407370955e+19 is within half a spacing below 2**64, but the
        # double below 2**64 lies only a quarter spacing away: it reads back as that
        values = np.array([2.0**64, 2.0**-44, -(2.0**-98), 2.0**185])
        assert grid.repr_bytes(values) == _repr_lines(values)
        assert grid.repr_bytes(values) == (
            b"1.8446744073709552e+19\n5.684341886080802e-14\n"
            b"-3.1554436208840472e-30\n4.9039857307708443e+55\n")

    def test_integers(self):
        values = np.concatenate([
            np.arange(-100_000, 100_000, 7), 2.0**53 + np.arange(-8, 9),
            1e16 + np.arange(-8, 9), [2.0**63, 1e22, 1e23, 123456789012345678.0],
        ])
        assert grid.repr_bytes(values) == _repr_lines(values)

    def test_exponent_switch_and_named_edges(self):
        values = _with_neighbours([
            1e-4, 1e-5, 1e16, 1e17, 9999999999999998.0, 0.0, 5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-280, 1e280, 0.1, 0.5, 1.0, 1.5, 12345.678,
            # computed just below 1e16 after the exponent estimate: the digits start at 9
            float.fromhex("0x1.e392010175ee5p-74"), float.fromhex("0x1.ef2d0f5da7dd8p-84"),
        ])
        assert grid.repr_bytes(values) == _repr_lines(values)
        assert grid.repr_bytes(np.array([1e-4, 1e-5, 1e16, 1e15, -0.0, 5e-324])) == (
            b"0.0001\n1e-05\n1e+16\n1000000000000000.0\n-0.0\n5e-324\n")

    def test_values_beyond_the_scaled_range(self):
        values = _with_neighbours(np.concatenate([
            np.geomspace(5e-324, 1e-279, 2000), np.geomspace(1e279, 1e308, 2000),
            [1.7976931348623157e308],
        ]))
        assert grid.repr_bytes(values) == _repr_lines(values)

    def test_rounding_ties_and_interval_boundaries(self):
        # y = x * 10**23 is a half-integer, within the scaling's error of a tie,
        # and decimals exactly half a spacing from x
        ties = [odd * 2.0**-24 for odd in range(3, 17, 2)] + [3 * 2.0**-25]
        values = _with_neighbours(np.concatenate([ties, _interval_boundaries()]))
        assert grid.repr_bytes(values) == _repr_lines(values)

    def test_separator_non_finite_and_empty(self):
        values = np.array([1.5, -np.inf, np.nan, np.inf, -2.0])
        assert grid.repr_bytes(values, b",") == b"1.5,-inf,nan,inf,-2.0,"
        assert grid.repr_bytes(np.zeros(0)) == b""

    @pytest.mark.parametrize("block, sizes", [
        (1, [1, 2, 40]), (7, [6, 7, 8, 14, 15, 40]), (8192, [8191, 8192, 8193, 2 * 8192 + 9]),
    ])
    def test_blocks_of_any_size(self, monkeypatch, block, sizes):
        monkeypatch.setattr(grid, "_REPR_BLOCK", block)
        rng = np.random.default_rng(block)
        values = np.concatenate([rng.uniform(-50, 50, max(sizes) - 6), np.zeros(5), [2.0**64]])
        for size in sizes:
            assert grid.repr_bytes(values[:size]) == _repr_lines(values[:size]), size
            assert grid.repr_bytes(values[-size:]) == _repr_lines(values[-size:]), size


class TestWriteColumns:
    """``write_csv`` and ``--plot-csv`` files match the per-cell oracle writer."""

    @pytest.mark.parametrize("kind, count", [("sin", 100_001), ("explogcos", 200_001)])
    def test_periodic_benchmark_files(self, tmp_path, kind, count):
        # the two CSV files of the periodic-long benchmark workload, coefficients from its ranges
        x = np.arange(count) * (50.0 / (count - 1))
        if kind == "sin":
            y = x + 0.28 * np.sin(2 * np.pi * x)
        else:
            y = x + 0.17 * np.log(2 + np.cos(2 * np.pi * x)) + 0.22 * np.exp(np.sin(2 * np.pi * x))
        f = fc.GridFunction(0.0, x[1], y)
        write_csv(f, tmp_path / "new.csv")
        write_columns_repr(tmp_path / "old.csv", (f.xs(), f.values))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193])
    def test_rows_at_block_boundaries_with_a_header(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = [rng.uniform(-1, 1, rows), np.zeros(rows), rng.integers(-9, 9, rows) * 0.5]
        grid._write_columns(tmp_path / "new.csv", columns, "a,b,c")
        write_columns_repr(tmp_path / "old.csv", columns, "a,b,c")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
