import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funclass as fc
from funclass.grid import read_csv, read_json, write_csv, write_json


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

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0\n")
        with pytest.raises(fc.GridError):
            read_csv(path)


class TestJson:
    def test_round_trip(self, tmp_path):
        f = fc.sample("x^2", 0, 0.25, 5)
        path = tmp_path / "f.json"
        write_json(f, path)
        assert read_json(path) == f

    def test_dict_shape(self):
        f = fc.GridFunction(1.0, 0.5, [0.0, 2.0])
        assert f.to_dict() == {"origin": 1.0, "step": 0.5, "values": [0.0, 2.0]}

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"origin": 0.0, "values": [1, 2]}')
        with pytest.raises(fc.GridError):
            read_json(path)
