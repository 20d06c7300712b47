import math
from fractions import Fraction

import numpy as np
import pytest

import funclass as fc
from funclass import starconvex
from funclass.oracle import (
    center_check_hires,
    is_center_bruteforce,
    region_star_check_bruteforce,
)
from funclass.starconvex import RegionKind, RegionSpec, ShapeClass, StarWitness

PI = math.pi


@pytest.fixture(scope="module")
def square():
    return fc.sample("x^2", -1, 0.25, 9)


@pytest.fixture(scope="module")
def cube():
    return fc.sample("x^3", -1, 0.125, 17)


@pytest.fixture(scope="module")
def sine():
    return fc.sample("sin(x)", 0, PI / 16, 33)


# (expression, grid) catalog used by several properties
def catalog():
    return [
        ("x^2", fc.sample("x^2", -1, 0.25, 9)),
        ("x^3", fc.sample("x^3", -1, 0.125, 17)),
        ("sin(x)", fc.sample("sin(x)", 0, PI / 16, 33)),
        ("abs(x)", fc.sample("abs(x)", -1, 0.25, 9)),
        ("x", fc.sample("x", 0, 0.25, 9)),
    ]


class TestIsCenter:
    def test_convex_everywhere(self, square):
        assert all(fc.is_center(square, p) for p in range(9))

    def test_cube_endpoint_is_not_center(self, cube):
        # the chord from (1, 1) to (-1, -1) is the line y = x, which crosses
        assert not fc.is_center(cube, 16)

    def test_cube_origin_is_center(self, cube):
        assert fc.is_center(cube, 8)

    def test_out_of_range_index(self, square):
        with pytest.raises(fc.GridError):
            fc.is_center(square, 9)
        with pytest.raises(fc.GridError):
            fc.is_center(square, -1)

    @pytest.mark.parametrize("p", [3.0, True, "3", None], ids=repr)
    def test_non_integer_index_rejected(self, square, p):
        with pytest.raises(fc.GridError, match=r"^center index must be an integer, got "):
            fc.is_center(square, p)

    def test_numpy_integer_index_accepted(self, square):
        assert fc.is_center(square, np.int64(3)) is fc.is_center(square, 3)


class TestCentralSet:
    def test_square_all_indices(self, square):
        rep = fc.central_set(square)
        assert rep.centers == tuple(range(9))
        assert rep.is_star_convex

    def test_cube_origin_among_centers(self, cube):
        rep = fc.central_set(cube)
        assert 8 in rep.centers
        assert 16 not in rep.centers
        # sampling artifact: the immediate neighbors of 0 are centers of the
        # sampled data (their only crossing chord meets the grid exactly at 0)
        assert set(rep.centers) == {7, 8, 9}

    def test_pi_index_is_center_of_sine(self, sine):
        rep = fc.central_set(sine)
        assert 16 in rep.centers

    def test_classes_cover_centers(self, square):
        rep = fc.central_set(square)
        assert set(rep.per_center_class) == set(rep.centers)
        assert all(c is ShapeClass.CONVEX_CONVEX for c in rep.per_center_class.values())

    def test_large_constant_grid_is_all_centers(self):
        f = fc.GridFunction(0.0, 1.0, np.zeros(600))
        assert fc.central_set(f).centers == tuple(range(600))

    def test_constant_grid_at_zero_tolerance_skips_the_ordinate_check(self, monkeypatch):
        calls = []
        first_exit = starconvex._first_exit

        def counted(*args):
            calls.append(args)
            return first_exit(*args)

        monkeypatch.setattr(starconvex, "_first_exit", counted)
        f = fc.GridFunction(0.0, 1.0, np.ones(257))
        assert fc.central_set(f, fc.Tolerance(0.0, 0.0)).centers == tuple(range(257))
        assert calls == []

    def test_large_sine_keeps_its_middle_center(self):
        f = fc.sample("sin(x)", 0, 2 * PI / 2048, 2049)
        assert 1024 in fc.central_set(f).centers

    def test_json_shape(self, cube):
        d = fc.central_set(cube).to_dict()
        assert d["is_star_convex"] is True
        assert d["classes"]["8"] == "conc-conv"


class TestClassifyShape:
    def test_cube_at_origin_is_concave_convex(self, cube):
        assert fc.classify_shape(cube, 8) is ShapeClass.CONCAVE_CONVEX

    def test_absolute_value_ties_to_convex_convex(self):
        f = fc.sample("abs(x)", -1, 0.25, 9)
        assert fc.classify_shape(f, 4) is ShapeClass.CONVEX_CONVEX

    def test_sine_at_pi(self, sine):
        assert fc.classify_shape(sine, 16) is ShapeClass.CONCAVE_CONVEX

    def test_sine_off_split_is_mixed(self, sine):
        assert fc.classify_shape(sine, 8) is ShapeClass.MIXED

    def test_out_of_range_index(self, square):
        with pytest.raises(fc.GridError, match=r"^split index 9 out of range \[0, 8\]$"):
            fc.classify_shape(square, 9)

    @pytest.mark.parametrize("p", [4.0, True], ids=repr)
    def test_non_integer_index_rejected(self, square, p):
        with pytest.raises(fc.GridError, match=r"^split index must be an integer, got "):
            fc.classify_shape(square, p)

    def test_matches_the_four_branch_rule(self):
        rng = np.random.default_rng(97)
        grids = []
        for _ in range(150):
            n = int(rng.integers(2, 16))
            x = np.linspace(-1.0, 1.0, n)
            split = rng.uniform(-1.0, 1.0)
            scale = 10.0 ** int(rng.integers(-9, 6))
            grids += [
                rng.normal(size=n),
                rng.integers(-2, 3, n).astype(float),  # exact ties and affine stretches
                scale * np.where(x < split, -(x - split) ** 2, (x - split) ** 2),
                scale * np.abs(x - split) + rng.normal(scale=1e-3, size=n),
                np.cumsum(np.cumsum(rng.normal(scale=1e-6, size=n))),  # d2 near 1e-6
                0.3 + 0.1 * np.arange(n),  # collinear, not dyadic
            ]
        for values in grids:
            f = fc.GridFunction(-1.0, 0.125, values)
            for tol in (fc.Tolerance(), fc.Tolerance(0.0, 0.0), fc.Tolerance(1e-3, 0.0),
                        fc.Tolerance(0.0, 1e-6)):
                for p in range(f.values.size):
                    assert fc.classify_shape(f, p, tol) is four_branch_class(f, p, tol), (f, p, tol)

    def test_constant_grid_near_the_float_range_is_convex_convex(self):
        f = fc.GridFunction(0.0, 1.0, [1e308] * 5)
        rep = fc.central_set(f)
        assert rep.centers == tuple(range(5))
        assert set(rep.per_center_class.values()) == {ShapeClass.CONVEX_CONVEX}

    def test_subnormal_second_difference_keeps_its_sign(self):
        # at full scale the second difference -5e-324 stays negative; at
        # quarter scale it would round to zero and tie to convex-convex
        f = fc.GridFunction(0.0, 1.0, [-5e-324, 0.0, 0.0])
        assert fc.classify_shape(f, 0, fc.Tolerance(0.0, 0.0)) is ShapeClass.CONCAVE_CONCAVE

    def test_degenerate_side_uses_other_side(self):
        f = fc.sample("x^2", 0, 0.25, 9)
        assert fc.classify_shape(f, 0) is ShapeClass.CONVEX_CONVEX

    def test_classified_split_is_a_center(self):
        for _, f in catalog():
            for p in range(f.values.size):
                if fc.classify_shape(f, p) is not ShapeClass.MIXED:
                    assert fc.is_center(f, p), (f, p)


class TestRegionStarCheck:
    def test_epigraph_of_convex_from_any_graph_point(self, square):
        for p in range(9):
            assert fc.region_star_check(square, RegionSpec(RegionKind.EPI), p).ok

    def test_hypograph_of_concave(self):
        f = fc.sample("sin(x)", 0, PI / 16, 17)  # concave arch on [0, pi]
        assert fc.region_star_check(f, RegionSpec(RegionKind.HYPO), 8).ok

    def test_random_convex_input(self):
        # discrete convexity: non-negative second differences everywhere
        rng = np.random.default_rng(71)
        for _ in range(15):
            n = int(rng.integers(3, 20))
            slopes = np.sort(rng.uniform(-1.0, 1.0, n))  # non-decreasing slopes
            vals = np.concatenate([[0.0], np.cumsum(slopes)]) + rng.uniform(-2, 2)
            f = fc.GridFunction(-1.0, 0.25, vals)
            rep = fc.central_set(f)
            assert rep.centers == tuple(range(n + 1))
            for p in range(0, n + 1, max(n // 3, 1)):
                assert fc.region_star_check(f, RegionSpec(RegionKind.EPI), p).ok

    def test_random_concave_input(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            n = int(rng.integers(3, 20))
            slopes = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]  # non-increasing
            vals = np.concatenate([[0.0], np.cumsum(slopes)]) + rng.uniform(-2, 2)
            f = fc.GridFunction(-1.0, 0.25, vals)
            rep = fc.central_set(f)
            assert rep.centers == tuple(range(n + 1))
            for p in range(0, n + 1, max(n // 3, 1)):
                assert fc.region_star_check(f, RegionSpec(RegionKind.HYPO), p).ok

    def test_sine_split_hypo_epi_at_pi(self, sine):
        spec = RegionSpec(RegionKind.SPLIT_HYPO_EPI, split_index=16)
        assert fc.region_star_check(sine, spec, 16).ok

    def test_sine_epigraph_from_pi_fails_with_witness(self, sine):
        rep = fc.region_star_check(sine, RegionSpec(RegionKind.EPI), 16)
        assert not rep.ok
        assert rep.witness is not None
        w = rep.witness
        # the witness must be a genuine exit: the segment dips below the graph
        assert w.segment_value < w.graph_value - 1e-9
        assert bool(rep) is False

    def test_split_requires_split_index(self):
        with pytest.raises(fc.GridError, match="split_index"):
            RegionSpec(RegionKind.SPLIT_EPI_HYPO)

    @pytest.mark.parametrize("kind", list(RegionKind))
    def test_string_kind_is_coerced(self, sine, kind):
        split = 16 if kind.is_split else None
        spec = RegionSpec(kind.value, split_index=split)
        assert spec.kind is kind
        assert fc.region_star_check(sine, spec, 16) == fc.region_star_check(
            sine, RegionSpec(kind, split_index=split), 16
        )

    @pytest.mark.parametrize("options, message", [
        ({"vertical_extent": 0.0}, r"^vertical_extent must be > 0, got 0\.0$"),
        ({"vertical_extent": math.inf}, r"^vertical_extent must be finite, got inf$"),
        ({"vertical_samples": 1}, r"^vertical_samples must be >= 2, got 1$"),
    ])
    def test_degenerate_vertical_sampling_rejected(self, options, message):
        with pytest.raises(fc.GridError, match=message):
            RegionSpec(RegionKind.EPI, **options)

    @pytest.mark.parametrize("values", [[0.0, 1e308, 1.5e308], [-1.5e308, 0.0, 0.0]], ids=str)
    def test_levels_past_the_float_range_rejected(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        message = r"^vertical_extent 1e\+308 takes the sampled levels past the float range"
        with pytest.raises(fc.GridError, match=message):
            fc.region_star_check(f, RegionSpec(RegionKind.EPI, vertical_extent=1e308), 1)

    def test_out_of_range_center(self, square):
        with pytest.raises(fc.GridError, match=r"^center index 9 out of range \[0, 8\]$"):
            fc.region_star_check(square, RegionSpec(RegionKind.EPI), 9)

    def test_out_of_range_split_index(self, square):
        with pytest.raises(fc.GridError, match=r"^split index 99 out of range$"):
            fc.region_star_check(square, RegionSpec("epi", split_index=99), 4)

    @pytest.mark.parametrize("p", [4.0, False], ids=repr)
    def test_non_integer_center_rejected(self, square, p):
        with pytest.raises(fc.GridError, match=r"^center index must be an integer, got "):
            fc.region_star_check(square, RegionSpec(RegionKind.EPI), p)

    @pytest.mark.parametrize("options, message", [
        ({"vertical_samples": 2.5}, r"^vertical_samples must be an integer, got 2\.5$"),
        ({"vertical_samples": True}, r"^vertical_samples must be an integer, got True$"),
        ({"vertical_samples": "64"}, r"^vertical_samples must be an integer, got '64'$"),
        # rejected before np.linspace could ask for 8 GB
        ({"vertical_samples": 10**9}, r"^vertical_samples must be <= 4096, got 1000000000$"),
        ({"vertical_samples": starconvex.MAX_VERTICAL_SAMPLES + 1}, r"^vertical_samples must be <= 4096, got 4097$"),
        ({"split_index": 4.0}, r"^split_index must be an integer, got 4\.0$"),
        ({"split_index": True}, r"^split_index must be an integer, got True$"),
        ({"vertical_extent": "1"}, r"^vertical_extent must be a real number, got '1'$"),
        ({"vertical_extent": None}, r"^vertical_extent must be a real number, got None$"),
        ({"vertical_extent": True}, r"^vertical_extent must be a real number, got True$"),
        ({"vertical_extent": np.True_}, r"^vertical_extent must be a real number, got "),
        ({"vertical_extent": 1j}, r"^vertical_extent must be a real number, got 1j$"),
        # too large for a float: not an OverflowError from math.isfinite
        pytest.param({"vertical_extent": 10**400}, r"^vertical_extent must be finite, got 10{400}$",
                     id="vertical_extent=10**400"),
    ], ids=repr)
    def test_hostile_spec_rejected(self, options, message):
        with pytest.raises(fc.GridError, match=message):
            RegionSpec(RegionKind.EPI, **options)

    @pytest.mark.parametrize("extent", [2, np.int64(2), np.float32(2.0), Fraction(2)], ids=repr)
    def test_real_vertical_extents_are_stored_as_float(self, square, extent):
        spec = RegionSpec(RegionKind.EPI, vertical_extent=extent)
        assert type(spec.vertical_extent) is float
        assert spec == RegionSpec(RegionKind.EPI, vertical_extent=2.0)
        assert fc.region_star_check(square, spec, 4) == fc.region_star_check(
            square, RegionSpec(RegionKind.EPI, vertical_extent=2.0), 4
        )

    def test_numpy_integers_are_stored_as_int(self, square):
        spec = RegionSpec(RegionKind.SPLIT_EPI_HYPO, np.int64(4), 1.0, np.int32(8))
        assert (type(spec.split_index), type(spec.vertical_samples)) == (int, int)
        assert spec == RegionSpec(RegionKind.SPLIT_EPI_HYPO, 4, 1.0, 8)
        assert fc.region_star_check(square, spec, 4) == fc.region_star_check(
            square, RegionSpec(RegionKind.SPLIT_EPI_HYPO, 4, 1.0, 8), 4
        )

    def test_largest_vertical_samples_accepted(self, square):
        spec = RegionSpec(RegionKind.EPI, vertical_samples=starconvex.MAX_VERTICAL_SAMPLES)
        assert fc.region_star_check(square, spec, 4).ok

    def test_unknown_kind_rejected(self):
        with pytest.raises(fc.GridError, match="unknown region kind 'bogus'"):
            RegionSpec("bogus")

    def test_split_index_must_match_center(self, sine):
        spec = RegionSpec(RegionKind.SPLIT_HYPO_EPI, split_index=16)
        with pytest.raises(fc.GridError, match="must equal"):
            fc.region_star_check(sine, spec, 12)

    def test_agrees_with_denser_vertical_sampling(self, square, sine):
        cases = [
            (square, RegionSpec(RegionKind.EPI), 4),
            (sine, RegionSpec(RegionKind.SPLIT_HYPO_EPI, split_index=16), 16),
            (sine, RegionSpec(RegionKind.EPI), 16),
        ]
        for f, spec, p in cases:
            dense = RegionSpec(
                spec.kind,
                split_index=spec.split_index,
                vertical_extent=spec.vertical_extent,
                vertical_samples=spec.vertical_samples * 4,
            )
            assert fc.region_star_check(f, spec, p).ok == fc.region_star_check(f, dense, p).ok


class TestNegationSymmetry:
    @staticmethod
    def _side_flags(f, p, tol=fc.Tolerance()):
        """(convex, concave) flags per side from second differences."""
        v = f.values
        margin = tol.abs + tol.rel * float(np.max(np.abs(v)))
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        out = []
        for side in (d2[: max(p - 1, 0)], d2[p:]):
            out.append((bool(np.all(side >= -margin)), bool(np.all(side <= margin))))
        return out

    def test_centers_match_and_classes_swap(self):
        swap = {
            ShapeClass.CONVEX_CONVEX: ShapeClass.CONCAVE_CONCAVE,
            ShapeClass.CONCAVE_CONCAVE: ShapeClass.CONVEX_CONVEX,
            ShapeClass.CONVEX_CONCAVE: ShapeClass.CONCAVE_CONVEX,
            ShapeClass.CONCAVE_CONVEX: ShapeClass.CONVEX_CONCAVE,
            ShapeClass.MIXED: ShapeClass.MIXED,
        }
        for _, f in catalog():
            rep = fc.central_set(f)
            neg = fc.central_set(-f)
            assert rep.centers == neg.centers
            for p in rep.centers:
                flags = self._side_flags(f, p)
                both_tied = all(cvx and ccv for cvx, ccv in flags)
                if both_tied:
                    # a fully affine function is both convex and concave, so
                    # the deterministic tie-break wins over the literal swap
                    assert fc.classify_shape(-f, p) is fc.classify_shape(f, p)
                else:
                    assert neg.per_center_class[p] is swap[rep.per_center_class[p]]


def four_branch_class(f, p, tol):
    """The class as a hand-written rule: the first fitting pattern, else mixed."""
    (left_cvx, left_ccv), (right_cvx, right_ccv) = TestNegationSymmetry._side_flags(f, p, tol)
    if left_cvx and right_cvx:
        return ShapeClass.CONVEX_CONVEX
    if left_ccv and right_ccv:
        return ShapeClass.CONCAVE_CONCAVE
    if left_cvx and right_ccv:
        return ShapeClass.CONVEX_CONCAVE
    if left_ccv and right_cvx:
        return ShapeClass.CONCAVE_CONVEX
    return ShapeClass.MIXED


class TestSharedCenterClosure:
    def test_sum_keeps_shared_center_with_matching_classes(self):
        rng = np.random.default_rng(61)
        x = np.arange(17) * 0.125 - 1.0
        for _ in range(40):
            a, b = rng.uniform(0.2, 2.0, 2)
            # both concave left of 0 and convex right of it, split at index 8
            f1 = fc.GridFunction(-1.0, 0.125, np.where(x < 0, -a * x**2, a * x**2))
            f2 = fc.GridFunction(-1.0, 0.125, np.where(x < 0, -b * x**4, b * x**2))
            assert fc.classify_shape(f1, 8) is ShapeClass.CONCAVE_CONVEX
            assert fc.classify_shape(f2, 8) is ShapeClass.CONCAVE_CONVEX
            assert fc.is_center(f1, 8) and fc.is_center(f2, 8)
            total = f1 + f2
            assert fc.classify_shape(total, 8) is ShapeClass.CONCAVE_CONVEX
            assert fc.is_center(total, 8)


class TestHiresOracle:
    def test_cited_instances_agree(self, square, cube, sine):
        assert center_check_hires("x^2", square, 4) is True
        assert center_check_hires("x^3", cube, 8) is True
        assert center_check_hires("x^3", cube, 16) is False
        assert center_check_hires("sin(x)", sine, 16) is True
        for p in range(9):
            assert center_check_hires("x^2", square, p) == fc.is_center(square, p)

    def test_refinement_removes_sampling_artifact_centers(self, cube):
        # the coarse neighbors of 0 stop being centers once the crossing
        # lands on a finer grid point
        assert fc.is_center(cube, 7) and fc.is_center(cube, 9)
        assert center_check_hires("x^3", cube, 7) is False
        assert center_check_hires("x^3", cube, 9) is False


def oracle_grids():
    """Grids whose chords sit on, near and far from the slope bounds."""
    rng = np.random.default_rng(89)
    grids = [f for _, f in catalog()]
    for n in (2, 3, 9, 17, 33, 40):
        x = np.linspace(-1.0, 1.0, n)
        for values in (
            # collinear, not dyadic: at zero tolerance slopes and chord
            # ordinates round apart, and only the rounding band keeps the verdicts
            0.1 * np.arange(n),
            0.3 + 0.1 * np.arange(n),
            rng.normal(size=n),
            rng.integers(-3, 4, n).astype(float),  # exact ties
            np.round(x**3, 2),
            np.sin(3.0 * x),
            1e6 * x**2,
            # flat chords: every chord from a plateau point sits on its slope bound
            np.ones(n),
            np.where(np.abs(np.arange(n) - 2 * n // 3) < 2, 1.5, 1.0),  # plateau plus bump
        ):
            grids.append(fc.GridFunction(-1.0, 2.0 / (n - 1), values))
    # a plateau, then a point just above the chord from 0 to 4: the chord is
    # undecided by slopes and is two-sided only because of that last point
    grids.append(fc.GridFunction(0.0, 1.0, [0.0, 0.0, 0.0, 0.75 + 1e-14, 1.0]))
    grids.append(fc.GridFunction(0.0, 1.0, [1.0, 0.75 + 1e-14, 0.0, 0.0, 0.0]))  # mirrored
    return grids


ORACLE_TOLERANCES = [
    fc.Tolerance(),
    fc.Tolerance(0.0, 0.0),
    fc.Tolerance(1e-3, 0.0),
    fc.Tolerance(0.0, 1e-12),
]


class TestAgainstBruteforce:
    # near the float range, where the rounding band at full scale overflows
    @pytest.mark.parametrize("values", [[1e308] * 5, [0.0, 1.7e308, 0.0, 1e308]], ids=str)
    def test_centers_near_the_float_range(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        with np.errstate(all="ignore"):
            want = tuple(p for p in range(f.values.size) if is_center_bruteforce(f, p))
        assert fc.central_set(f).centers == want

    # Mixed signs near the float range: chords from -1e308 to 1e308 rise past
    # the largest double.  The oracle's own ordinates overflow there to +inf,
    # which it reads as inside the epigraph, so it runs on the grid at quarter
    # scale: an exact power of two under which Tolerance(0, rel) scales too.
    MIXED_NEAR_RANGE = [
        [-1e308, 1e308, 0.0, 1e308],
        [1e308, -1e308, 0.0, -1e308],
        [-1.7e308, 1.7e308, -1.7e308, 1.7e308, 0.0],
        [0.0, -1.7e308, 1e308, 1.7e308, -1e308, 0.5],
    ]

    @pytest.mark.parametrize("values", MIXED_NEAR_RANGE, ids=str)
    def test_centers_with_mixed_signs_near_the_float_range(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        tol = fc.Tolerance(0.0, 1e-12)
        quarter = f.with_values(0.25 * f.values)
        want = tuple(p for p in range(f.values.size) if is_center_bruteforce(quarter, p, tol))
        assert fc.central_set(f, tol).centers == want
        assert fc.central_set(f).centers == want  # an abs margin of 1e-9 is far below an ulp

    @pytest.mark.parametrize("values", MIXED_NEAR_RANGE, ids=str)
    def test_regions_with_mixed_signs_near_the_float_range(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        tol = fc.Tolerance(0.0, 1e-12)
        quarter = f.with_values(0.25 * f.values)
        for p in range(f.values.size):
            for kind in RegionKind:
                split = p if kind.is_split else None
                got = fc.region_star_check(f, RegionSpec(kind, split, 4.0, 16), p, tol)
                spec = RegionSpec(kind, split, 1.0, 16)
                want = region_star_check_bruteforce(quarter, spec, p, tol)
                assert got.ok == want.ok, (kind, p)
                if want.witness is not None:
                    w = want.witness
                    assert got.witness == StarWitness(
                        w.column, 4 * w.level, w.crossing, 4 * w.segment_value, 4 * w.graph_value
                    ), (kind, p)

    def test_full_scale_oracle_with_mixed_signs_near_the_float_range(self):
        f = fc.GridFunction(0.0, 1.0, [-1e308, 1e308, 0.0, 1e308])
        want = tuple(p for p in range(f.values.size) if is_center_bruteforce(f, p))
        assert want == fc.central_set(f).centers == (1, 2)

    @pytest.mark.parametrize("tol", [fc.Tolerance(), fc.Tolerance(0.0, 1e-12)], ids=repr)
    @pytest.mark.parametrize("values", MIXED_NEAR_RANGE, ids=str)
    def test_full_scale_oracle_agrees_near_the_float_range(self, values, tol):
        f = fc.GridFunction(0.0, 1.0, values)
        want = tuple(p for p in range(f.values.size) if is_center_bruteforce(f, p, tol))
        assert fc.central_set(f, tol).centers == want
        for p in range(f.values.size):
            for kind in RegionKind:
                spec = RegionSpec(kind, p if kind.is_split else None, 4.0, 16)
                assert fc.region_star_check(f, spec, p, tol) == \
                    region_star_check_bruteforce(f, spec, p, tol), (kind, p)

    @pytest.mark.parametrize("tol", ORACLE_TOLERANCES, ids=repr)
    def test_centers_match_every_chord_scan(self, tol):
        for f in oracle_grids():
            indices = range(f.values.size)
            want = tuple(p for p in indices if is_center_bruteforce(f, p, tol))
            assert tuple(p for p in indices if fc.is_center(f, p, tol)) == want, f
            rep = fc.central_set(f, tol)
            assert rep.centers == want
            assert rep.per_center_class == {p: fc.classify_shape(f, p, tol) for p in want}

    @pytest.mark.parametrize("tol", ORACLE_TOLERANCES, ids=repr)
    @pytest.mark.parametrize(
        "extent, samples", [(1.0, 64), (0.01, 2), (5.0, 7), (1e-9, 33)]
    )
    def test_region_reports_match_every_sample_scan(self, tol, extent, samples):
        for f in oracle_grids():
            size = f.values.size
            for p in sorted({0, size // 3, size // 2, size - 1}):
                for kind in RegionKind:
                    spec = RegionSpec(
                        kind,
                        split_index=p if kind.value.startswith("split") else None,
                        vertical_extent=extent,
                        vertical_samples=samples,
                    )
                    got = fc.region_star_check(f, spec, p, tol)
                    assert got == region_star_check_bruteforce(f, spec, p, tol), (f, spec, p)


def blocked_grids():
    """Grids of 2 to 300 samples over the shapes the blocked central set meets."""
    rng = np.random.default_rng(2201)
    grids = []
    for n in (2, 3, 5, 8, 13, 40, 97, 300):
        x = np.linspace(-1.0, 1.0, n)
        k = np.arange(n)
        for values in (
            np.cumsum(rng.normal(size=n)),  # random walk
            x**2 + 0.1 * x,  # convex
            -np.exp(x),  # concave
            x**3 - 0.3 * x,  # concave left, convex right: mixed centers
            np.maximum(np.abs(x) - 0.5, 0.0),  # a flat stretch between convex sides
            np.floor(3.0 * x),  # flat steps
            np.where(np.abs(k - 2 * n // 3) < 2, 1.5, 1.0),  # plateau plus bump
            rng.integers(-3, 4, n).astype(float),  # integer ties
            1.7e308 * np.sin(3.0 * x),  # differences past the float range: quarter scale
            np.maximum(x - 0.1, 0.0) ** 2,  # a plateau that ends mid-row, then a convex curve
            # a plateau with bumps a few ulps high and deep, within the rounding
            # band, beside a concave curve
            np.where(x < 0.3, 1.0 + 2.0**-50 * (k % 3 - 1), 1.0 - (x - 0.3) ** 2),
        ):
            grids.append(fc.GridFunction(-1.0, 2.0 / (n - 1), values))
    return grids


BLOCKED_TOLERANCES = [fc.Tolerance(), fc.Tolerance(0.0, 0.0)]


class TestBlockedCentralSet:
    @staticmethod
    def _count_fallbacks(monkeypatch):
        """Record the rows central_set hands to the ordinate check of their undecided chords."""
        calls = []
        settled = starconvex._settled

        def counted(v, p, opens, margin, changes):
            calls.append(p)
            return settled(v, p, opens, margin, changes)

        monkeypatch.setattr(starconvex, "_settled", counted)
        return calls

    # blocks of 1, 3 and 7 centers leave ragged last blocks and crop both reaches;
    # None keeps the module's block
    @pytest.mark.parametrize("rows", [1, 3, 7, None])
    def test_matches_every_center_test(self, monkeypatch, rows):
        calls = self._count_fallbacks(monkeypatch)
        if rows is not None:
            monkeypatch.setattr(starconvex, "CENTER_BLOCK", rows)
        fallbacks = 0
        for f in blocked_grids():
            n = f.values.size
            for tol in BLOCKED_TOLERANCES:
                want = tuple(p for p in range(n) if fc.is_center(f, p, tol))
                if n <= 40:
                    with np.errstate(all="ignore"):
                        assert want == tuple(p for p in range(n) if is_center_bruteforce(f, p, tol)), f
                calls.clear()
                rep = fc.central_set(f, tol)
                assert rep.centers == want, (f, tol)
                assert rep.per_center_class == {p: fc.classify_shape(f, p, tol) for p in want}
                assert set(calls) <= set(range(n))
                assert len(calls) == len(set(calls)), "a center was settled twice"
                fallbacks += len(calls)
        # near ties and flat stretches at zero tolerance reach the ordinate check
        assert fallbacks > 0

    def test_row_that_starts_a_flat_stretch(self):
        # p = 4 starts a stretch of equal values right after the stretch 1..3 of
        # another value; its chord to q = 0 crosses that stretch within the
        # rounding band, so only the ordinate check finds it failing
        f = fc.GridFunction(0.0, 1.0, [0.0, 1e-17, 1e-17, 1e-17, 2e-17, 2e-17, 1.0])
        tol = fc.Tolerance(0.0, 0.0)
        want = tuple(p for p in range(7) if is_center_bruteforce(f, p, tol))
        assert 4 not in want
        assert fc.central_set(f, tol).centers == want

    def test_never_calls_is_center(self, monkeypatch):
        def refuse(f, p, tol=fc.Tolerance()):
            raise AssertionError("central_set called is_center")

        monkeypatch.setattr(starconvex, "is_center", refuse)
        for f in blocked_grids():
            for tol in BLOCKED_TOLERANCES:
                fc.central_set(f, tol)

    @pytest.mark.parametrize("rows", [3, None])
    def test_curved_grids_are_decided_by_slopes_alone(self, monkeypatch, rows):
        # every chord of these grids clears its slope bound by far more than the
        # rounding band, padded rows included, so no row reaches the ordinate check
        calls = self._count_fallbacks(monkeypatch)
        if rows is not None:
            monkeypatch.setattr(starconvex, "CENTER_BLOCK", rows)
        x = np.linspace(-1.0, 1.0, 129)
        for values in (x**2, -np.cosh(x), np.sin(3.0 * x), x**3 - x):
            fc.central_set(fc.GridFunction(-1.0, 2.0 / 128, values))
        assert calls == []
