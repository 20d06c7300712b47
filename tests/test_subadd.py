import math

import numpy as np
import pytest

import funclass as fc
from funclass import subadd
from funclass.oracle import (
    minimal_order_bruteforce,
    minorant_bruteforce,
    pair_scan_bruteforce,
)
from support import random_nonneg_grid, random_order_subadditive


def x_power_grid(p, step=0.25, count=5):
    return fc.sample(lambda t: t**p, 0, step, count)


class TestRatioCoefficient:
    @pytest.mark.parametrize(
        "x,y,n,expected",
        [(0, 1, 5, 1.0), (1, 1, 2, 3.0), (2, 1, 3, 19.0)],
    )
    def test_known_values(self, x, y, n, expected):
        assert fc.ratio_coefficient(x, y, n) == expected

    def test_matches_direct_formula_when_stable(self):
        # direct evaluation is fine for comfortable magnitudes
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = float(rng.uniform(0.1, 4.0))
            y = float(rng.uniform(0.5, 4.0))
            n = int(rng.integers(1, 9))
            direct = ((x + y) ** n - x**n) / y**n
            assert fc.ratio_coefficient(x, y, n) == pytest.approx(direct, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(fc.GridError):
            fc.ratio_coefficient(1.0, 0.0, 2)
        with pytest.raises(fc.GridError):
            fc.ratio_coefficient(1.0, -1.0, 2)
        with pytest.raises(fc.GridError):
            fc.ratio_coefficient(-0.5, 1.0, 2)
        with pytest.raises(fc.GridError):
            fc.ratio_coefficient(1.0, 1.0, 0)
        with pytest.raises(fc.GridError):
            fc.ratio_coefficient(1.0, 1.0, 61)


class TestCheckOrder:
    def test_square_fails_order_one_with_witness(self):
        rep = fc.check_order(x_power_grid(2), 1)
        assert not rep.holds
        pairs = {w.indices: (w.lhs, w.rhs) for w in rep.violations}
        assert pairs[(2, 2)] == (1.0, 0.5)

    def test_square_holds_order_two(self):
        rep = fc.check_order(x_power_grid(2), 2)
        assert rep.holds
        assert rep.violations == ()

    def test_sqrt_holds_order_one(self):
        assert fc.check_order(x_power_grid(0.5), 1).holds

    def test_violations_sorted_by_pair(self):
        rep = fc.check_order(x_power_grid(2, count=9), 1)
        pairs = [w.indices for w in rep.violations]
        assert pairs == sorted(pairs)

    def test_rejects_nonzero_origin(self):
        f = fc.GridFunction(1.0, 0.5, [0.0, 1.0, 2.0])
        calls = [
            lambda: fc.check_order(f, 1),
            lambda: fc.check_weak_bound(f, 1),
            lambda: fc.ratio_transform(f, 1),
            lambda: fc.functional_equation_residual(f, 2, 1, 1),
            lambda: fc.fit_power(f, 2),
            lambda: fc.subadditive_minorant(f),
        ]
        for call in calls:
            with pytest.raises(fc.GridError, match="start at 0, got origin 1.0; re-sample"):
                call()

    def test_rejects_negative_value_naming_index(self):
        f = fc.GridFunction(0.0, 0.5, [0.0, -1.0, 2.0])
        with pytest.raises(fc.GridError, match="index 1"):
            fc.check_order(f, 1)

    def test_rejects_out_of_range_order(self):
        f = x_power_grid(2)
        with pytest.raises(fc.GridError):
            fc.check_order(f, 0)
        with pytest.raises(fc.GridError):
            fc.check_order(f, 61)


class TestMinimalOrder:
    @pytest.mark.parametrize(
        "p,expected",
        [(2.5, 3), (1.0, 1), (3.0, 3)],
    )
    def test_power_functions(self, p, expected):
        f = x_power_grid(p, step=1 / 64, count=65)
        rep = fc.minimal_order(f, 8)
        assert rep.minimal_order == expected
        assert rep.holds

    def test_boundary_is_reconfirmed(self):
        f = x_power_grid(2.5, step=1 / 64, count=65)
        assert not fc.check_order(f, 2).holds
        assert fc.check_order(f, 3).holds

    def test_absent_when_nothing_passes(self):
        # steep exponential: fails every small order
        f = fc.sample(lambda t: 100.0**t - 1.0, 0, 1.0, 6)
        rep = fc.minimal_order(f, 3)
        assert rep.minimal_order is None
        assert not rep.holds
        assert rep.violations

    @pytest.mark.parametrize(
        "tol", [fc.Tolerance(), fc.Tolerance(0.0, 0.0), fc.Tolerance(1e-6, 1e-9)]
    )
    def test_matches_bruteforce_reference(self, tol):
        rng = np.random.default_rng(5303)
        seen = set()
        for trial in range(36):
            if trial % 3 == 0:
                f = random_order_subadditive(rng, n_cap=5)
            elif trial % 3 == 1:
                f = random_nonneg_grid(rng, 20)
            else:  # a power of x plus noise, near the boundary between two orders
                x = np.arange(int(rng.integers(3, 20))) * 0.5
                noise = rng.uniform(0.0, 0.1, x.size)
                f = fc.GridFunction(0.0, 0.5, x ** rng.uniform(0.5, 4.0) + noise)
            n_max = int(rng.integers(1, 7))
            rep = fc.minimal_order(f, n_max, tol)
            expected = minimal_order_bruteforce(f, n_max, tol)
            assert rep.minimal_order == expected
            assert rep.holds == (expected is not None)
            assert rep.order_tested == (n_max if expected is None else expected)
            if expected is None:
                assert witness_bits(rep.violations) == witness_bits(
                    pair_scan_bruteforce(f, n_max, tol)
                )
            else:
                assert rep.violations == ()
            seen.add(expected)
        assert None in seen and len(seen - {None}) >= 3  # both outcomes, several orders

    def test_one_confirming_scan(self, monkeypatch):
        f = x_power_grid(2.5, step=1 / 64, count=1025)
        probes = []
        check_order = subadd.check_order

        def counted(g, n, tol=None):
            probes.append(n)
            return check_order(g, n, tol)

        monkeypatch.setattr(subadd, "check_order", counted)
        assert fc.minimal_order(f, 8).minimal_order == 3
        assert probes == [3]

    def test_walks_up_when_the_candidate_scan_fails(self, monkeypatch):
        # a confirming scan that disagrees with the pass (as rounding may) moves one order up
        f = x_power_grid(2.5, step=1 / 64, count=65)
        check_order = subadd.check_order

        def no_order_three(g, n, tol=None):
            rep = check_order(g, n, tol)
            return subadd.SubadditivityReport(n, False, ()) if n == 3 else rep

        monkeypatch.setattr(subadd, "check_order", no_order_three)
        assert fc.minimal_order(f, 8).minimal_order == 4
        assert fc.minimal_order(f, 3).minimal_order is None

    def test_rejections_in_order(self):
        negative_shifted = fc.GridFunction(1.0, 0.5, [-1.0, 1.0, 2.0])
        with pytest.raises(fc.GridError, match="order must be an integer"):
            fc.minimal_order(negative_shifted, 0)
        with pytest.raises(fc.GridError, match="start at 0, got origin 1.0"):
            fc.minimal_order(negative_shifted, 2)
        with pytest.raises(fc.GridError, match="non-negative, got -1.0 at index 1"):
            fc.minimal_order(fc.GridFunction(0.0, 0.5, [0.0, -1.0, 2.0]), 2)


class TestNthRootTransform:
    def test_square_root_of_square_is_identity(self):
        f = x_power_grid(2)
        g = fc.nth_root_transform(f, 2)
        assert np.array_equal(g.values, f.xs())

    def test_constant_cube(self):
        f = fc.GridFunction(0.0, 1.0, [8.0, 8.0, 8.0])
        assert np.array_equal(fc.nth_root_transform(f, 3).values, [2.0, 2.0, 2.0])

    def test_cube_root_of_cube_passes_order_one(self):
        f = x_power_grid(3, step=0.125, count=9)
        g = fc.nth_root_transform(f, 3)
        expected = [np.cbrt((0.125 * i) ** 3) for i in range(9)]
        assert np.allclose(g.values, expected, rtol=0, atol=0)
        assert fc.check_order(g, 1).holds

    def test_rejects_negative_values(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, -1.0])
        with pytest.raises(fc.GridError):
            fc.nth_root_transform(f, 2)


class TestRatioTransform:
    def test_square_becomes_constant_one(self):
        g = fc.ratio_transform(x_power_grid(2), 2)
        assert g.origin == 0.25
        assert g.step == 0.25
        assert np.array_equal(g.values, np.ones(4))
        assert fc.check_order_offset(g, 1).holds

    def test_identity_becomes_constant_one(self):
        g = fc.ratio_transform(x_power_grid(1), 1)
        assert np.array_equal(g.values, np.ones(4))

    def test_decreasing_power_passes_by_pair_scan(self):
        f = x_power_grid(2.5, step=1 / 64, count=65)
        g = fc.ratio_transform(f, 3)
        rep = fc.check_order_offset(g, 1, fc.Tolerance(abs=1e-9, rel=0.0))
        assert rep.holds
        # independent exhaustive scan of the shifted-grid inequality
        v = g.values
        for k in range(1, v.size + 1):
            for l in range(1, v.size + 1 - k):
                assert v[k + l - 1] <= v[k - 1] + v[l - 1] + 1e-9

    def test_rejects_nonzero_origin(self):
        f = fc.GridFunction(0.5, 0.5, [1.0, 2.0, 3.0])
        with pytest.raises(fc.GridError):
            fc.ratio_transform(f, 1)

    def test_negative_value_error_names_the_sample_not_the_quotient(self):
        f = fc.GridFunction(0.0, 0.25, [0.0, 0.5, -0.5, 1.0])
        with pytest.raises(fc.GridError, match=r"got -0\.5 at index 2$"):
            fc.ratio_transform(f, 2)


class TestWeakBound:
    def test_square_order_two_equality_case(self):
        rep = fc.check_weak_bound(x_power_grid(2), 2)
        assert rep.holds  # i=j=2 gives 1 <= max(0.25+0.75, 0.75+0.25) exactly

    def test_constant_one(self):
        f = fc.GridFunction(0.0, 1.0, np.ones(4))
        assert fc.check_weak_bound(f, 1).holds

    def test_failing_case_reports_witnesses(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 0.1, 10.0])
        rep = fc.check_weak_bound(f, 1)
        assert not rep.holds
        assert rep.violations[0].indices == (1, 1)

    def test_overflowing_bound_passes_with_zero_rel(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 1e300, 1e300, 1e300])
        with np.errstate(over="ignore"):  # (2^60 - 1) * 1e300 is inf, an honest upper bound
            assert fc.check_weak_bound(f, 60, fc.Tolerance(rel=0.0)).holds


class TestFunctionalEquation:
    def test_exact_power_family_has_tiny_residual(self):
        f = fc.sample(lambda t: 3 * t**2, 0, 0.25, 9)
        scale = float(np.max(np.abs(f.values)))
        for i, j in [(1, 2), (3, 4), (2, 5)]:
            assert fc.functional_equation_residual(f, 2, i, j) <= 1e-12 * scale

    def test_hand_value_for_square_plus_linear(self):
        f = fc.sample(lambda t: t**2 + t, 0, 1.0, 4)
        assert fc.functional_equation_residual(f, 2, 1, 2) == 2.0

    def test_symmetric_pair_is_exactly_zero(self):
        f = fc.sample(lambda t: math.exp(t), 0, 0.5, 7)
        assert fc.functional_equation_residual(f, 3, 2, 2) == 0.0

    def test_rejects_zero_index(self):
        f = x_power_grid(2)
        with pytest.raises(fc.GridError):
            fc.functional_equation_residual(f, 2, 0, 1)
        with pytest.raises(fc.GridError):
            fc.functional_equation_residual(f, 2, 1, 4)


class TestFitPower:
    def test_exact_family(self):
        f = fc.sample(lambda t: 3 * t**2, 0, 0.25, 9)
        fit = fc.fit_power(f, 2)
        assert fit.c == pytest.approx(3.0, rel=1e-12)
        assert fit.max_residual <= 1e-12 * 3.0

    def test_zero_grid(self):
        f = fc.GridFunction(0.0, 1.0, np.zeros(5))
        fit = fc.fit_power(f, 2)
        assert fit.c == 0.0
        assert fit.max_residual == 0.0

    def test_square_plus_linear_residual_at_least_two(self):
        f = fc.sample(lambda t: t**2 + t, 0, 1.0, 4)
        assert fc.fit_power(f, 2).max_residual >= 2.0

    def test_negative_coefficient_allowed(self):
        f = fc.sample(lambda t: -2 * t**3, 0, 0.5, 7)
        fit = fc.fit_power(f, 3)
        assert fit.c == pytest.approx(-2.0, rel=1e-12)
        assert fit.max_residual <= 1e-12 * float(np.max(np.abs(f.values)))

    def test_residual_is_the_worst_pointwise_residual(self):
        rng = np.random.default_rng(6151)
        for _ in range(40):
            f = random_nonneg_grid(rng, 24)
            n = int(rng.integers(2, 7))
            worst = max(
                fc.functional_equation_residual(f, n, i, j)
                for i in range(1, f.n)
                for j in range(1, f.n - i + 1)
            )
            assert fc.fit_power(f, n).max_residual.hex() == worst.hex()


def witness_bits(witnesses):
    return [(w.indices, w.lhs.hex(), w.rhs.hex()) for w in witnesses]


class TestPairScanAgainstOracle:
    """The blocked pair scan against the scalar double loop, bit for bit."""

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_witnesses_match_scalar_loop(self, block, monkeypatch):
        if block is not None:  # blocks then split rows mid-triangle
            monkeypatch.setattr(subadd, "PAIR_BLOCK", block)
        rng = np.random.default_rng(2308)
        found = 0
        for trial in range(30):
            f = random_nonneg_grid(rng, 24) if trial % 2 else random_order_subadditive(rng)
            n = int(rng.integers(1, 5))
            tol = fc.Tolerance() if trial % 3 else fc.Tolerance(abs=0.0, rel=0.0)
            shifted = fc.GridFunction(3 * f.step, f.step, f.values)
            cases = [
                (fc.check_order(f, n, tol), pair_scan_bruteforce(f, n, tol)),
                (fc.check_weak_bound(f, n, tol), pair_scan_bruteforce(f, n, tol, weak=True)),
                (fc.check_order_offset(shifted, n, tol), pair_scan_bruteforce(shifted, n, tol)),
            ]
            if f.values.size >= 3:
                g = fc.ratio_transform(f, n)
                cases.append((fc.check_order_offset(g, 1, tol), pair_scan_bruteforce(g, 1, tol)))
            for rep, expected in cases:
                assert witness_bits(rep.violations) == witness_bits(expected)
                assert rep.holds == (not expected)
                found += len(expected)
        assert found > 100  # the comparison saw failing pairs, not only passes

    @pytest.mark.parametrize(
        "size, m, first, second", [(9, 0, 0, 1), (9, 0, 1, 1), (7, 2, 2, 2), (2, 0, 1, 1)]
    )
    def test_blocks_cover_the_triangle_in_order(self, size, m, first, second, monkeypatch):
        monkeypatch.setattr(subadd, "PAIR_BLOCK", 5)
        blocks = list(subadd._pair_blocks(size, m, first, second))
        assert all(rows.size <= 5 for rows, _ in blocks)
        pairs = [(i, j) for rows, cols in blocks for i, j in zip(rows.tolist(), cols.tolist())]
        assert pairs == [
            (i, j)
            for i in range(size)
            for j in range(size)
            if i + m >= first and j + m >= second and i + j + m <= size - 1
        ]

    def test_fit_power_residual_independent_of_block(self, monkeypatch):
        rng = np.random.default_rng(11)
        grids = [random_nonneg_grid(rng, 40) for _ in range(10)]
        grids = [(f, int(rng.integers(2, 6))) for f in grids if f.values.size >= 3]
        expected = [fc.fit_power(f, n).max_residual.hex() for f, n in grids]
        monkeypatch.setattr(subadd, "PAIR_BLOCK", 3)
        assert [fc.fit_power(f, n).max_residual.hex() for f, n in grids] == expected


class TestSubadditiveMinorant:
    def test_square_grid(self):
        res = fc.subadditive_minorant(x_power_grid(2))
        assert np.array_equal(res.sigma.values, [0.0, 0.0625, 0.125, 0.1875, 0.25])
        assert res.defect == 0.75
        assert res.bounded_variation

    def test_already_subadditive_is_fixed_point(self):
        f = x_power_grid(0.5)
        res = fc.subadditive_minorant(f)
        assert res.sigma == f
        assert res.defect == 0.0
        assert np.array_equal(res.residual.values, np.zeros(5))

    def test_constant_one(self):
        f = fc.GridFunction(0.0, 1.0, np.ones(4))
        res = fc.subadditive_minorant(f)
        assert res.sigma == f

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            f = fc.GridFunction(0.0, 0.5, rng.uniform(0, 5, n + 1))
            sigma = fc.subadditive_minorant(f).sigma.values
            for k in range(n + 1):
                assert float(sigma[k]) == minorant_bruteforce(f, k)

    def test_defect_is_smallest_partition_slack(self):
        # the defect must equal the largest gap between a value and the best
        # partition sum, i.e. the least slack closing the partition inequality
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            f = fc.GridFunction(0.0, 0.25, rng.uniform(0, 4, n + 1))
            res = fc.subadditive_minorant(f)
            worst = max(
                float(f.values[k]) - minorant_bruteforce(f, k) for k in range(n + 1)
            )
            assert res.defect == worst

    def test_sigma_is_subadditive_and_below_f(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_nonneg_grid(rng, max_n=40)
            res = fc.subadditive_minorant(f)
            assert fc.check_order(res.sigma, 1).holds
            assert np.all(res.sigma.values <= f.values)
            assert np.all(res.residual.values >= 0.0)
            assert np.all(res.residual.values <= res.defect)

    def test_operator_is_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f = random_nonneg_grid(rng, max_n=40)
            g = f.with_values(f.values * rng.uniform(0.0, 1.0, f.values.size))
            sg = fc.subadditive_minorant(g).sigma.values
            sf = fc.subadditive_minorant(f).sigma.values
            assert np.all(sg <= sf)

    def test_maximality_against_subadditive_minorants(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            f = random_nonneg_grid(rng, max_n=30)
            g = f.with_values(f.values * rng.uniform(0.0, 1.0, f.values.size))
            candidate = fc.subadditive_minorant(g).sigma  # subadditive and <= f
            assert np.all(candidate.values <= fc.subadditive_minorant(f).sigma.values)

    def test_increasing_input_gives_increasing_sigma(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            vals = np.cumsum(rng.uniform(0, 1, n + 1))
            f = fc.GridFunction(0.0, 0.25, vals)
            res = fc.subadditive_minorant(f)
            assert res.bounded_variation
            assert np.all(np.diff(res.sigma.values) >= -1e-12)

    def test_non_monotone_input_flags_no_bounded_variation(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 2.0, 1.0])
        assert not fc.subadditive_minorant(f).bounded_variation

    def test_decomposition_reconstructs_f(self):
        # residual is defined as f - sigma: one float subtraction, so the sum
        # reconstructs f exactly on aligned binades and to 1 ulp otherwise
        res = fc.subadditive_minorant(x_power_grid(2))
        assert np.array_equal(res.sigma.values + res.residual.values, [0.0, 0.0625, 0.25, 0.5625, 1.0])
        rng = np.random.default_rng(31)
        for _ in range(30):
            f = random_nonneg_grid(rng, max_n=30)
            res = fc.subadditive_minorant(f)
            back = res.sigma.values + res.residual.values
            lo = np.nextafter(f.values, -np.inf)
            hi = np.nextafter(f.values, np.inf)
            assert np.all((back >= lo) & (back <= hi))


class TestOrderRules:
    def test_order_monotonicity_on_random_grids(self):
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(150):
            f = random_nonneg_grid(rng, max_n=32)
            smallest = next(
                (n for n in range(1, 9) if fc.check_order(f, n).holds), None
            )
            if smallest is None:
                continue
            checked += 1
            for m in range(smallest + 1, 13):
                assert fc.check_order(f, m).holds, (f, smallest, m)
        assert checked > 20  # the sample must actually exercise the property

    def test_root_ratio_weak_rules_on_generated_family(self):
        rng = np.random.default_rng(43)
        tol = fc.Tolerance(abs=1e-9, rel=0.0)
        for _ in range(60):
            f = random_order_subadditive(rng)
            rep = fc.minimal_order(f, 6)
            assert rep.minimal_order is not None, "generator must produce a passing grid"
            n = rep.minimal_order
            assert fc.check_order(fc.nth_root_transform(f, n), 1, tol).holds
            assert fc.check_order_offset(fc.ratio_transform(f, n), 1, tol).holds
            assert fc.check_weak_bound(f, n).holds

    def test_closure_under_addition_and_scaling(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            a = random_order_subadditive(rng)
            b = random_order_subadditive(rng, shape=(a.n, a.step))
            na = fc.minimal_order(a, 6).minimal_order
            nb = fc.minimal_order(b, 6).minimal_order
            assert na is not None and nb is not None
            n = max(na, nb)
            assert fc.check_order(a + b, n).holds
            assert fc.check_order(2.5 * a, na).holds
