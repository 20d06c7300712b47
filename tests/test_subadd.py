import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import funclass as fc
from funclass import subadd
from funclass.oracle import (
    minimal_order_bruteforce,
    minorant_bruteforce,
    minorant_recurrence,
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

    def test_offset_origin_must_be_a_step_multiple(self):
        f = fc.GridFunction(0.3, 0.25, [1.0, 1.0, 1.0])
        message = (r"^grid origin 0\.3 must be a non-negative integer multiple of the step "
                   r"0\.25 for subadditivity checks$")
        with pytest.raises(fc.GridError, match=message):
            fc.check_order_offset(f, 1)

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

    def test_rejects_two_samples(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 1.0])
        with pytest.raises(fc.GridError, match=r"^ratio transform needs at least 3 samples"):
            fc.ratio_transform(f, 1)

    def test_overflowing_abscissa_power_is_rejected_without_a_warning(self):
        f = fc.sample("x", 0, 2.5e5, 5)  # 1e6^60 overflows
        with pytest.raises(fc.GridError, match=r"^abscissa power x\^60 overflows on this grid$"):
            fc.ratio_transform(f, 60)


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

    def test_rejects_order_one(self):
        message = r"^the symmetry equation needs integer n >= 2, got 1$"
        with pytest.raises(fc.GridError, match=message):
            fc.functional_equation_residual(x_power_grid(2), 1, 1, 1)


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

    def test_rejects_order_one(self):
        with pytest.raises(fc.GridError, match=r"^power fit needs integer n >= 2, got 1$"):
            fc.fit_power(x_power_grid(1), 1)

    def test_rejects_two_samples(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 1.0])
        with pytest.raises(fc.GridError, match=r"^power fit needs at least 3 samples"):
            fc.fit_power(f, 2)

    def test_overflowing_abscissa_power_is_rejected_without_a_warning(self):
        f = fc.sample("x", 0, 2.5e5, 5)  # 1e6^60 overflows
        with pytest.raises(fc.GridError, match=r"^abscissa power x\^60 overflows on this grid$"):
            fc.fit_power(f, 60)

    @pytest.mark.parametrize("values", [
        [0.0, 1.7e308, 0.0, 1e308],  # a side of the equation overflows
        [0.0, -4e307, 7e307, 0.0],  # both sides are finite, their difference is not
    ], ids=str)
    def test_overflowing_symmetry_residual_is_rejected_without_a_warning(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        with pytest.raises(fc.GridError, match=r"^symmetry residual overflows on this grid$"):
            fc.fit_power(f, 2)

    def test_overflowing_squares_of_the_abscissa_power(self):
        # 1e4^40 is finite but its square is not; c is sum x^41 / sum x^80
        c = fc.fit_power(fc.sample("x", 0, 2500, 5), 40).c
        assert math.isclose(c, 1.0000075423381903e-156, rel_tol=1e-12)

    @pytest.mark.parametrize("values", [
        [1e308, 1.5e308, 1.6e308, 1.7e308],  # sum v x^n passes the float range
        [-1e308, 1e308, 1e308, 1.5e308],
    ], ids=str)
    def test_overflowing_coefficient_is_rejected_without_a_warning(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        with pytest.raises(fc.GridError, match=r"^power fit coefficient overflows on this grid$"):
            fc.fit_power(f, 2)

    def test_half_triangle_matches_the_full_triangle(self):
        # same max_residual bits, and the same overflow verdict, as every ordered pair
        rng = np.random.default_rng(6199)
        verdicts = set()
        for trial in range(200):
            f = random_nonneg_grid(rng, 160)
            if f.values.size < 3 or not np.any(f.values):
                continue
            if trial % 2:  # rescaled towards the float range, where sides may overflow
                f = f.with_values(f.values / np.max(f.values) * (1e300, 1e306, 1.7e308)[trial % 3])
            n = int(rng.integers(2, 9))
            try:
                got = fc.fit_power(f, n).max_residual.hex()
            except fc.GridError as err:
                got = str(err)
            if got == "power fit coefficient overflows on this grid":
                continue  # decided before the residual
            expected = full_triangle_residual(f, n)
            verdicts.add(expected is None)
            if expected is None:
                assert got == "symmetry residual overflows on this grid"
            else:
                assert got == expected.hex()
        assert verdicts == {True, False}

    def test_coefficient_is_the_plain_quotient_when_nothing_overflows(self):
        rng = np.random.default_rng(6163)
        for _ in range(60):
            f = random_nonneg_grid(rng, 24)
            n = int(rng.integers(2, 9))
            xn = f.xs()[1:] ** n
            plain = float(np.dot(f.values[1:], xn) / np.dot(xn, xn))
            assert fc.fit_power(f, n).c.hex() == plain.hex()


def full_triangle_residual(f, n):
    """fit_power's residual over every ordered pair ``i, j >= 1``, or None if a side overflows."""
    i, j = np.nonzero(np.add.outer(np.arange(f.values.size), np.arange(f.values.size)) <= f.n)
    keep = (i >= 1) & (j >= 1)
    i, j = i[keep], j[keep]
    v, x, bound = f.values, f.xs(), subadd._order_bound(n)
    with np.errstate(over="ignore"):
        ahead, behind = bound(v[i], x[i], v[j], x[j]), bound(v[j], x[j], v[i], x[i])
        if not (np.all(np.isfinite(ahead)) and np.all(np.isfinite(behind))):
            return None
        worst = float(np.max(np.abs(ahead - behind)))
    return worst if math.isfinite(worst) else None


def witness_bits(witnesses):
    return [(w.indices, w.lhs.hex(), w.rhs.hex()) for w in witnesses]


NON_FINITE_BOUNDS = [
    # x_2 = 2e308 overflows: pair (2, 1) has an infinite coefficient from n = 2 on,
    # and it meets v[1] = 0, so its bound is NaN
    fc.GridFunction(0.0, 1e308, [0.0, 0.0, 1.0, 1.0]),
    # bounds with v[1] overflow to +inf, while pair (2, 2) fails
    fc.GridFunction(0.0, 1.0, [0.0, 1.7e308, 0.0, 1e308, 1.7e308]),
]


class TestPairScanAgainstOracle:
    """The tiled pair scan against the scalar double loop, bit for bit."""

    @staticmethod
    def scans(f, n, tol):
        """Each pair check of ``f``, public and by the kernel alone, beside the scalar loop's witnesses.

        A public check passes a certified grid without scanning, so ``_scan`` is
        called as well: the kernel meets the scalar loop on passing grids too.
        """
        order = subadd._order_bound(n)
        expected = pair_scan_bruteforce(f, n, tol)
        yield fc.check_order(f, n, tol), expected
        yield subadd._scan(f, n, tol, 0, 0, order), expected
        expected = pair_scan_bruteforce(f, n, tol, weak=True)
        yield fc.check_weak_bound(f, n, tol), expected
        yield subadd._scan(f, n, tol, 0, 1, subadd._weak_bound(n)), expected
        if math.isfinite(3 * f.step):
            shifted = fc.GridFunction(3 * f.step, f.step, f.values)
            expected = pair_scan_bruteforce(shifted, n, tol)
            yield fc.check_order_offset(shifted, n, tol), expected
            yield subadd._scan(shifted, n, tol, 3, 3, order), expected

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_witnesses_match_scalar_loop(self, block, monkeypatch):
        if block is not None:  # tiles then split diagonals mid-band
            monkeypatch.setattr(subadd, "PAIR_BLOCK", block)
        rng = np.random.default_rng(2308)
        found = passed = certified = 0
        for trial in range(30):
            f = random_nonneg_grid(rng, 24) if trial % 2 else random_order_subadditive(rng)
            n = int(rng.integers(1, 5))
            tol = fc.Tolerance() if trial % 3 else fc.Tolerance(abs=0.0, rel=0.0)
            cases = list(self.scans(f, n, tol))
            if f.values.size >= 3:
                g = fc.ratio_transform(f, n)
                expected = pair_scan_bruteforce(g, 1, tol)
                cases.append((fc.check_order_offset(g, 1, tol), expected))
                cases.append((subadd._scan(g, 1, tol, 1, 1, subadd._order_bound(1)), expected))
                certified += subadd._certified(g, 1, tol, 1)
            for rep, expected in cases:
                assert witness_bits(rep.violations) == witness_bits(expected)
                assert rep.holds == (not expected)
                found += len(expected)
                passed += rep.holds
        assert found > 100  # the comparison saw failing pairs, not only passes
        assert passed > 50 and certified > 5  # and passing grids, some of them certified
        nan_bounds = 0
        for f in NON_FINITE_BOUNDS:
            for n in (1, 2, 60):
                for rep, expected in self.scans(f, n, fc.Tolerance()):
                    assert witness_bits(rep.violations) == witness_bits(expected)
                    assert rep.holds == (not expected)
                    nan_bounds += sum(math.isnan(w.rhs) for w in expected)
        assert nan_bounds > 0

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize(
        "size, m, first, second", [(9, 0, 0, 1), (9, 0, 1, 1), (7, 2, 2, 2), (2, 0, 1, 1)]
    )
    def test_tiles_cover_the_triangle_once(self, size, m, first, second, block, monkeypatch):
        monkeypatch.setattr(subadd, "PAIR_BLOCK", block)
        v, x = np.arange(size) + 0.5, np.arange(size) + 100.0  # values name their position
        covered = []
        for t in subadd._tiles(v, x, m, first, second):
            rows, cols = t.vb.shape
            assert rows * cols <= block
            assert t.lhs.shape == (rows,) and t.va.shape == t.xa.shape == (cols,)
            for r in range(rows):
                assert t.lhs[r] == v[t.k + r + m]
                for c in range(cols):
                    i, j = t.i + c, t.k + r - t.i - c
                    assert (t.va[c], t.xa[c]) == (v[i], x[i])
                    if j < 0 or j + m < second:  # a pad
                        assert (t.vb[r, c], t.xb[r, c]) == (np.inf, 1.0)
                    else:
                        assert (t.vb[r, c], t.xb[r, c]) == (v[j], x[j])
                        covered.append((i, j))
        assert sorted(covered) == [
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


EPS = 2.0**-52
NEAR_TIE_RELS = [0.0, 1e-16, 5e-15, 1e-14, 6e-14, 1e-13, 1e-12]


def near_tie_case(rng):
    """``(f, n, tol, m)`` near the certificate's boundary, on a grid ``m`` steps from 0.

    Power data ``c x^p`` with ``p`` at or just below ``n``, affine data
    ``a + b x``, and order 55-60 data with a zero value, each perturbed by a
    few ulps per sample; the relative tolerance runs from 0 to 1e-12.
    """
    kind = rng.integers(0, 3)
    m = int(rng.choice([0, 0, 1, 3]))
    step = float(rng.choice([1 / 64, 0.1, 0.25, 1.0, 3.0]))
    x = (m + np.arange(int(rng.integers(3, 41)))) * step
    c = float(rng.uniform(0.1, 3.0))
    if kind == 0:
        n = int(rng.integers(1, 7))
        p = n - float(rng.choice([0.0, 1e-9, 1e-6, rng.uniform(0.0, n - 0.1)]))
        values = c * x**p
    elif kind == 1:
        n = int(rng.integers(1, 5))
        values = float(rng.choice([0.0, rng.uniform(0.0, 2.0)])) + c * x
    else:
        n = int(rng.integers(55, 61))
        values = c * (x / x[-1]) ** (n - float(rng.choice([0.0, 1e-9, 0.5])))
        values[int(rng.integers(1, x.size)):] = 0.0  # a zero tail keeps f / x^n non-increasing
    values *= 1.0 + rng.integers(-4, 5, x.size) * EPS
    values[x == 0.0] = 0.0
    tol = fc.Tolerance(float(rng.choice([0.0, 1e-9])), float(rng.choice(NEAR_TIE_RELS)))
    return fc.GridFunction(m * step, step, values), n, tol, m


def kernel_reports(f, n, tol, m):
    """The scans a certificate at order ``n`` stands for: order ``n``, and on a grid from 0 the weak bound."""
    yield subadd._scan(f, n, tol, m, m, subadd._order_bound(n))
    if m == 0:
        yield subadd._scan(f, n, tol, 0, 1, subadd._weak_bound(n))


class TestCertificate:
    """Certified implies that the scan passes; otherwise the scan decides."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_certified_grids_pass_the_kernel(self, seed):
        f, n, tol, m = near_tie_case(np.random.default_rng(seed))
        if subadd._certified(f, n, tol, m):
            for rep in kernel_reports(f, n, tol, m):
                assert rep.holds, rep.violations[0]

    def test_sound_on_seeded_near_tie_grids(self):
        certified = refused_by_tolerance = 0
        for seed in range(1500):
            f, n, tol, m = near_tie_case(np.random.default_rng(seed))
            if subadd._certified(f, n, tol, m):
                certified += 1
                assert all(rep.holds for rep in kernel_reports(f, n, tol, m)), seed
            elif tol.rel < (subadd._SLACK + 4 * n + 8) * EPS:
                refused_by_tolerance += 1
        assert certified > 400 and refused_by_tolerance > 400  # both sides of the guard

    def test_compounding_drift_is_refused(self):
        # each ratio f(x) / x exceeds the one before by 6 ulps: within a neighbour
        # rule's slack at every step, yet the drift fails 364,722 pairs
        x = np.arange(2049) / 64
        f = fc.GridFunction(0.0, 1 / 64, x * np.cumprod(np.full(2049, 1 + 6 * EPS)))
        tol = fc.Tolerance(0.0, 1e-12)
        assert not subadd._certified(f, 1, tol, 0)
        assert len(fc.check_order(f, 1, tol).violations) == 364_722

    @pytest.mark.parametrize("expr", ["0.1*x", "0.3*x", "1.7*x"])
    def test_rounding_noisy_linear_grid_is_certified(self, expr, monkeypatch):
        # fl(c * x) / x wobbles by an ulp, so only a certificate with slack holds
        f = fc.sample(expr, 0, 1 / 64, 2049)
        ratios = f.values[1:] / f.xs()[1:]
        assert np.any(ratios[1:] > np.minimum.accumulate(ratios)[:-1])
        assert subadd._certified(f, 1, fc.Tolerance(), 0)

        def no_scan(*args):
            raise AssertionError("the certified path scanned")

        monkeypatch.setattr(subadd, "_scan", no_scan)
        assert fc.check_order(f, 1).holds and fc.check_weak_bound(f, 1).holds
        assert fc.minimal_order(f, 4).minimal_order == 1

    @pytest.mark.parametrize("expr", ["0.1*x", "0.3*x", "x/3"])
    def test_refused_when_the_tolerance_cannot_absorb_rounding(self, expr):
        # with no tolerance, rounding alone fails pairs of c * x: the scan must decide
        f = fc.sample(expr, 0, 0.1, 33)
        for rel in (0.0, 1e-16):
            tol = fc.Tolerance(0.0, rel)
            assert not subadd._certified(f, 1, tol, 0)
            expected = pair_scan_bruteforce(f, 1, tol)
            assert expected or rel  # rounding fails pairs when nothing absorbs it
            assert witness_bits(fc.check_order(f, 1, tol).violations) == witness_bits(expected)
        assert subadd._certified(f, 1, fc.Tolerance(), 0)
        assert fc.check_order(f, 1).holds

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_tolerance_guard_boundary(self, n):
        f = fc.sample("x^0.5", 0, 1 / 64, 65)
        least = (subadd._SLACK + 4 * n + 8) * EPS
        assert subadd._certified(f, n, fc.Tolerance(0.0, least), 0)
        assert not subadd._certified(f, n, fc.Tolerance(0.0, least * (1 - 2**-10)), 0)

    def test_refused_when_a_coefficient_overflows(self):
        # f = 0 has f / x^60 non-increasing, but r(x_{N-1}, x_1, 60) overflows, and
        # times v[1] = 0 it is a NaN bound: the scan fails that pair
        f = fc.GridFunction(0.0, 0.5, np.zeros(200_001))
        x = f.xs()
        assert np.all(np.isfinite(x**60))
        bound = 0.0 + fc.ratio_coefficient(float(x[-2]), float(x[1]), 60) * 0.0  # v[N-1], v[1]
        assert math.isnan(bound) and not fc.Tolerance().leq(0.0, bound)
        assert not subadd._certified(f, 60, fc.Tolerance(), 0)
        assert subadd._certified(f.with_values(f.values[:1001]), 60, fc.Tolerance(), 0)

    @pytest.mark.parametrize("values, step", [
        ([0.0, 1.0, 1e-300, 0.0], 1.0),  # a nonzero value below 2^-960
        ([0.0, 1e-290, 1e-291, 0.0], 1e20),  # ratios below 2^-960
        ([0.0, 1.0, 1.0, 1.0], 1e-160),  # x^2 underflows
        ([0.0, 1.0, 2.0, 3.0], 5e-324),  # a subnormal step
        ([0.0, 1.7976931348623157e308, 1.0, 1.0], 1.0),  # the first bound overflows
    ], ids=["value", "ratio", "power", "step", "bound"])
    def test_refused_outside_the_normal_range(self, values, step):
        assert not subadd._certified(fc.GridFunction(0.0, step, values), 2, fc.Tolerance(), 0)

    def test_minimal_order_sweep_stops_at_the_certified_order(self, monkeypatch):
        f = x_power_grid(2.5, step=1 / 64, count=1025)
        tiles = []
        original = subadd._tiles

        def counted(*args):
            for t in original(*args):
                tiles.append(t)
                yield t

        monkeypatch.setattr(subadd, "_tiles", counted)
        assert fc.minimal_order(f, 8).minimal_order == 3
        assert len(tiles) == 1  # the first band fails orders 1 and 2; order 3 is certified


NEAR_FLOAT_RANGE = [
    [0.0, 1.7e308, 0.0, 1e308],
    [0.0, 1.7976931348623157e308, 0.0],  # the acceptance threshold overflows too
]


class TestOverflowingSums:
    """Sums of non-negative values past the float range are +inf, without a warning."""

    @pytest.mark.parametrize("values", NEAR_FLOAT_RANGE, ids=str)
    def test_pair_scans_hold(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        assert fc.check_order(f, 1).holds
        assert fc.check_weak_bound(f, 1).holds
        assert fc.minimal_order(f, 3).minimal_order == 1

    @pytest.mark.parametrize("values", NEAR_FLOAT_RANGE, ids=str)
    def test_minorant(self, values):
        f = fc.GridFunction(0.0, 1.0, values)
        with np.errstate(over="ignore"):
            want = [minorant_bruteforce(f, k) for k in range(f.values.size)]
        assert fc.subadditive_minorant(f).sigma.values.tolist() == want


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

    @pytest.mark.xfail(
        strict=True,
        reason="the recurrence rounds min(v[k], fl(S[j] + v[k - j])), so a later "
        "fl(S[j] + S[k - j]) can round one ulp below S[k]: sigma fails its own "
        "order-1 check at zero tolerance, at (2, 4) on this grid",
    )
    def test_sigma_is_subadditive_at_zero_tolerance(self):
        rng = np.random.default_rng(1)
        n = int(rng.integers(2, 40))
        f = fc.GridFunction(0.0, 1.0, rng.uniform(0.5, 1.5, n) * np.arange(n))
        exact = fc.Tolerance(0.0, 0.0)
        report = fc.check_order(fc.subadditive_minorant(f, exact).sigma, 1, exact)
        assert report.holds, report.violations[0]

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


def minorant_grid(rng, size, kind):
    """Non-negative values of one ``kind``, each chosen to stress the minorant's float edges."""
    if kind == "uniform":
        vals = rng.uniform(0.0, 3.0, size)
    elif kind == "power":
        vals = float(rng.uniform(0.1, 3.0)) * (np.arange(size) * 0.25) ** float(rng.uniform(0.3, 3.0))
    elif kind == "ties":  # many equal candidates
        vals = rng.integers(0, 4, size).astype(float)
    elif kind == "subnormal":  # multiples of 5e-324 and other subnormals, exact sums
        vals = rng.choice([0.0, 5e-324, 1e-323, 2.5e-323, 1e-310, 2.2e-308], size)
    elif kind == "near-range":  # partial sums overflow to +inf
        vals = rng.choice([0.0, 1e308, 1.7e308, 1.7976931348623157e308], size)
        vals[rng.random(size) < 0.3] = rng.uniform(1e307, 1.7e308)
    else:  # "signed-zero": -0.0 among zeros and ties
        vals = rng.choice([0.0, -0.0, 1.0, 2.0], size)
    return fc.GridFunction(0.0, 0.25, vals)


MINORANT_KINDS = ("uniform", "power", "ties", "subnormal", "near-range")


def minorant_sizes(rng, count):
    """Sizes 2-300, then every size one below, at and one above a multiple of each tested block."""
    edges = sorted({m * b + d for b in (1, 3, subadd.MINORANT_BLOCK) for m in range(1, 9)
                    for d in (-1, 0, 1)} - {0, 1})
    return [int(s) for s in rng.integers(2, 301, count - len(edges))] + edges


@pytest.fixture(scope="module")
def recurrence_cases():
    rng = np.random.default_rng(1931)
    cases = []
    for i, size in enumerate(minorant_sizes(rng, 2000)):
        f = minorant_grid(rng, size, MINORANT_KINDS[i % len(MINORANT_KINDS)])
        cases.append((f, minorant_recurrence(f)))
    return cases


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestBlockedMinorant:
    """The blocked minorant against the per-sample recurrence, bit for bit."""

    @pytest.mark.parametrize("block", [1, 3, subadd.MINORANT_BLOCK])
    def test_matches_the_recurrence_bit_for_bit(self, block, recurrence_cases, monkeypatch):
        monkeypatch.setattr(subadd, "MINORANT_BLOCK", block)
        default = subadd.PAIR_BLOCK
        assert len(recurrence_cases) >= 2000
        for i, (f, want) in enumerate(recurrence_cases):
            # every 7th grid in small tiles: a block's earlier indices span several chunks
            monkeypatch.setattr(subadd, "PAIR_BLOCK", (5, 16, 64)[i % 3] if i % 7 == 0 else default)
            got = fc.subadditive_minorant(f).sigma.values
            assert np.array_equal(bits(got), bits(want)), (f.values.size, f.values[:8])

    def test_the_grids_reach_every_float_edge(self, recurrence_cases):
        values = np.concatenate([f.values for f, _ in recurrence_cases])
        assert np.any(values == 5e-324)
        assert np.any((values > 0.0) & (values < 2.2250738585072014e-308))
        assert np.any(values >= 1.7e308)
        # some partition sum of a grid passes the float range
        assert any(math.isinf(sum(sorted(f.values[1:].tolist())[-2:])) for f, _ in recurrence_cases)

    def test_a_block_spans_several_full_size_tiles(self):
        # the last blocks read 2 * PAIR_BLOCK // MINORANT_BLOCK and more earlier indices
        rng = np.random.default_rng(1933)
        size = 2 * subadd.PAIR_BLOCK // subadd.MINORANT_BLOCK + 3 * subadd.MINORANT_BLOCK
        f = fc.GridFunction(0.0, 0.25, rng.uniform(0.0, 3.0, size))
        got = fc.subadditive_minorant(f).sigma.values
        assert np.array_equal(bits(got), bits(minorant_recurrence(f)))

    def test_signed_zeros(self, monkeypatch):
        # np.min picks a zero's sign by position, so the recurrence agrees as floats;
        # the blocked minorant keeps v[k] unless a candidate is strictly smaller and
        # replaces with +0.0, so its bits do not depend on the block
        rng = np.random.default_rng(1937)
        replaced = 0
        for size in minorant_sizes(rng, 300):
            f = minorant_grid(rng, size, "signed-zero")
            v = f.values
            runs = []
            for block in (1, 3, subadd.MINORANT_BLOCK):
                monkeypatch.setattr(subadd, "MINORANT_BLOCK", block)
                runs.append(bits(fc.subadditive_minorant(f).sigma.values))
            monkeypatch.undo()
            assert all(np.array_equal(run, runs[0]) for run in runs)
            sigma = runs[0].view(np.float64)
            assert np.array_equal(sigma, minorant_recurrence(f))
            kept = sigma == v
            assert np.array_equal(runs[0][kept], bits(v[kept]))
            assert not np.any(np.signbit(sigma[~kept]))
            replaced += int(np.count_nonzero((sigma == 0.0) & ~kept))
        assert replaced > 0

    def test_prefix_has_the_prefix_minorant(self):
        # sigma[k] depends only on v[0..k], so the minorant of a prefix is a prefix
        rng = np.random.default_rng(1939)
        b = subadd.MINORANT_BLOCK
        for i in range(60):
            f = minorant_grid(rng, int(rng.integers(4 * b, 300)), MINORANT_KINDS[i % len(MINORANT_KINDS)])
            whole = bits(fc.subadditive_minorant(f).sigma.values)
            for m in sorted({1 + t * b + d for t in range(1, f.values.size // b) for d in (-1, 0, 1)}):
                if m > f.values.size:
                    continue
                head = fc.GridFunction(0.0, f.step, f.values[:m])
                assert np.array_equal(bits(fc.subadditive_minorant(head).sigma.values), whole[:m])


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
