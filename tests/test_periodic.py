import math

import numpy as np
import pytest

import funclass as fc
from funclass.oracle import periodic_check_bruteforce, periodic_witnesses_bruteforce
from support import (
    random_grid_any_sign,
    random_increasing_grid,
    random_periodic_increasing_pair,
)


def wavy(amplitude, d=1.0, length=3.0, h=0.05):
    count = round(length / h) + 1
    return fc.sample(
        lambda t: t + amplitude * math.sin(2 * math.pi * t / d), 0, h, count
    )


class TestPeriodSpec:
    def test_snaps_to_whole_steps(self):
        f = fc.GridFunction(0.0, 0.05, np.zeros(61))
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        assert spec.w == 20
        assert spec.d == 20 * 0.05

    def test_rejects_fractional_period_with_suggestion(self):
        f = fc.GridFunction(0.0, 0.5, np.zeros(10))
        with pytest.raises(fc.GridError, match="nearest valid d"):
            fc.PeriodSpec.for_grid(f, 0.7)

    def test_rejects_period_longer_than_interval(self):
        f = fc.GridFunction(0.0, 0.5, np.zeros(4))
        with pytest.raises(fc.GridError):
            fc.PeriodSpec.for_grid(f, 2.0)

    @pytest.mark.parametrize("d", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_period(self, d):
        f = fc.GridFunction(0.0, 0.5, np.zeros(4))
        with pytest.raises(fc.GridError, match="must be finite and positive"):
            fc.PeriodSpec.for_grid(f, d)

    @pytest.mark.parametrize(
        "step, d",
        [(0.5, 1e308), (0.5, 1e300), (5e-324, 1.0)],
        ids=["inf-steps", "e300", "subnormal"],
    )
    def test_period_past_the_grid_is_rejected_before_rounding(self, step, d):
        # d / step is inf or a 301-digit integer: neither may reach round() or the message
        f = fc.GridFunction(0.0, step, np.zeros(3))
        with pytest.raises(fc.GridError, match="grid has only 2 intervals") as err:
            fc.PeriodSpec.for_grid(f, d)
        assert len(str(err.value)) < 100

    def test_half_step_past_the_grid_still_rounds_to_the_last_interval(self):
        f = fc.GridFunction(0.0, 1.0, np.zeros(4))
        assert fc.PeriodSpec.for_grid(f, 3.0 + 1e-12).w == 3
        with pytest.raises(fc.GridError, match="spans 3.6 steps"):
            fc.PeriodSpec.for_grid(f, 3.6)


class TestPeriodicCheck:
    def test_small_wobble_passes(self):
        f = wavy(0.3)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        assert fc.is_periodically_increasing(f, spec).holds

    def test_monotone_passes_any_period(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_increasing_grid(rng, max_n=50)
            w = int(rng.integers(1, g.n + 1))
            spec = fc.PeriodSpec(d=w * g.step, w=w)
            assert fc.is_periodically_increasing(g, spec).holds

    def test_large_wobble_fails_with_expected_witness(self):
        f = wavy(1.0)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        verdict = fc.is_periodically_increasing(f, spec)
        assert not verdict.holds
        # x = 0.25 against y = 1.75 violates the definition outright
        assert f.values[5] == pytest.approx(1.25, abs=1e-12)
        assert f.values[35] == pytest.approx(0.75, abs=1e-12)
        assert f.values[5] > f.values[35]
        # the reported witness for i = 5 pairs it with the suffix minimum
        by_i = {w.indices[0]: w for w in verdict.witnesses}
        w = by_i[5]
        assert w.lhs == pytest.approx(1.25, abs=1e-12)
        assert w.rhs == float(np.min(f.values[25:]))

    def test_agrees_with_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            if rng.random() < 0.5:
                f, spec, _, _ = random_periodic_increasing_pair(rng, max_n=64)
            else:
                f = random_grid_any_sign(rng, max_n=64)
                w = int(rng.integers(1, f.n + 1))
                spec = fc.PeriodSpec(d=w * f.step, w=w)
            fast = fc.is_periodically_increasing(f, spec).holds
            assert fast == periodic_check_bruteforce(f, spec)

    def test_witnesses_match_scalar_scan(self):
        def bits(witnesses):
            return [(w.indices, w.lhs.hex(), w.rhs.hex()) for w in witnesses]

        rng = np.random.default_rng(59)
        grids = [fc.GridFunction(0.0, 1.0, [5.0, 0.0, 2.0, -0.0, 3.0])]  # rhs keeps -0.0
        grids += [fc.GridFunction(0.0, 0.5, rng.integers(-3, 4, n + 1)) for n in range(1, 30)]
        grids += [random_grid_any_sign(rng, max_n=24) for _ in range(10)]
        found = 0
        for f in grids:
            for w in range(1, f.n + 1):
                spec = fc.PeriodSpec(d=w * f.step, w=w)
                for tol in (fc.Tolerance(), fc.Tolerance(abs=0.0, rel=0.0), fc.Tolerance(0.5, 0.1)):
                    fast = fc.is_periodically_increasing(f, spec, tol).witnesses
                    assert bits(fast) == bits(periodic_witnesses_bruteforce(f, spec, tol))
                    found += len(fast)
        assert found > 1000
        signed = fc.is_periodically_increasing(grids[0], fc.PeriodSpec(d=1.0, w=1)).witnesses
        assert bits(signed) == [((0, 1), "0x1.4000000000000p+2", "0x0.0p+0"),
                                ((2, 3), "0x1.0000000000000p+1", "-0x0.0p+0")]


class TestHeights:
    def test_sine_heights(self):
        f = fc.sample(lambda t: 0.3 * math.sin(2 * math.pi * t), 0, 0.05, 61)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        prof = fc.heights(f, spec)
        assert prof.global_d == pytest.approx(0.6, abs=1e-15)
        assert prof.overall == pytest.approx(0.6, abs=1e-15)

    def test_constant(self):
        f = fc.GridFunction(0.0, 1.0, np.full(8, 2.5))
        prof = fc.heights(f, fc.PeriodSpec(d=2.0, w=2))
        assert np.array_equal(prof.window_heights, np.zeros(8))
        assert prof.global_d == 0.0
        assert prof.overall == 0.0

    def test_hand_built_period_past_the_grid_is_rejected(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 1.0, 2.0])
        with pytest.raises(
            fc.GridError, match=r"^period of 5 steps does not fit a grid with 2 intervals$"
        ):
            fc.heights(f, fc.PeriodSpec(5.0, 5))

    def test_linear_windows(self):
        f = fc.sample(lambda t: t, 0, 0.5, 5)  # x on [0, 2]
        prof = fc.heights(f, fc.PeriodSpec(d=1.0, w=2))
        assert np.allclose(prof.window_heights, [1.0, 1.0, 1.0, 0.5, 0.0])
        assert prof.overall == 2.0

    @pytest.mark.parametrize("values, w", [
        ([-1e308, 1e308, 1e308, 1.5e308], 1),  # window and overall heights overflow
        ([-1e308, 0.0, 1e308], 1),  # only the overall height overflows
    ], ids=["windows", "overall"])
    def test_heights_past_the_float_range_raise(self, values, w):
        f = fc.GridFunction(0.0, 1.0, values)
        with pytest.raises(fc.GridError, match=r"^window heights overflow on this grid$"):
            fc.heights(f, fc.PeriodSpec(d=float(w), w=w))

    def test_heights_near_the_float_range(self):
        values = [-1e307, 1e308, 1.5e308, 1.6e308]
        prof = fc.heights(fc.GridFunction(0.0, 1.0, values), fc.PeriodSpec(d=1.0, w=1))
        naive = [max(values[i : i + 2]) - min(values[i : i + 2]) for i in range(len(values))]
        assert prof.window_heights.tolist() == naive
        assert (prof.global_d, prof.overall) == (max(naive), 1.6e308 + 1e307)

    def test_matches_naive_window_scan(self):
        rng = np.random.default_rng(13)
        cases = []
        for _ in range(100):
            f = random_grid_any_sign(rng, max_n=80)
            cases.append((f, int(rng.integers(1, f.n + 1))))
        for n, w in [(1, 1), (9, 1), (9, 9), (80, 80), (12, 3), (35, 6), (64, 1), (42, 20)]:
            # w = 1, w = N, and grids whose N + 1 + w samples fill whole blocks of w + 1
            cases.append((fc.GridFunction(0.0, 0.25, rng.integers(-3, 4, n + 1)), w))
        for f, w in cases:
            prof = fc.heights(f, fc.PeriodSpec(d=w * f.step, w=w))
            v = f.values
            naive = [
                float(np.max(v[i : i + w + 1]) - np.min(v[i : i + w + 1]))
                for i in range(v.size)
            ]
            assert np.array_equal(prof.window_heights, naive)


class TestGreatestPeriodicMinorant:
    def test_monotone_is_fixed(self):
        rng = np.random.default_rng(17)
        g = random_increasing_grid(rng, max_n=40)
        spec = fc.PeriodSpec(d=3 * g.step, w=3)
        assert fc.greatest_periodic_minorant(g, spec) == g

    def test_negated_identity(self):
        f = fc.sample(lambda t: -t, 0, 0.25, 9)  # -x on [0, 2]
        spec = fc.PeriodSpec(d=1.0, w=4)
        tilde = fc.greatest_periodic_minorant(f, spec)
        expected = [-2.0] * 5 + [-1.25, -1.5, -1.75, -2.0]
        assert np.array_equal(tilde.values, expected)

    def test_result_passes_check_below_f_and_idempotent(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            f = random_grid_any_sign(rng, max_n=64)
            w = int(rng.integers(1, f.n + 1))
            spec = fc.PeriodSpec(d=w * f.step, w=w)
            tilde = fc.greatest_periodic_minorant(f, spec)
            assert np.all(tilde.values <= f.values)
            assert fc.is_periodically_increasing(tilde, spec).holds
            assert fc.greatest_periodic_minorant(tilde, spec) == tilde

    def test_maximality_against_generated_minorants(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            f = random_grid_any_sign(rng, max_n=64)
            w = int(rng.integers(1, f.n + 1))
            spec = fc.PeriodSpec(d=w * f.step, w=w)
            tilde = fc.greatest_periodic_minorant(f, spec)
            g = f.with_values(f.values - rng.uniform(0.0, 1.0, f.values.size))
            candidate = fc.greatest_periodic_minorant(g, spec)
            assert np.all(candidate.values <= tilde.values)


class TestEnvelopes:
    def test_hand_example(self):
        f = fc.GridFunction(0.0, 1.0, [0.0, 2.0, 1.0])
        env = fc.envelopes(f)
        assert np.array_equal(env.f_lower.values, [0.0, 1.0, 1.0])
        assert np.array_equal(env.f_upper.values, [0.0, 2.0, 2.0])
        assert np.array_equal(env.f_hat.values, [0.0, 1.5, 1.5])

    def test_monotone_input_is_its_own_envelope(self):
        rng = np.random.default_rng(29)
        g = random_increasing_grid(rng, max_n=40)
        env = fc.envelopes(g)
        assert env.f_lower == g
        assert env.f_upper == g
        assert env.f_hat == g

    def test_decreasing_input(self):
        f = fc.sample(lambda t: -t, 0, 1.0, 3)
        env = fc.envelopes(f)
        assert np.array_equal(env.f_lower.values, [-2.0, -2.0, -2.0])
        assert np.array_equal(env.f_upper.values, [0.0, 0.0, 0.0])

    def test_envelopes_bracket_and_are_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            f = random_grid_any_sign(rng, max_n=80)
            env = fc.envelopes(f)
            assert np.all(env.f_lower.values <= f.values)
            assert np.all(f.values <= env.f_upper.values)
            assert np.all(np.diff(env.f_lower.values) >= 0)
            assert np.all(np.diff(env.f_upper.values) >= 0)

    def test_extremality_against_generated_monotone_bounds(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            f = random_grid_any_sign(rng, max_n=64)
            env = fc.envelopes(f)
            below = f.with_values(f.values - rng.uniform(0.0, 1.0, f.values.size))
            minorant = fc.envelopes(below).f_lower  # monotone and <= f
            assert np.all(minorant.values <= env.f_lower.values)
            above = f.with_values(f.values + rng.uniform(0.0, 1.0, f.values.size))
            majorant = fc.envelopes(above).f_upper  # monotone and >= f
            assert np.all(env.f_upper.values <= majorant.values)


class TestHatBound:
    def test_monotone_has_zero_error(self):
        rng = np.random.default_rng(41)
        g = random_increasing_grid(rng, max_n=40)
        spec = fc.PeriodSpec(d=2 * g.step, w=2)
        rep = fc.check_hat_bound(g, spec)
        assert rep.sup_err == 0.0
        assert rep.holds

    def test_wavy_function(self):
        f = wavy(0.3)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        rep = fc.check_hat_bound(f, spec)
        assert rep.holds
        assert rep.sup_err <= rep.bound + 1e-9

    def test_rejects_non_periodic_input(self):
        f = wavy(1.0)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        with pytest.raises(fc.GridError, match="periodically increasing"):
            fc.check_hat_bound(f, spec)

    def test_randomized_construction(self):
        rng = np.random.default_rng(43)
        for _ in range(120):
            f, spec, _, _ = random_periodic_increasing_pair(rng, max_n=96)
            rep = fc.check_hat_bound(f, spec)
            assert rep.sup_err <= rep.bound + 1e-9


class TestPerturbationCheck:
    def test_linear_plus_small_sine(self):
        g = fc.sample(lambda t: t, 0, 0.05, 61)
        k = fc.sample(lambda t: 0.3 * math.sin(2 * math.pi * t), 0, 0.05, 61)
        spec = fc.PeriodSpec.for_grid(g, 1.0)
        rep = fc.perturbation_check(g, k, spec)
        assert rep.hypothesis_holds
        assert rep.min_window_height == pytest.approx(1.0, abs=1e-12)
        assert rep.k_height == pytest.approx(0.6, abs=1e-12)
        assert rep.plus.holds
        assert rep.minus.holds

    def test_zero_perturbation(self):
        g = fc.sample(lambda t: t, 0, 0.5, 9)
        k = g.with_values(np.zeros(9))
        spec = fc.PeriodSpec(d=1.0, w=2)
        rep = fc.perturbation_check(g, k, spec)
        assert rep.hypothesis_holds
        assert rep.plus.holds and rep.minus.holds

    def test_windows_near_the_float_range(self):
        # the first window and the overall height pass the float range; the check
        # reads only the windows, and an infinite one still bounds k's height
        g = fc.GridFunction(0.0, 1.0, [-1e308, 0.0, 1e308, 1.5e308])
        rep = fc.perturbation_check(g, g.with_values(np.zeros(4)), fc.PeriodSpec(2.0, 2))
        assert rep.hypothesis_holds and rep.min_window_height == 1.5e308
        assert rep.plus.holds and rep.minus.holds

    def test_k_height_past_the_float_range_raises(self):
        # an infinite k height would pass the hypothesis (the relative margin is
        # inf too) while both perturbed checks fail
        g = fc.GridFunction(0.0, 1.0, [0.0, 1.0, 2.0, 3.0])
        k = g.with_values([-1e308, 1e308, 0.0, 0.0])
        with pytest.raises(fc.GridError, match="height of k overflows"):
            fc.perturbation_check(g, k, fc.PeriodSpec(1.0, 1))

    def test_oversized_perturbation_makes_no_claim(self):
        g = fc.sample(lambda t: t, 0, 0.05, 61)
        k = fc.sample(lambda t: 2.0 * math.sin(2 * math.pi * t), 0, 0.05, 61)
        spec = fc.PeriodSpec.for_grid(g, 1.0)
        rep = fc.perturbation_check(g, k, spec)
        assert not rep.hypothesis_holds
        assert rep.k_height == pytest.approx(4.0, abs=1e-12)
        assert rep.plus is None and rep.minus is None

    def test_rejects_grid_mismatch(self):
        g = fc.sample(lambda t: t, 0, 0.5, 9)
        k = fc.sample(lambda t: t, 0, 0.25, 9)
        with pytest.raises(fc.GridError):
            fc.perturbation_check(g, k, fc.PeriodSpec(d=1.0, w=2))

    def test_rejects_decreasing_g(self):
        g = fc.sample(lambda t: -t, 0, 0.5, 9)
        k = g.with_values(np.zeros(9))
        with pytest.raises(fc.GridError, match="non-decreasing"):
            fc.perturbation_check(g, k, fc.PeriodSpec(d=1.0, w=2))

    def test_forward_direction_on_random_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(80):
            f, spec, g, k = random_periodic_increasing_pair(rng, max_n=64)
            rep = fc.perturbation_check(g, k, spec)
            assert rep.hypothesis_holds
            assert rep.plus.holds
            assert rep.minus.holds


class TestDecompose:
    def test_wavy_example(self):
        f = wavy(0.3)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        dec = fc.decompose(f, spec)
        assert dec.l == pytest.approx(1.0, abs=1e-12)
        assert dec.periodicity_error <= 1e-9
        assert np.all(np.diff(dec.g.values) >= 0)
        assert np.array_equal(dec.g.values + dec.h.values, f.values)

    def test_pure_linear(self):
        f = fc.sample(lambda t: t, 0, 0.05, 61)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        dec = fc.decompose(f, spec)
        assert dec.g == f
        assert np.array_equal(dec.h.values, np.zeros(61))
        assert dec.l == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_amplitude(self):
        f = wavy(1.0)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        with pytest.raises(fc.GridError, match="periodically increasing"):
            fc.decompose(f, spec)

    def test_rejects_short_interval(self):
        f = fc.sample(lambda t: t, 0, 0.5, 5)  # length 2 with d = 1: not > 2d
        spec = fc.PeriodSpec(d=1.0, w=2)
        with pytest.raises(fc.GridError, match="twice the period"):
            fc.decompose(f, spec)

    def test_rejects_non_constant_step_naming_indices(self):
        f = fc.sample(lambda t: t**2, 0, 0.25, 21)  # increasing but shift varies
        spec = fc.PeriodSpec(d=1.0, w=4)
        with pytest.raises(fc.GridError, match="not constant"):
            fc.decompose(f, spec)

    def test_shift_margin_is_ten_times_the_tolerance(self):
        f = fc.sample(lambda t: t**2, 0, 0.25, 21)  # shift differences span 8.0
        spec = fc.PeriodSpec(d=1.0, w=4)
        fc.decompose(f, spec, fc.Tolerance(0.8, 0.0))  # margin 8.0 accepts
        with pytest.raises(fc.GridError, match="not constant"):
            fc.decompose(f, spec, fc.Tolerance(0.79, 0.0))

    def test_shift_difference_past_the_float_range_raises(self):
        # f(x+1) - f(x) at x = 0 is 2e308: a GridError, not an inf shift (nor a warning)
        f = fc.GridFunction(0.0, 1.0, [-1e308, 1e308, 1e308, 1.5e308])
        with pytest.raises(fc.GridError, match=r"^shift differences overflow on this grid$"):
            fc.decompose(f, fc.PeriodSpec(d=1.0, w=1))

    def test_tolerance_too_large_to_scale_is_rejected(self):
        # ten times this absolute tolerance overflows to inf, which is no tolerance
        f = fc.sample(lambda t: t, 0, 0.05, 61)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        with pytest.raises(fc.GridError, match="absolute tolerance must be finite"):
            fc.decompose(f, spec, fc.Tolerance(1e308, 0.0))

    def test_too_large_tolerance_is_named_as_given(self):
        f = fc.sample(lambda t: t, 0, 0.05, 61)
        spec = fc.PeriodSpec.for_grid(f, 1.0)
        given = r"tenfold .* got 1e\+308 \(10 \* 1e\+308 overflows\)$"
        with pytest.raises(fc.GridError, match=given):
            fc.decompose(f, spec, fc.Tolerance(1e308, 0.0))

    @pytest.mark.parametrize("d,amplitude", [(1.0, 0.1), (1.0, 0.3), (0.5, 0.1)])
    def test_periodicity_of_h(self, d, amplitude):
        f = wavy(amplitude, d=d, length=3.0, h=d / 20)
        spec = fc.PeriodSpec.for_grid(f, d)
        dec = fc.decompose(f, spec)
        hv = dec.h.values
        assert np.max(np.abs(hv[spec.w :] - hv[: hv.size - spec.w])) <= 1e-9


class TestConeClosure:
    def test_sum_scale_and_power_stay_periodic(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            f1, spec, _, _ = random_periodic_increasing_pair(rng, max_n=48)
            f2, _, _, _ = random_periodic_increasing_pair(rng, max_n=48)
            f2 = f1.with_values(
                np.interp(np.arange(f1.values.size), np.arange(f2.values.size), f2.values)
            )
            # resampling may break f2's property; rebuild it as a minorant
            f2 = fc.greatest_periodic_minorant(f2, spec)
            assert fc.is_periodically_increasing(f1 + f2, spec).holds
            c = float(rng.uniform(0.0, 3.0))
            assert fc.is_periodically_increasing(c * f1, spec).holds
            shifted = f1.with_values(f1.values - np.min(f1.values))  # non-negative
            assert fc.is_periodically_increasing(shifted**3, spec).holds
