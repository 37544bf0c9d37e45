from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from corpus import assert_power_law, diagonal_split, mat_pow, random_spd, sdd_system
from seriesinv import (
    CompositeSpec,
    HarmonicRegressorSpec,
    MulCounter,
    additive_correction_step,
    additive_exponents,
    classical_exponent,
    composite_exponent,
    composite_step,
    double_exponent,
    double_ns_step,
    fro_norm,
    gen_harmonic_matrix,
    initial_double,
    initial_richardson,
    initial_series,
    ns_step,
    plan_order,
    residual_of,
    richardson_step,
    split_scalar,
    square_matrix,
)
from seriesinv.harness import series_params


def diag_system(dim, rho, rng):
    a = sdd_system(dim, rho, rng, jitter=0.002)
    sp = diagonal_split(a)
    return a, sp


class TestInitialSeries:
    def test_order_one_is_splitting(self, rng):
        a, sp = diag_system(4, 0.9, rng)
        st = initial_series(sp, 0, 1)
        assert np.array_equal(st.estimate, sp.precond)
        assert np.array_equal(st.residual, sp.residual)
        assert (st.step, st.ctr.mmm) == (0, 0)

    def test_identity_matrix(self):
        sp = diagonal_split(np.eye(3))
        for p, w in ((0, 1), (1, 2), (2, 2)):
            st = initial_series(sp, p, w)
            assert np.allclose(st.estimate, np.eye(3), atol=1e-15)
            assert np.allclose(st.residual, np.zeros((3, 3)), atol=1e-15)

    def test_residual_is_power_of_splitting(self, rng):
        a, sp = diag_system(3, 0.9, rng)
        st = initial_series(sp, 1, 2)  # h = 4
        target = mat_pow(sp.residual, 4)
        assert fro_norm(st.residual - target) <= 1e-12

    def test_state_consistency(self, rng):
        a, sp = diag_system(4, 0.9, rng)
        st = initial_series(sp, 2, 3)
        check = np.eye(4) - st.estimate @ a
        assert fro_norm(check - st.residual) <= 1e-10 * (1.0 + fro_norm(st.residual))


class TestClassicalStep:
    def test_second_order_first_step(self, rng):
        a, sp = diag_system(4, 0.9, rng)
        st = ns_step(initial_series(sp, 0, 1, order=2), a)
        assert_power_law(st.residual, sp.residual, 2, rel=1e-12)

    def test_second_order_three_steps(self, rng):
        a, sp = diag_system(4, 0.95, rng)
        st = initial_series(sp, 0, 1, order=2)
        for _ in range(3):
            st = ns_step(st, a)
        assert_power_law(st.residual, sp.residual, 8, rel=1e-9)

    def test_third_order_with_series(self, rng):
        a, sp = diag_system(4, 0.95, rng)
        st = initial_series(sp, 1, 1, order=3)  # h = 2
        for _ in range(2):
            st = ns_step(st, a)
        assert_power_law(st.residual, sp.residual, 18, rel=1e-9)

    def test_step_cost_is_the_order(self, rng):
        a, sp = diag_system(4, 0.9, rng)
        for n in (2, 3, 5):
            st = initial_series(sp, 0, 1, order=n)
            before = st.ctr.mmm
            st = ns_step(st, a)
            assert st.ctr.mmm - before == n

    def test_plan_driven_step(self, rng):
        a, sp = diag_system(4, 0.95, rng)
        plain = ns_step(initial_series(sp, 0, 1, order=8), a)
        plan = plan_order(8)
        st = initial_series(sp, 0, 1, order=8)
        before = st.ctr.mmm
        planned = ns_step(st, a, plan=plan)
        assert fro_norm(planned.estimate - plain.estimate) <= 1e-10 * fro_norm(plain.estimate)
        assert planned.ctr.mmm - before == plan.mmm_poly + 1

    def test_plan_order_mismatch_rejected(self, rng):
        a, sp = diag_system(4, 0.9, rng)
        st = initial_series(sp, 0, 1, order=3)
        with pytest.raises(ValueError):
            ns_step(st, a, plan=plan_order(4))

    def test_consistency_every_step(self, rng):
        a, sp = diag_system(4, 0.95, rng)
        st = initial_series(sp, 1, 2, order=2)
        for _ in range(4):
            st = ns_step(st, a)
            check = np.eye(4) - st.estimate @ a
            assert fro_norm(check - st.residual) <= 1e-10 * (1.0 + fro_norm(st.residual))


class TestCompositeStep:
    def test_simplest_form(self, rng):
        # rates (1,), n = 1: the step reduces to G <- B G + S^-1
        a, sp = diag_system(4, 0.9, rng)
        st = initial_series(sp, 0, 1, order=1)
        spec = CompositeSpec((1,))
        expected = np.array(sp.precond)
        for _ in range(3):
            st = composite_step(st, a, sp, spec, order_n=1)
            expected = sp.residual @ expected + sp.precond
            assert fro_norm(st.estimate - expected) <= 1e-11 * fro_norm(expected)

    def test_rate_one_unit_is_s_inverse_at_no_cost(self, rng):
        # A rate-1 unit contributes T = S^-1 with no product; only its
        # residual I - S^-1 A, R G and the new residual are counted.
        a, sp = diag_system(4, 0.9, rng)
        st = initial_series(sp, 1, 2, order=1)
        before = st.ctr.mmm
        new = composite_step(st, a, sp, CompositeSpec((1,)), order_n=1)
        expected = (np.eye(4) - sp.precond @ a) @ st.estimate + sp.precond
        assert np.array_equal(new.estimate, expected)
        assert new.ctr.mmm - before == 3

    def test_exponent_law(self, rng):
        # rates (2, 3), n = 2, h = 1: one step gives B^(5 + 2) = B^7
        a, sp = diag_system(4, 0.95, rng)
        st = composite_step(
            initial_series(sp, 0, 1, order=2), a, sp, CompositeSpec((2, 3)), order_n=2
        )
        assert_power_law(st.residual, sp.residual, 7, rel=1e-11)

    def test_exact_inverse_after_one_step(self):
        # B = 0: the composite part alone reconstructs the inverse
        a = square_matrix(np.diag([2.0, 4.0]))
        sp = diagonal_split(a)
        st = composite_step(
            initial_series(sp, 0, 1, order=2), a, sp, CompositeSpec((3,)), order_n=2
        )
        assert np.allclose(st.estimate, np.diag([0.5, 0.25]), atol=1e-15)
        assert fro_norm(st.residual) <= 1e-15

    def test_residual_product_commutes(self, rng):
        # the product of unit residuals collapses to one power of B
        a, sp = diag_system(4, 0.95, rng)
        rates = (2, 3, 4)
        b = sp.residual
        prod = np.eye(4)
        for x in rates:
            prod = prod @ mat_pow(b, x)
        target = mat_pow(b, sum(rates))
        assert fro_norm(prod - target) <= 1e-11 * fro_norm(target)

    def test_multi_step_exponents(self, rng):
        a, sp = diag_system(4, 0.97, rng)
        spec = CompositeSpec((2, 2))
        st = initial_series(sp, 1, 1, order=2)  # h = 2
        e = 2
        for _ in range(2):
            st = composite_step(st, a, sp, spec, order_n=2)
            e = 4 + 2 * e
            assert_power_law(st.residual, sp.residual, e, rel=1e-9)
        assert e == composite_exponent(2, 2, 2, (2, 2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CompositeSpec(())
        with pytest.raises(ValueError):
            CompositeSpec((0, 2))

    @pytest.mark.parametrize("rates", [(2.5,), (2.0,), (1, "2"), (np.float64(3.0),)])
    def test_non_integral_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="rates must be positive integers"):
            CompositeSpec(rates)

    def test_numpy_integer_rates_accepted(self):
        assert CompositeSpec((np.int64(2), 3)).rates == (2, 3)

    def test_step_dependent_rates_run(self, rng):
        # rates m**k per step: e_k = w m^k + n e_(k-1)
        a, sp = diag_system(4, 0.995, rng)
        st = initial_series(sp, 0, 1, order=2)
        e = 1
        for k in range(1, 4):
            st = composite_step(st, a, sp, CompositeSpec((2**k, 2**k)), order_n=2)
            e = 2 * 2**k + 2 * e
            assert_power_law(st.residual, sp.residual, e, rel=1e-9)

    def test_large_rate_uses_doubling_path(self, rng):
        # a rate beyond the plan-search cap exercises the doubling series
        a, sp = diag_system(4, 0.999, rng)
        st = composite_step(
            initial_series(sp, 0, 1, order=2), a, sp, CompositeSpec((100,)), order_n=2
        )
        assert_power_law(st.residual, sp.residual, 102, rel=1e-9)


class TestDoubleStep:
    def test_initialization_invariants(self, rng):
        a, sp = diag_system(4, 0.9, rng)
        st = initial_double(sp, 1, 2, order=2)
        eye = np.eye(4)
        assert fro_norm((eye - st.accel_estimate @ a) - st.accel_residual) <= 1e-10 * (
            1.0 + fro_norm(st.accel_residual)
        )
        assert fro_norm((eye - st.estimate @ a) - st.residual) <= 1e-10 * (
            1.0 + fro_norm(st.residual)
        )

    def test_first_step_exponent(self, rng):
        a, sp = diag_system(4, 0.95, rng)
        st = double_ns_step(initial_double(sp, 0, 1, order=2), a)
        assert_power_law(st.residual, sp.residual, 6, rel=1e-11)

    def test_second_step_exponent(self, rng):
        a, sp = diag_system(4, 0.97, rng)
        st = initial_double(sp, 0, 1, order=2)
        for _ in range(2):
            st = double_ns_step(st, a)
        assert_power_law(st.residual, sp.residual, 20, rel=1e-9)

    def test_exact_inverse_for_identity(self):
        sp = diagonal_split(np.eye(3))
        st = initial_double(sp, 0, 1, order=2)
        assert np.allclose(st.estimate, np.eye(3), atol=1e-15)
        st = double_ns_step(st, np.eye(3))
        assert fro_norm(st.residual) <= 1e-15

    def test_serial_and_threaded_runs_are_bitwise_equal(self, rng):
        a, sp = diag_system(5, 0.95, rng)
        serial = initial_double(sp, 1, 2, order=3)
        threaded = initial_double(sp, 1, 2, order=3)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                serial = double_ns_step(serial, a)
                threaded = double_ns_step(threaded, a, executor=pool)
        assert np.array_equal(serial.estimate, threaded.estimate)
        assert np.array_equal(serial.residual, threaded.residual)
        assert np.array_equal(serial.accel_estimate, threaded.accel_estimate)
        assert serial.ctr.mmm == threaded.ctr.mmm


class TestAdditiveStep:
    def test_exact_inverse_is_fixed_point(self):
        a = square_matrix(np.diag([2.0, 5.0]))
        exact = np.diag([0.5, 0.2])
        z, g = additive_correction_step(exact, exact, a, 2, MulCounter())
        assert np.allclose(g, exact, atol=1e-15)
        assert np.allclose(z, exact, atol=1e-15)

    def test_first_step_order_two(self, rng):
        a, sp = diag_system(4, 0.95, rng)
        st = initial_series(sp, 0, 1)
        z, g = additive_correction_step(st.estimate, st.estimate, a, 2, st.ctr)
        assert_power_law(np.eye(4) - z @ a, sp.residual, 2, rel=1e-11)
        assert_power_law(np.eye(4) - g @ a, sp.residual, 3, rel=1e-11)

    def test_two_steps_order_three(self, rng):
        # exponent recursion e_F <- e_F + p e_L gives 1 -> 4 -> 13
        a, sp = diag_system(4, 0.97, rng)
        st = initial_series(sp, 0, 1)
        z = g = st.estimate
        for _ in range(2):
            z, g = additive_correction_step(z, g, a, 3, st.ctr)
        assert_power_law(np.eye(4) - z @ a, sp.residual, 9, rel=1e-10)
        assert_power_law(np.eye(4) - g @ a, sp.residual, 13, rel=1e-10)
        assert additive_exponents(2, 3, 1) == (9, 13)

    def test_order_below_two_rejected(self, rng):
        a, sp = diag_system(3, 0.9, rng)
        with pytest.raises(ValueError):
            additive_correction_step(sp.precond, sp.precond, a, 1, MulCounter())


class TestExponentModels:
    def test_law_examples(self):
        assert classical_exponent(2, 3, 1) == 9
        assert double_exponent(1, 2, 1) == 6
        assert double_exponent(3, 2, 2) == 112
        assert composite_exponent(1, 2, 1, (2, 3)) == 7
        assert additive_exponents(2, 3, 1)[1] == 13

    def test_double_matches_step_recursion(self):
        for n in range(2, 7):
            for h in range(1, 5):
                e = h
                for k in range(1, 9):
                    e = n * (h * n**k) + n * e
                    assert e == double_exponent(k, n, h)

    def test_double_dominates_classical(self):
        for n in range(2, 7):
            for h in range(1, 5):
                for k in range(1, 11):
                    assert double_exponent(k, n, h) > classical_exponent(k, n, h)

    def test_double_dominates_additive_recursion(self):
        # matched order p = n and matched start: the double loop's error
        # exponent strictly exceeds the additive scheme's from step one
        for n in range(2, 7):
            for h in range(1, 5):
                for k in range(1, 11):
                    assert double_exponent(k, n, h) > additive_exponents(k, n, h)[1]

    def test_exponent_law_measured_grid(self, rng):
        # all four kinds against mat_pow on one matched system, with the
        # state-consistency invariant checked at every step
        a, sp = diag_system(4, 0.998, rng)
        eye = np.eye(4)

        def consistent(estimate, residual):
            gap = fro_norm((eye - estimate @ a) - residual)
            assert gap <= 1e-10 * (1.0 + fro_norm(residual))

        for n in (2, 3, 4):
            for h, (p, w) in ((1, (0, 1)), (2, (1, 1)), (3, (2, 1))):
                st = initial_series(sp, p, w, order=n)
                for k in range(1, 4):
                    st = ns_step(st, a)
                    consistent(st.estimate, st.residual)
                    assert_power_law(st.residual, sp.residual, classical_exponent(k, n, h))
                dst = initial_double(sp, p, w, order=n)
                for k in range(1, 4):
                    dst = double_ns_step(dst, a)
                    consistent(dst.estimate, dst.residual)
                    consistent(dst.accel_estimate, dst.accel_residual)
                    assert_power_law(dst.residual, sp.residual, double_exponent(k, n, h))
                cst = initial_series(sp, p, w, order=n)
                rates = (2, n)
                for k in range(1, 4):
                    cst = composite_step(cst, a, sp, CompositeSpec(rates), order_n=n)
                    consistent(cst.estimate, cst.residual)
                    assert_power_law(
                        cst.residual, sp.residual, composite_exponent(k, n, h, rates)
                    )
                base = initial_series(sp, p, w, order=n)
                z = g = base.estimate
                for k in range(1, 4):
                    z, g = additive_correction_step(z, g, a, n, base.ctr)
                    e_l, e_f = additive_exponents(k, n, h)
                    assert_power_law(eye - z @ a, sp.residual, e_l)
                    assert_power_law(eye - g @ a, sp.residual, e_f)


@pytest.mark.parametrize("n,h", [(2, 4), (3, 16), (4, 1)])
def test_accelerator_residual_is_already_held(n, h):
    # double_ns_step's accelerator branch recomputes I - L A, which the
    # state already holds as accel_residual (richardson_recursive_step reuses
    # it).  Bitwise equal on double and richardson runs stepped on the
    # splitting's A, as run_comparison steps them, so that product can go.
    harmonic, b, _ = gen_harmonic_matrix(HarmonicRegressorSpec.default())
    spd = random_spd(5, np.random.default_rng(5))
    p, w = series_params(h)
    for a, rhs in ((harmonic, b), (spd, spd @ np.ones(5))):
        sp = split_scalar(a)
        dst = initial_double(sp, p, w, order=n)
        rst = initial_richardson(sp, rhs, p, w, order=n)
        for _ in range(5):
            for st in (dst, rst.inner):
                held = st.accel_residual
                again = residual_of(st.accel_estimate, sp.matrix, MulCounter())
                assert np.array_equal(again, held)
                assert np.array_equal(np.signbit(again), np.signbit(held))
            dst = double_ns_step(dst, sp.matrix)
            rst = richardson_step(rst, sp.matrix, rhs)
