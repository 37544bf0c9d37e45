import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from corpus import (
    BENCH_SPECS,
    additive_exponents_loop,
    composite_exponent_loop,
    contractive_scalar_system,
    cumulative_exponent_sum,
    diagonal_split,
    horner_iterates,
    mat_pow,
    power_sum,
    same_bits,
    sdd_system,
    step_exponent_qn,
)
from seriesinv import (
    additive_exponents,
    composite_exponent,
    cumulative_exponent,
    cumulative_exponent_closed,
    fro_norm,
    initial_richardson,
    richardson_recursive_step,
    richardson_step,
    split_scalar,
    step_exponent_general,
)
from seriesinv import richardson
from seriesinv.harness import series_params
from seriesinv.matrix_core import MulCounter


def scalar_setup(dim, rho, rng):
    a, eps = contractive_scalar_system(dim, rho, rng)
    sp = split_scalar(a, eps)
    theta_star = rng.standard_normal(dim)
    return a, sp, theta_star, a @ theta_star


class TestStepExponents:
    def test_q_equals_n_step(self):
        assert step_exponent_qn(1, 2, 1) == 16

    def test_general_q_step(self):
        assert step_exponent_general(1, 2, 1, 3) == 22

    def test_general_reduces_to_qn(self):
        for n in range(2, 6):
            for h in range(1, 4):
                for k in range(1, 9):
                    assert step_exponent_general(k, n, h, n) == step_exponent_qn(k, n, h)

    def test_cumulative_examples(self):
        assert cumulative_exponent_closed(1, 2, 1) == 16
        assert cumulative_exponent_closed(2, 2, 1) == 64
        assert cumulative_exponent(3, 2, 1) == 16 + 48 + 128 == 192
        assert cumulative_exponent_closed(3, 2, 1) == 192
        # telescoping: the first step equals its own cumulative sum
        assert step_exponent_qn(1, 3, 2) == 2 * (1 * 3**3 + 2 * 3**2) == 90
        assert cumulative_exponent_closed(1, 3, 2) == 90

    def test_closed_form_matches_telescoped_sum(self):
        for n in range(2, 7):
            for h in range(1, 5):
                for k in range(1, 13):
                    assert cumulative_exponent_closed(k, n, h) == cumulative_exponent_sum(k, n, h)

    def test_closed_laws_equal_their_loop_oracles(self):
        # every k, n, h and q of the grid, negatives and 0 included, as
        # ints and as numpy integers: the closed forms are the loops' sums
        grid = itertools.product(range(-2, 12), range(-4, 7), range(-1, 4), (int, np.int64))
        for k, n, h, cast in grid:
            args = cast(k), cast(n), cast(h)
            for rates in ((), (2,), (5, 7), (-1, 3)):
                got = composite_exponent(*args, tuple(map(cast, rates)))
                assert got == composite_exponent_loop(k, n, h, rates), (k, n, h, rates)
            assert additive_exponents(*args) == additive_exponents_loop(k, n, h), (k, n, h)
            for q in (None, *range(-1, 6)):
                got = cumulative_exponent(*args, q if q is None else cast(q))
                assert got == cumulative_exponent_sum(k, n, h, q), (k, n, h, q)
                assert type(got) is int

    def test_laws_match_the_branching_oracle(self):
        # the former q == n branch, kept here as the oracle
        def cumulative_oracle(k, n, h, q):
            if q is None or q == n:
                return sum(step_exponent_qn(j, n, h) for j in range(1, k + 1))
            return sum(step_exponent_general(j, n, h, q) for j in range(1, k + 1))

        def step_oracle(k, n, h, q):
            if q is None or q == n:
                return step_exponent_qn(k, n, h)
            return step_exponent_general(k, n, h, q)

        for k in range(1, 9):
            for n in range(1, 7):
                for h in range(1, 5):
                    for q in (None, n, n + 1):
                        total = cumulative_oracle(k, n, h, q)
                        assert cumulative_exponent(k, n, h, q) == total
                        step = step_exponent_general(k, n, h, n if q is None else q)
                        assert step == step_oracle(k, n, h, q)

    def test_closed_form_rejects_first_order(self):
        with pytest.raises(ValueError, match="closed form requires n >= 2"):
            cumulative_exponent_closed(3, 1, 1)
        with pytest.raises(ValueError, match="requires k >= 1 and h >= 1"):
            cumulative_exponent_closed(0, 2, 1)


class TestDirectStep:
    def test_identity_matrix_is_immediate(self):
        a = np.eye(3)
        theta_star = np.array([1.0, -2.0, 0.5])
        st = initial_richardson(split_scalar(a, eps=0.5), a @ theta_star)
        assert np.allclose(st.theta, theta_star, atol=1e-15)

    def test_q_checked_before_the_initialisation(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the start program ran")

        monkeypatch.setattr(richardson, "run_program", fail)
        with pytest.raises(ValueError, match="q must be >= 1"):
            initial_richardson(split_scalar(np.eye(3)), np.ones(3), 0, 1, order=2, q=0)
        with pytest.raises(ValueError, match=r"dimension mismatch: \(3, 3\) @ \(2,\)"):
            initial_richardson(split_scalar(np.eye(3)), np.ones(2))

    def test_first_step_contraction_power(self, rng):
        a, sp, theta_star, b = scalar_setup(4, 0.98, rng)
        st = initial_richardson(sp, b, order=2, q=2)
        t0 = st.theta - theta_star
        st = richardson_step(st, a, b)
        target = mat_pow(sp.residual, 16) @ t0
        err = st.theta - theta_star
        assert np.linalg.norm(err - target) <= 1e-9 * np.linalg.norm(target)
        rho = float(np.max(np.abs(np.linalg.eigvalsh(sp.residual))))
        assert np.linalg.norm(err) <= rho**16 * np.linalg.norm(t0) * (1.0 + 1e-6)

    def test_general_q_step_exponent(self, rng):
        a, sp, theta_star, b = scalar_setup(4, 0.98, rng)
        st = initial_richardson(sp, b, order=2, q=3)
        t0 = st.theta - theta_star
        st = richardson_step(st, a, b)
        target = mat_pow(sp.residual, 22) @ t0
        err = st.theta - theta_star
        assert np.linalg.norm(err - target) <= 1e-9 * np.linalg.norm(target)

    @pytest.mark.parametrize("n,h,pw", [(2, 1, (0, 1)), (2, 2, (1, 1)), (3, 1, (0, 1)), (3, 2, (1, 1))])
    def test_mismatch_model_scalar_corpus(self, rng, n, h, pw):
        a, sp, theta_star, b = scalar_setup(5, 0.999, rng)
        st = initial_richardson(sp, b, pw[0], pw[1], order=n, q=n)
        t0 = st.theta - theta_star
        for k in range(1, 4):
            st = richardson_step(st, a, b)
            gamma = cumulative_exponent(k, n, h)
            target = mat_pow(sp.residual, gamma) @ t0
            err = st.theta - theta_star
            if np.linalg.norm(target) < 1e-250:
                assert np.linalg.norm(err) <= 1e-200
            else:
                assert np.linalg.norm(err - target) <= 1e-8 * np.linalg.norm(target)

    @pytest.mark.parametrize("n,h,pw", [(2, 1, (0, 1)), (3, 2, (1, 1))])
    def test_mismatch_model_sdd_corpus(self, rng, n, h, pw):
        a = sdd_system(6, 0.999, rng, jitter=0.0005)
        sp = diagonal_split(a)
        theta_star = rng.standard_normal(6)
        b = a @ theta_star
        st = initial_richardson(sp, b, pw[0], pw[1], order=n, q=n)
        t0 = st.theta - theta_star
        for k in range(1, 4):
            st = richardson_step(st, a, b)
            target = mat_pow(sp.residual, cumulative_exponent(k, n, h)) @ t0
            err = st.theta - theta_star
            assert np.linalg.norm(err - target) <= 1e-8 * np.linalg.norm(target)

    def test_residual_mismatch_duality(self, rng):
        # A^-1 (b - A theta_k) must equal theta_star - theta_k
        a, sp, theta_star, b = scalar_setup(5, 0.99, rng)
        st = initial_richardson(sp, b, order=2, q=2)
        for _ in range(2):
            st = richardson_step(st, a, b)
            mismatch = st.theta - theta_star
            recovered = np.linalg.solve(a, b - a @ st.theta)
            assert np.linalg.norm(recovered + mismatch) <= 1e-9 * np.linalg.norm(mismatch)


class TestRecursiveStep:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stacked_power_sum_equals_each_2d_sum_bitwise(self, rng, n):
        gamma = rng.standard_normal((4, 6, 6)) / 6
        gamma[0, 1, 2] = -0.0
        ctr = MulCounter()
        stacked = power_sum(gamma, n, ctr)
        assert stacked.shape == gamma.shape
        assert ctr.mmm == 4 * max(n - 2, 0)
        for i in range(4):
            one = MulCounter()
            alone = power_sum(gamma[i], n, one)
            assert one.mmm == max(n - 2, 0)
            assert np.array_equal(stacked[i], alone)
            assert np.array_equal(np.signbit(stacked[i]), np.signbit(alone))

    def test_requires_matching_neumann_order(self, rng):
        a, sp, theta_star, b = scalar_setup(4, 0.9, rng)
        st = initial_richardson(sp, b, order=2, q=3)
        with pytest.raises(ValueError):
            richardson_recursive_step(st, a, b)
        # and a right-hand side of the wrong length
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            richardson_step(st, a, b[:3])

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct_form_every_step(self, rng, n):
        a, sp, theta_star, b = scalar_setup(5, 0.995, rng)
        direct = initial_richardson(sp, b, 1, 2, order=n, q=n)
        recur = initial_richardson(sp, b, 1, 2, order=n, q=n)
        for _ in range(4):
            direct = richardson_step(direct, a, b)
            recur = richardson_recursive_step(recur, a, b)
            assert np.linalg.norm(recur.theta - direct.theta) <= 1e-9 * max(
                np.linalg.norm(direct.theta), 1e-300
            )

    def test_matches_direct_form_on_harmonic_matrix(self):
        # the 6x6 ill-conditioned fixture, second order
        from seriesinv import HarmonicRegressorSpec, gen_harmonic_matrix

        a, b, theta_star = gen_harmonic_matrix(HarmonicRegressorSpec.default())
        sp = split_scalar(a)
        direct = initial_richardson(sp, b, order=2, q=2)
        recur = initial_richardson(sp, b, order=2, q=2)
        for _ in range(3):
            direct = richardson_step(direct, a, b)
            recur = richardson_recursive_step(recur, a, b)
            assert np.linalg.norm(recur.theta - direct.theta) <= 1e-9 * np.linalg.norm(
                direct.theta
            )

    def test_carried_weight_matches_definition(self, rng):
        a, sp, theta_star, b = scalar_setup(4, 0.99, rng)
        st = initial_richardson(sp, b, order=2, q=2)
        for _ in range(3):
            st = richardson_recursive_step(st, a, b)
            inner = st.inner
            sum_fg = horner_iterates(inner.residual, inner.estimate, st.q, MulCounter())[-1]
            direct_weight = inner.accel_estimate + inner.accel_residual @ sum_fg
            assert fro_norm(st.omega - direct_weight) <= 1e-9 * fro_norm(st.omega)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fewer_products_from_second_step(self, rng, n):
        a, sp, theta_star, b = scalar_setup(4, 0.95, rng)
        direct = initial_richardson(sp, b, order=n, q=n)
        recur = initial_richardson(sp, b, order=n, q=n)
        for k in range(1, 5):
            d0, r0 = direct.ctr.mmm, recur.ctr.mmm
            direct = richardson_step(direct, a, b)
            recur = richardson_recursive_step(recur, a, b)
            d_cost = direct.ctr.mmm - d0
            r_cost = recur.ctr.mmm - r0
            if k == 1:
                # the first recursive step still builds the carried weight
                assert r_cost == d_cost
            else:
                assert r_cost < d_cost

    def test_identity_matrix_converges_immediately(self):
        a = np.eye(3)
        theta_star = np.array([2.0, 0.0, -1.0])
        st = initial_richardson(split_scalar(a, eps=0.5), a @ theta_star)
        st = richardson_recursive_step(st, a, a @ theta_star)
        assert np.allclose(st.theta, theta_star, atol=1e-14)
        assert fro_norm(st.omega - np.eye(3)) <= 1e-12

    def test_serial_and_threaded_runs_are_bitwise_equal(self, rng):
        # the benchmark's recursive specs, over the first step and two later
        # ones: with an executor each step runs as one task, with the serial
        # step's bits and counter moves
        a, sp, theta_star, b = scalar_setup(5, 0.99, rng)
        specs = [m for m in BENCH_SPECS if m.kind == "richardson-recursive"]
        assert sorted({m.order for m in specs}) == [2, 3]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for m in specs:
                p, w = series_params(m.h)
                serial = initial_richardson(sp, b, p, w, order=m.order, q=m.q)
                threaded = initial_richardson(sp, b, p, w, order=m.order, q=m.q)
                for _ in range(3):
                    serial = richardson_recursive_step(serial, a, b)
                    threaded = richardson_recursive_step(threaded, a, b, executor=pool)
                    for got, want, names in (
                        (threaded, serial, ("theta", "omega", "ns_part")),
                        (
                            threaded.inner,
                            serial.inner,
                            ("estimate", "residual", "accel_estimate", "accel_residual"),
                        ),
                    ):
                        for name in names:
                            same = same_bits(getattr(got, name), getattr(want, name))
                            assert same, (m.name(), name)
                    assert threaded.ctr == serial.ctr, m.name()


class TestAgainstClassicalEstimator:
    def test_accelerated_error_not_worse(self, rng):
        # same order, same steps: the accelerated weight contracts at least
        # as fast as plugging the plain inversion estimate into theta = G b
        from seriesinv import initial_series, ns_step

        a, sp, theta_star, b = scalar_setup(5, 0.99, rng)
        rich = initial_richardson(sp, b, order=2, q=2)
        plain = initial_series(sp, 0, 1, order=2)
        for _ in range(3):
            rich = richardson_step(rich, a, b)
            plain = ns_step(plain, a)
        theta_plain = plain.estimate @ b
        err_rich = np.linalg.norm(rich.theta - theta_star)
        err_plain = np.linalg.norm(theta_plain - theta_star)
        assert err_rich <= err_plain
