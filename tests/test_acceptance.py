"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from corpus import (
    assert_power_law,
    contractive_scalar_system,
    diagonal_split,
    mat_pow,
    parse_mmm_surface,
    sdd_system,
)
from seriesinv import (
    HarmonicRegressorSpec,
    MethodSpec,
    MulCounter,
    additive_exponents,
    classical_exponent,
    condition_number,
    cumulative_exponent,
    cumulative_exponent_closed,
    double_exponent,
    double_ns_step,
    factored_eval,
    factored_mmm,
    fro_norm,
    gen_harmonic_matrix,
    horner_eval,
    inf_norm,
    initial_double,
    initial_richardson,
    initial_series,
    nested_eval,
    ns_step,
    emit_mmm_surface,
    richardson_recursive_step,
    richardson_step,
    run_comparison,
    split_scalar,
    square_matrix,
    table_plans,
)
from seriesinv.harness import series_params
from seriesinv.series_toolkit import TABLE_LABELS


def _passed(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num} PASS - {detail}")


def test_criterion_1_toolkit_oracle_suite():
    """Every catalogued factorization equals the Horner sum on 50 random
    5x5 instances, relative Frobenius error <= 1e-9, within 10 seconds."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    catalogue = table_plans()
    assert sorted(catalogue) == [*range(2, 20), 45]
    for order in (10, 11):
        assert len(catalogue[order]) == 2
    assert "h15b" in TABLE_LABELS[15]

    plans = [p for order in sorted(catalogue) for p in catalogue[order]]
    worst = 0.0
    for _ in range(50):
        m = rng.standard_normal((5, 5))
        a = square_matrix(m @ m.T / 5 + 0.5 * np.eye(5))
        sp = split_scalar(a)
        x, y = sp.precond, sp.residual
        refs = {}
        for plan in plans:
            if plan.order_h not in refs:
                refs[plan.order_h] = horner_eval(y, x, plan.order_h, MulCounter())
            out = nested_eval(y, x, a, plan, MulCounter())
            ref = refs[plan.order_h]
            rel = fro_norm(out - ref) / fro_norm(ref)
            worst = max(worst, rel)
            assert rel <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(1, f"{len(plans)} table plans x 50 instances, worst rel err "
               f"{worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_order45_nested_plan():
    """The order-45 nested plan costs exactly 10 products, has efficiency
    index 1.4633 +- 5e-5, and matches Horner to 1e-8 relative."""
    plan = table_plans()[45][0]
    assert plan.order_h == 45
    assert plan.efficiency_index == pytest.approx(1.4633, abs=5e-5)

    rng = np.random.default_rng(102)
    m = rng.standard_normal((5, 5))
    a = square_matrix(m @ m.T / 5 + 0.5 * np.eye(5))
    sp = split_scalar(a)
    ctr = MulCounter()
    out = nested_eval(sp.residual, sp.precond, a, plan, ctr)
    assert ctr.mmm == 10
    ref = horner_eval(sp.residual, sp.precond, 45, MulCounter())
    rel = fro_norm(out - ref) / fro_norm(ref)
    assert rel <= 1e-8
    _passed(2, f"mmm=10, EI={plan.efficiency_index:.5f}, rel err {rel:.2e}")


def test_criterion_3_multiplication_count_law():
    """factored_eval consumes exactly p+w+1 products (p+1 when w == 1,
    w when p == 0) over the whole p <= 7, w <= 6 grid, and the emitted
    surface carries the formula values as exact integers."""
    rng = np.random.default_rng(103)
    m = rng.standard_normal((4, 4))
    a = square_matrix(m @ m.T / 4 + 0.5 * np.eye(4))
    sp = split_scalar(a)
    for p in range(0, 8):
        for w in range(1, 7):
            ctr = MulCounter()
            factored_eval(sp.residual, sp.precond, a, p, w, ctr)
            expected = p + w + 1
            if w == 1:
                expected = p + 1
            elif p == 0:
                expected = w
            assert ctr.mmm == expected == factored_mmm(p, w)
    surface = {(p, w): (h, mmm) for p, w, h, mmm in parse_mmm_surface(emit_mmm_surface())}
    for p in range(1, 8):
        for w in range(1, 7):
            assert surface[(p, w)] == (w * (p + 1), p + w + 1)
    _passed(3, "counts exact on the 8x6 grid; surface integers match")


def test_criterion_4_classical_exponent_model():
    """Classical residual law F_k = B^(h n^k) to 1e-8 relative on 4x4
    strictly diagonally dominant systems, n in {2,3,4}, h in {1,2,3},
    k <= 3, with the underflow fallback."""
    rng = np.random.default_rng(104)
    checked = 0
    for n in (2, 3, 4):
        for h in (1, 2, 3):
            a = sdd_system(4, 0.998, rng, jitter=0.002)
            sp = diagonal_split(a)
            p, w = series_params(h)
            st = initial_series(sp, p, w, order=n)
            assert_power_law(st.residual, sp.residual, h, rel=1e-8)
            for k in range(1, 4):
                st = ns_step(st, a)
                assert_power_law(
                    st.residual, sp.residual, classical_exponent(k, n, h), rel=1e-8
                )
                checked += 1
    _passed(4, f"{checked} grid points against the matrix-power oracle")


def test_criterion_5_double_exponent_model_and_dominance():
    """Two-loop residual law F_k = B^(h (k n^(k+1) + n^k)) on the same
    corpora, plus strict dominance of the exponent over the classical
    law and over the additive scheme's recursion on k <= 10, n <= 6."""
    rng = np.random.default_rng(105)
    checked = 0
    for n in (2, 3, 4):
        for h in (1, 2, 3):
            a = sdd_system(4, 0.998, rng, jitter=0.002)
            sp = diagonal_split(a)
            p, w = series_params(h)
            st = initial_double(sp, p, w, order=n)
            for k in range(1, 4):
                st = double_ns_step(st, a)
                assert_power_law(
                    st.residual, sp.residual, double_exponent(k, n, h), rel=1e-8
                )
                checked += 1
    for n in range(2, 7):
        for h in range(1, 5):
            for k in range(1, 11):
                dbl = double_exponent(k, n, h)
                assert dbl > classical_exponent(k, n, h)
                assert dbl > additive_exponents(k, n, h)[1]
    _passed(5, f"{checked} measured grid points; dominance on n<=6, k<=10, h<=4")


def test_criterion_6_richardson_transient_model():
    """Mismatch law theta_k - theta* = B^gamma_k (theta_0 - theta*) to
    1e-8 relative for q == n on SDD and SPD corpora (dims 4..6), and exact
    integer agreement of the closed form with the telescoped sum for
    k <= 12, n <= 6, h <= 4."""
    rng = np.random.default_rng(106)
    checked = 0
    for n in (2, 3):
        for h in (1, 2):
            p, w = series_params(h)
            # SDD corpus, diagonal splitting (nonsymmetric residual)
            a = sdd_system(4 + n, 0.999, rng, jitter=0.0005)
            systems = [(a, diagonal_split(a))]
            # SPD corpus, scalar splitting (symmetric residual)
            a2, eps = contractive_scalar_system(4, 0.999, rng)
            systems.append((a2, split_scalar(a2, eps)))
            for a_mat, sp in systems:
                theta_star = rng.standard_normal(a_mat.shape[0])
                b = a_mat @ theta_star
                st = initial_richardson(sp, b, p, w, order=n, q=n)
                t0 = st.theta - theta_star
                for k in range(1, 4):
                    st = richardson_step(st, a_mat, b)
                    target = mat_pow(sp.residual, cumulative_exponent(k, n, h)) @ t0
                    err = st.theta - theta_star
                    if np.linalg.norm(target) < 1e-250:
                        assert np.linalg.norm(err) <= 1e-200
                    else:
                        assert np.linalg.norm(err - target) <= 1e-8 * np.linalg.norm(target)
                    checked += 1
    for n in range(2, 7):
        for h in range(1, 5):
            for k in range(1, 13):
                assert cumulative_exponent_closed(k, n, h) == cumulative_exponent(k, n, h)
    _passed(6, f"{checked} measured transients; closed form exact to k=12")


def test_criterion_7_recursive_direct_equivalence():
    """The recursive Richardson step reproduces the direct step to 1e-9
    relative on theta at every step and uses strictly fewer products per
    step from step 2 on, for n in {2,3,4}."""
    rng = np.random.default_rng(107)
    for n in (2, 3, 4):
        a, eps = contractive_scalar_system(5, 0.995, rng)
        sp = split_scalar(a, eps)
        theta_star = rng.standard_normal(5)
        b = a @ theta_star
        direct = initial_richardson(sp, b, 1, 2, order=n, q=n)
        recur = initial_richardson(sp, b, 1, 2, order=n, q=n)
        for k in range(1, 5):
            d0, r0 = direct.ctr.mmm, recur.ctr.mmm
            direct = richardson_step(direct, a, b)
            recur = richardson_recursive_step(recur, a, b)
            assert np.linalg.norm(recur.theta - direct.theta) <= 1e-9 * np.linalg.norm(
                direct.theta
            )
            if k >= 2:
                assert recur.ctr.mmm - r0 < direct.ctr.mmm - d0
    _passed(7, "theta agreement <= 1e-9 and strict per-step savings for k >= 2")


def test_criterion_8_harmonic_comparison():
    """On the default harmonic fixture, accelerated estimation (order 3)
    and the classical order-8 estimator both reach 1e-10 within five
    steps, and the accelerated run's final error is not worse.  The
    final-accuracy ratio is reported, not asserted."""
    a, b, theta_star = gen_harmonic_matrix(HarmonicRegressorSpec.default())
    kappa = condition_number(a)
    # h = 16 clears the fixture's contraction budget within five steps for
    # both methods (chosen from the measured splitting radius ~0.99985)
    h = 16
    methods = [
        MethodSpec(kind="richardson", order=3, q=3, h=h),
        MethodSpec(kind="ns-estimator", order=8, h=h),
    ]
    recs = run_comparison(a, b, theta_star, methods, steps=5, eps=0.01 * inf_norm(a))
    rich = [r for r in recs if r.method.startswith("richardson")]
    classical = [r for r in recs if r.method.startswith("ns-estimator")]
    rich_first = min(r.k for r in rich if r.error_norm <= 1e-10)
    cls_first = min(r.k for r in classical if r.error_norm <= 1e-10)
    assert rich_first <= 5
    assert cls_first <= 5
    rich_final = rich[-1].error_norm
    cls_final = classical[-1].error_norm
    assert rich_final <= cls_final
    ratio = cls_final / max(rich_final, 1e-300)
    _passed(8, f"cond {kappa:.2e}; converged at steps {rich_first}/{cls_first}; "
               f"final errors {rich_final:.2e} vs {cls_final:.2e} "
               f"(accuracy ratio {ratio:.2f}, reported not asserted)")


def test_criterion_9_wall_clock_and_bitwise_concurrency(request, rng):
    """Serial and concurrent execution of the two-loop and Richardson
    steps agree bitwise; the suite stays inside the 60 s budget."""
    a = sdd_system(5, 0.95, rng, jitter=0.002)
    sp = diagonal_split(a)
    theta_star = rng.standard_normal(5)
    b = a @ theta_star
    with ThreadPoolExecutor(max_workers=2) as pool:
        serial_d = initial_double(sp, 1, 2, order=3)
        threaded_d = initial_double(sp, 1, 2, order=3)
        serial_r = initial_richardson(sp, b, 0, 1, order=2, q=2)
        threaded_r = initial_richardson(sp, b, 0, 1, order=2, q=2)
        for _ in range(4):
            serial_d = double_ns_step(serial_d, a)
            threaded_d = double_ns_step(threaded_d, a, executor=pool)
            serial_r = richardson_recursive_step(serial_r, a, b)
            threaded_r = richardson_recursive_step(threaded_r, a, b, executor=pool)
    assert np.array_equal(serial_d.estimate, threaded_d.estimate)
    assert np.array_equal(serial_d.residual, threaded_d.residual)
    assert np.array_equal(serial_d.accel_estimate, threaded_d.accel_estimate)
    assert np.array_equal(serial_d.accel_residual, threaded_d.accel_residual)
    assert np.array_equal(serial_r.theta, threaded_r.theta)
    assert np.array_equal(serial_r.omega, threaded_r.omega)
    assert serial_d.ctr.mmm == threaded_d.ctr.mmm
    assert serial_r.ctr.mmm == threaded_r.ctr.mmm

    elapsed = time.monotonic() - request.config._suite_started
    assert elapsed < 60.0
    _passed(9, f"bitwise-identical concurrent steps; suite at {elapsed:.1f} s")
