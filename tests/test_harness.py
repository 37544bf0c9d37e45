import math

import numpy as np
import pytest

from corpus import (
    BENCH_SPECS,
    parse_exponent_surface,
    parse_mmm_surface,
    power_iteration_oracle,
    random_spd,
)
from seriesinv import (
    HarmonicRegressorSpec,
    MethodSpec,
    RunRecord,
    SpectralRadiusError,
    condition_number,
    emit_exponent_surface,
    emit_mmm_surface,
    gen_harmonic_matrix,
    initial_richardson,
    is_positive_definite,
    parse_run_records,
    records_to_csv,
    run_comparison,
    spectral_radius,
    split_scalar,
    toolkit_check,
)
from seriesinv import harness
from seriesinv.harness import (
    CSV_HEADER,
    DIVERGENCE_FACTOR,
    METHODS,
    _measure_rho,
    series_params,
)
from seriesinv.newton_schulz import (
    CompositeSpec,
    additive_correction_step,
    additive_exponents,
    classical_exponent,
    composite_exponent,
    composite_step,
    double_exponent,
    double_ns_step,
    initial_double,
    initial_series,
    ns_step,
)
from seriesinv.matrix_core import fro_norm
from seriesinv.richardson import (
    cumulative_exponent,
    cumulative_exponent_closed,
    richardson_recursive_step,
    richardson_step,
    step_exponent_general,
)


class FakeTimer:
    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 1
        return self.t


class TestHarmonicFixture:
    def test_single_frequency_matches_direct_summation(self):
        spec = HarmonicRegressorSpec(
            frequencies=(np.pi / 2,), num_samples=4, theta_star=(1.0, 2.0)
        )
        a, b, theta = gen_harmonic_matrix(spec)
        # phi(t) = [cos(pi t / 2), sin(pi t / 2)] summed by hand over t=1..4
        expected = np.zeros((2, 2))
        for t in range(1, 5):
            phi = np.array([np.cos(np.pi * t / 2), np.sin(np.pi * t / 2)])
            expected += np.outer(phi, phi)
        assert np.allclose(a, expected, atol=1e-12)
        assert np.allclose(a, a.T, atol=0)
        assert is_positive_definite(a)
        assert np.allclose(b, a @ theta, atol=0)

    def test_zero_parameters_give_zero_rhs(self):
        spec = HarmonicRegressorSpec(
            frequencies=(0.3, 0.8), num_samples=50, theta_star=(0.0,) * 4
        )
        a, b, theta = gen_harmonic_matrix(spec)
        assert np.array_equal(b, np.zeros(4))
        recs = run_comparison(a, b, theta, [MethodSpec(kind="richardson", order=2)], 2)
        assert all(r.error_norm <= 1e-12 for r in recs)

    def test_default_fixture_conditioning_reported(self, capsys):
        a, b, theta = gen_harmonic_matrix(HarmonicRegressorSpec.default())
        kappa = condition_number(a)
        print(f"default harmonic fixture condition number: {kappa:.4e}")
        assert np.isfinite(kappa)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(
                    frequencies=(0.2, 0.2), num_samples=50, theta_star=(1.0,) * 4
                )
            )

    def test_aliasing_rejected(self):
        # too few samples for six near-identical regressors
        with pytest.raises(ValueError):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(
                    frequencies=(0.1, 0.1 + 1e-9, 0.1 + 2e-9),
                    num_samples=6,
                    theta_star=(1.0,) * 6,
                )
            )
        # fewer samples than the four parameters of two frequencies
        with pytest.raises(ValueError, match="need at least as many samples as parameters"):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(frequencies=(0.3, 0.8), num_samples=3, theta_star=(1.0,) * 4)
            )

    def test_out_of_band_frequency_rejected(self):
        with pytest.raises(ValueError):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(
                    frequencies=(0.0,), num_samples=10, theta_star=(1.0, 1.0)
                )
            )
        with pytest.raises(ValueError, match="need at least one frequency"):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(frequencies=(), num_samples=10, theta_star=())
            )

    def test_theta_length_checked(self):
        with pytest.raises(ValueError):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(
                    frequencies=(0.3,), num_samples=10, theta_star=(1.0,)
                )
            )

    def test_non_integer_sample_count_rejected(self):
        spec = HarmonicRegressorSpec.default()
        with pytest.raises(ValueError, match=r"^num_samples must be an integer, got 80\.0$"):
            gen_harmonic_matrix(
                HarmonicRegressorSpec(spec.frequencies, 80.0, spec.theta_star)
            )

    def test_bias_column(self):
        spec = HarmonicRegressorSpec(
            frequencies=(0.5,), num_samples=30, theta_star=(1.0, 2.0, 3.0), bias=True
        )
        a, b, theta = gen_harmonic_matrix(spec)
        assert a.shape == (3, 3)
        assert a[2, 2] == pytest.approx(30.0)


class TestSeriesParams:
    def test_values(self):
        assert series_params(1) == (0, 1)
        assert series_params(2) == (1, 1)
        p, w = series_params(45)
        assert w * (p + 1) == 45

    def test_computed_once_per_order(self):
        assert series_params(45) is series_params(45)

    def test_a_non_integer_order_raises_after_an_equal_integer(self):
        # 5.0 == np.int64(5) and True == 1: the cache must not answer them
        series_params(np.int64(5))
        series_params(1)
        for h in (5.0, True):
            with pytest.raises(ValueError, match="h must be an integer"):
                series_params(h)
        with pytest.raises(ValueError, match="h must be >= 1"):
            series_params(0)


@pytest.fixture(scope="module")
def fixture():
    return gen_harmonic_matrix(HarmonicRegressorSpec.default())


class TestRunComparison:
    def test_rejects_a_stack(self, fixture):
        a, b, theta = fixture
        with pytest.raises(ValueError, match="expected a square matrix"):
            run_comparison(np.stack([a, a]), b, theta, [MethodSpec(kind="ns", order=2)], 1)

    @pytest.mark.parametrize("label", ["b", "theta_star"])
    def test_vector_length_checked_before_any_matrix_work(self, fixture, monkeypatch, label):
        a, b, theta = fixture
        vectors = {"b": b, "theta_star": theta}
        vectors[label] = vectors[label][:5]
        monkeypatch.setattr(harness, "split_scalar", lambda *args: pytest.fail("split"))
        with pytest.raises(ValueError) as info:
            run_comparison(a, vectors["b"], vectors["theta_star"],
                           [MethodSpec(kind="richardson", order=2)], 1)
        assert str(info.value) == f"{label} has 5 entries, expected 6 to match A"

    @pytest.mark.parametrize("steps", [-1, 2.5, True])
    def test_bad_steps_rejected_before_any_matrix_work(self, fixture, monkeypatch, steps):
        # 2.5 raised range()'s TypeError after the splitting, and True ran one step
        a, b, theta = fixture
        monkeypatch.setattr(harness, "split_scalar", lambda *args: pytest.fail("split"))
        with pytest.raises(ValueError) as info:
            run_comparison(a, b, theta, [MethodSpec(kind="ns", order=2)], steps)
        bad = "must be >= 0" if steps == -1 else f"must be an integer, got {steps!r}"
        assert str(info.value) == f"steps {bad}"

    def test_zero_steps_yields_initialization_rows(self, fixture):
        a, b, theta = fixture
        recs = run_comparison(
            a, b, theta, [MethodSpec(kind="ns", order=2), MethodSpec(kind="double", order=2)], 0
        )
        assert [r.k for r in recs] == [0, 0]

    def test_steps_increase_per_method(self, fixture):
        a, b, theta = fixture
        methods = [
            MethodSpec(kind="ns", order=3),
            MethodSpec(kind="double", order=2),
            MethodSpec(kind="composite", order=2, rates=(2,)),
            MethodSpec(kind="sri", order=2),
            MethodSpec(kind="ns-estimator", order=2),
            MethodSpec(kind="richardson", order=2),
            MethodSpec(kind="richardson-recursive", order=2),
        ]
        recs = run_comparison(a, b, theta, methods, 3)
        by_method = {}
        for r in recs:
            by_method.setdefault(r.method, []).append(r.k)
        assert len(by_method) == len(methods)
        for ks in by_method.values():
            assert ks == sorted(ks) == list(range(4))

    def test_double_beats_classical_measured(self, fixture):
        a, b, theta = fixture
        recs = run_comparison(
            a, b, theta,
            [MethodSpec(kind="double", order=2), MethodSpec(kind="ns", order=2)],
            3,
        )
        dbl = {r.k: r.error_norm for r in recs if r.method.startswith("double")}
        cls = {r.k: r.error_norm for r in recs if r.method.startswith("ns:")}
        for k in range(1, 4):
            assert dbl[k] <= cls[k]

    def test_error_within_predicted_bound(self, fixture):
        # scalar splitting keeps the residual symmetric, so the contraction
        # bound is rigorous while it stays above the float noise floor
        a, b, theta = fixture
        methods = [
            MethodSpec(kind="ns", order=2),
            MethodSpec(kind="double", order=2),
            MethodSpec(kind="richardson", order=2),
        ]
        recs = run_comparison(a, b, theta, methods, 4)
        err0 = {r.method: r.error_norm for r in recs if r.k == 0}
        for r in recs:
            if r.predicted_bound >= 1e-11 * err0[r.method]:
                assert r.error_norm <= r.predicted_bound * (1.0 + 1e-6) + 1e-250

    def test_divergence_flagged_and_run_continues(self, fixture):
        a, b, theta = fixture
        # feed a reference the iterates move AWAY from (the initial estimate
        # plus a tiny offset), so the measured error grows by many decades
        sp = split_scalar(a)
        start = initial_richardson(sp, b, order=2, q=2)
        decoy = start.theta + 1e-9
        recs = run_comparison(a, b, decoy, [MethodSpec(kind="richardson", order=2)], 3)
        assert len(recs) == 4  # the run continues past the flagged step
        assert not recs[0].diverged
        assert recs[-1].diverged

    @pytest.mark.parametrize(
        "spec, steps",
        [
            (MethodSpec("double", 3), 700),
            (MethodSpec("ns", 2), 1100),
            (MethodSpec("richardson", 3, q=3), 700),
            (MethodSpec("sri", 3), 700),
        ],
        ids=lambda v: v.name() if isinstance(v, MethodSpec) else str(v),
    )
    def test_runs_past_the_float_range_of_the_bound(self, fixture, spec, steps):
        # Once e - e0 is past float range, rho ** (e - e0) raised
        # OverflowError and ended the run; the bound is now its limit
        # rho ** inf, 0.0 for rho < 1, and the rows before are unchanged.
        a, b, theta = fixture
        row = METHODS[spec.kind]
        e0 = row.exponent(spec, 0)

        def in_range(k):
            try:
                float(row.exponent(spec, k) - e0)
            except OverflowError:
                return False
            return True

        last = max(k for k in range(steps + 1) if in_range(k))
        assert last < steps
        recs = run_comparison(a, b, theta, [spec], steps, timer=lambda: 0)
        assert [r.k for r in recs] == list(range(steps + 1))
        assert all(r.predicted_bound == 0.0 for r in recs[last + 1:])
        assert parse_run_records(records_to_csv(recs)) == recs
        rho, err0 = _measure_rho(split_scalar(a)), recs[0].error_norm
        assert all(r.predicted_bound == rho ** (r.exponent - e0) * err0 for r in recs[: last + 1])
        short = run_comparison(a, b, theta, [spec], last, timer=lambda: 0)
        assert records_to_csv(recs[: last + 1]) == records_to_csv(short)

    def test_method_name_labels(self):
        assert MethodSpec(kind="ns", order=8, h=2).name() == "ns:n8:h2"
        assert MethodSpec(kind="sri", order=3).name() == "sri:p3:h1"
        assert MethodSpec(kind="richardson", order=3).name() == "richardson:n3:q3:h1"
        assert (
            MethodSpec(kind="composite", order=2, rates=(2, 3)).name()
            == "composite:n2:h1:r2-3"
        )


def _reference_states(method, split, a, b, theta_star, steps):
    """Yield (k, error, mmm), each kind's init and step called by hand."""
    p, w = series_params(method.h)
    n, kind = method.order, method.kind
    if kind == "ns":
        st = initial_series(split, p, w, order=n)
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for _ in range(steps):
            st = ns_step(st, a)
            yield st.step, fro_norm(st.residual), st.ctr.mmm
    elif kind == "double":
        st = initial_double(split, p, w, order=n)
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for _ in range(steps):
            st = double_ns_step(st, a)
            yield st.step, fro_norm(st.residual), st.ctr.mmm
    elif kind == "composite":
        spec = CompositeSpec(rates=method.rates)
        st = initial_series(split, p, w, order=n)
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for _ in range(steps):
            st = composite_step(st, a, split, spec, order_n=n)
            yield st.step, fro_norm(st.residual), st.ctr.mmm
    elif kind == "sri":
        st = initial_series(split, p, w, order=n)
        z = g = st.estimate
        # k = 0 measures the initial state's residual (for h = 1 the
        # splitting's B); later steps recompute I - G A off the counter.
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for k in range(1, steps + 1):
            z, g = additive_correction_step(z, g, a, n, st.ctr)
            yield k, fro_norm(np.eye(a.shape[0]) - g @ a), st.ctr.mmm
    elif kind == "ns-estimator":
        st = initial_series(split, p, w, order=n)
        theta = st.estimate @ b
        yield 0, float(np.linalg.norm(theta - theta_star)), st.ctr.mmm
        for _ in range(steps):
            st = ns_step(st, a)
            theta = st.estimate @ b
            yield st.step, float(np.linalg.norm(theta - theta_star)), st.ctr.mmm
    else:
        stepper = richardson_step if kind == "richardson" else richardson_recursive_step
        st = initial_richardson(split, b, p, w, order=n, q=method.q)
        yield 0, float(np.linalg.norm(st.theta - theta_star)), st.ctr.mmm
        for _ in range(steps):
            st = stepper(st, a, b)
            yield st.step, float(np.linalg.norm(st.theta - theta_star)), st.ctr.mmm


def _reference_exponent(method, k):
    n, h = method.order, method.h
    if method.kind in ("ns", "ns-estimator"):
        return classical_exponent(k, n, h)
    if method.kind == "double":
        return double_exponent(k, n, h)
    if method.kind == "composite":
        return composite_exponent(k, n, h, method.rates)
    if method.kind == "sri":
        return additive_exponents(k, n, h)[1]
    return cumulative_exponent(k, n, h, n if method.q is None else method.q)


class TestMethodTable:
    SPECS = [
        MethodSpec(kind="ns", order=3),
        MethodSpec(kind="double", order=2),
        MethodSpec(kind="composite", order=2, rates=(2, 3)),
        MethodSpec(kind="sri", order=2),
        MethodSpec(kind="richardson", order=3, q=2),
        MethodSpec(kind="richardson-recursive", order=2),
        MethodSpec(kind="ns-estimator", order=3),
    ]

    def test_specs_cover_every_kind(self):
        assert [m.kind for m in self.SPECS] == list(METHODS)

    @pytest.mark.parametrize("h", [1, 4])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda m: m.kind)
    def test_run_matches_hand_driven_steps(self, fixture, spec, h):
        a, b, theta = fixture
        method = MethodSpec(
            kind=spec.kind, order=spec.order, h=h, q=spec.q, rates=spec.rates
        )
        steps = 5
        recs = run_comparison(a, b, theta, [method], steps, timer=FakeTimer())
        split = split_scalar(a)
        rho = _measure_rho(split)
        ref = list(_reference_states(method, split, a, b, theta, steps))
        assert [r.k for r in recs] == [k for k, _, _ in ref] == list(range(steps + 1))
        err0 = ref[0][1]
        e0 = _reference_exponent(method, 0)
        for rec, (k, err, mmm) in zip(recs, ref):
            exponent = _reference_exponent(method, k)
            assert rec.method == method.name()
            assert rec.error_norm == err
            assert rec.predicted_bound == rho ** (exponent - e0) * err0
            assert rec.exponent == exponent
            assert rec.mmm_cum == mmm
            assert rec.diverged == (err > DIVERGENCE_FACTOR * max(err0, 1e-300))

    @pytest.mark.parametrize("system", ["harmonic", "spd8"])
    def test_the_table_and_the_public_functions_agree_bitwise(self, fixture, system):
        # run_comparison runs each row's programs itself, while the public
        # start and step functions are driven by hand (as the benchmark's
        # solve op drives them); both must give the same error norm and
        # count at every step, bit for bit, for every spec the benchmark runs
        if system == "harmonic":
            a, b, theta = fixture
        else:
            rng = np.random.default_rng(8)
            a = random_spd(8, rng)
            theta = rng.standard_normal(8)
            b = a @ theta
        specs = [*BENCH_SPECS, MethodSpec("richardson", 2, 4, q=1), MethodSpec("sri", 2, 1)]
        steps = 4
        recs = run_comparison(a, b, theta, specs, steps, timer=FakeTimer())
        split = split_scalar(a)
        for m in specs:
            got = [(r.error_norm.hex(), r.mmm_cum) for r in recs if r.method == m.name()]
            ref = _reference_states(m, split, split.matrix, b, theta, steps)
            assert got == [(err.hex(), mmm) for _, err, mmm in ref], m.name()

    def test_sri_first_row_is_the_splitting_residual(self):
        # On this matrix the splitting's B and a recomputed I - S^-1 A
        # differ in the last bits of their norms; k = 0 reports B.
        a = random_spd(6, np.random.default_rng(5))
        split = split_scalar(a)
        recomputed = fro_norm(np.eye(6) - split.precond @ split.matrix)
        assert recomputed != fro_norm(split.residual)
        b = theta = np.ones(6)
        rec = run_comparison(a, b, theta, [MethodSpec(kind="sri", order=2)], 0)[0]
        assert rec.error_norm == fro_norm(split.residual)

    def test_steps_run_on_the_symmetrized_matrix(self, fixture):
        # A within the symmetry tolerance but not bitwise symmetric: every
        # step must read the splitting's symmetrized A, so the records equal
        # those of a run on that A.
        a, b, theta = fixture
        skew = np.triu(np.full(a.shape, 1e-13 * fro_norm(a)), 1)
        asym = a + skew
        sym = (asym + asym.T) / 2.0
        assert not np.array_equal(asym, asym.T)
        assert not np.array_equal(sym, a)
        methods = [
            MethodSpec(kind=kind, order=2, h=4, rates=(2, 3) if row.takes_rates else ())
            for kind, row in METHODS.items()
        ]
        recs = run_comparison(asym, b, theta, methods, 4, timer=FakeTimer())
        assert recs == run_comparison(sym, b, theta, methods, 4, timer=FakeTimer())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="bogus"),
            dict(kind="composite"),
            dict(kind="composite", rates=(2, 0)),
            dict(kind="ns", rates=(2, 3)),
            dict(kind="richardson", rates=(2,)),
            dict(kind="ns", q=2),
            dict(kind="ns-estimator", q=3),
            dict(kind="sri", q=2),
            dict(kind="richardson-recursive", order=3, q=2),
            dict(kind="sri", order=1),
            dict(kind="ns", order=0),
            dict(kind="richardson", order=0),
            dict(kind="double", h=0),
            dict(kind="ns-estimator", h=-1),
            dict(kind="richardson", q=0),
            dict(kind="richardson", order=3, q=-1),
            dict(kind="ns", order=2.5),
            dict(kind="ns", order=2.0),
            dict(kind="double", h=2.5),
            dict(kind="sri", order="3"),
            dict(kind="richardson", q=2.5),
            dict(kind="richardson-recursive", order=3, q=3.0),
            dict(kind="ns", order=True),
            dict(kind="double", h=True),
            dict(kind="richardson", order=3, q=True),
            dict(kind="composite", rates=(True,)),
        ],
    )
    def test_invalid_spec_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            MethodSpec(**kwargs)

    def test_valid_q_accepted(self):
        assert MethodSpec(kind="richardson", order=3, q=2).name() == "richardson:n3:q2:h1"
        recursive = MethodSpec(kind="richardson-recursive", order=3, q=3)
        assert recursive.name() == "richardson-recursive:n3:q3:h1"

    def test_unknown_kind_error_lists_the_kinds(self):
        with pytest.raises(ValueError, match="ns, double, composite, sri"):
            MethodSpec(kind="newton")

    def test_a_spec_holds_plain_ints_and_its_q(self):
        assert MethodSpec("richardson", 3) == MethodSpec("richardson", 3, q=3)
        assert MethodSpec("richardson-recursive", 2).q == 2
        assert MethodSpec("double", 3).q is None
        # a list of rates built a spec that failed only when first hashed
        listed = MethodSpec("composite", 2, rates=[2, 3])
        assert listed == MethodSpec("composite", 2, rates=(2, 3))
        assert hash(listed) == hash(MethodSpec("composite", 2, rates=(2, 3)))
        spec = MethodSpec("richardson", np.int64(3), np.int32(16), np.int64(2))
        assert [type(v) for v in (spec.order, spec.h, spec.q)] == [int, int, int]
        spec = MethodSpec("composite", np.int64(3), rates=[np.int64(5), np.uint8(7)])
        assert spec.rates == (5, 7) and {type(r) for r in spec.rates} == {int}

    @pytest.mark.parametrize("steps", [45, 70])
    @pytest.mark.parametrize("spec", [
        MethodSpec("ns", 3, 16),
        MethodSpec("double", 3, 16),
        MethodSpec("composite", 3, 16, rates=(5, 7)),
        MethodSpec("sri", 3, 16),
        MethodSpec("richardson", 3, 16, q=2),
        MethodSpec("richardson-recursive", 3, 16),
        MethodSpec("ns-estimator", 3, 16),
    ], ids=lambda m: m.kind)
    def test_a_numpy_integer_spec_writes_the_plain_int_csv(self, fixture, spec, steps):
        # int64 exponents wrapped past 2**63: negative exponents, inf bounds
        # and, for a numpy h, OverflowError
        a, b, theta = fixture
        as_numpy = MethodSpec(
            spec.kind, np.int64(spec.order), np.int64(spec.h),
            None if spec.q is None else np.int64(spec.q), tuple(map(np.int64, spec.rates)),
        )
        got = records_to_csv(run_comparison(a, b, theta, [as_numpy], steps, timer=lambda: 0))
        assert got == records_to_csv(run_comparison(a, b, theta, [spec], steps, timer=lambda: 0))
        assert as_numpy == spec


LAWS = [
    (classical_exponent, (50, 3, 1)),
    (double_exponent, (40, 3, 1)),
    (composite_exponent, (40, 3, 1, (5, 7))),
    (additive_exponents, (50, 3, 1)),
    (step_exponent_general, (40, 3, 1, 2)),
    (cumulative_exponent, (40, 3, 1, 2)),
    (cumulative_exponent_closed, (40, 3, 1)),
]


@pytest.mark.parametrize("law, args", LAWS, ids=[law.__name__ for law, _ in LAWS])
class TestExponentLaws:
    def test_exact_for_numpy_integers(self, law, args):
        # with an np.int64 n the laws computed in int64 and wrapped around
        want = law(*args)
        assert max(want if isinstance(want, tuple) else (want,)) > 2**63
        as_numpy = [
            tuple(map(np.int64, v)) if isinstance(v, tuple) else np.int64(v) for v in args
        ]
        assert law(*as_numpy) == want

    def test_a_float_rejected(self, law, args):
        for i, v in enumerate(args):
            bad = (1.5,) if isinstance(v, tuple) else 1.5
            with pytest.raises(ValueError, match=r" must be an integer, got 1\.5$"):
                law(*args[:i], bad, *args[i + 1:])


class TestCsv:
    def test_header_is_pinned(self):
        assert CSV_HEADER == "method,k,error_norm,predicted_bound,exponent,mmm_cum,wall_ns"

    def test_round_trip(self, fixture):
        a, b, theta = fixture
        recs = run_comparison(
            a, b, theta,
            [MethodSpec(kind="ns", order=2), MethodSpec(kind="richardson", order=2)],
            3,
            timer=FakeTimer(),
        )
        text = records_to_csv(recs)
        assert text.splitlines()[0] == CSV_HEADER
        assert parse_run_records(text) == recs

    def test_identical_runs_produce_identical_bytes(self, fixture):
        a, b, theta = fixture
        methods = [MethodSpec(kind="double", order=2), MethodSpec(kind="richardson", order=3)]
        one = records_to_csv(run_comparison(a, b, theta, methods, 3, timer=FakeTimer()))
        two = records_to_csv(run_comparison(a, b, theta, methods, 3, timer=FakeTimer()))
        assert one.encode() == two.encode()

    def test_concurrent_workers_match_serial_run(self, fixture):
        from concurrent.futures import ThreadPoolExecutor

        a, b, theta = fixture
        # the benchmark's specs at orders 2 and 3, every kind among them
        methods = [m for m in BENCH_SPECS if m.order in (2, 3)]
        assert {m.kind for m in methods} == set(harness.METHODS)
        # a constant clock keeps wall_ns out of the comparison; everything
        # else must merge deterministically regardless of scheduling
        serial = records_to_csv(run_comparison(a, b, theta, methods, 3, timer=lambda: 0))
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = records_to_csv(
                run_comparison(a, b, theta, methods, 3, timer=lambda: 0, executor=pool)
            )
        assert serial == threaded

    def test_exponent_past_the_int_string_limit_round_trips(self):
        # int <-> str stops at 4300 digits; the exponent column has no limit
        rec = RunRecord("double:n3:h1", 9100, 4.45e-13, 0.0, 10**5000 + 7, 72803, 0)
        text = records_to_csv([rec])
        assert text.splitlines()[1].split(",")[4] == "1" + "0" * 4999 + "7"
        assert parse_run_records(text) == [rec]

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_run_records("not,a,header\n")
        # and a record line of six columns
        with pytest.raises(ValueError, match="bad record line: 'ns:n2:h1,0,1.0,1.0,2,0'"):
            parse_run_records(f"{CSV_HEADER}\nns:n2:h1,0,1.0,1.0,2,0\n")
        # and an exponent int() rejects, however long
        for token in ["1e5", "1.0", "nan", "", "0x10", "--1", "1" * 4301 + ".0"]:
            with pytest.raises(ValueError):
                parse_run_records(f"{CSV_HEADER}\nns:n2:h1,0,1.0,1.0,{token},0,0\n")


class TestSurfaces:
    def test_mmm_surface_values(self):
        rows = parse_mmm_surface(emit_mmm_surface())
        table = {(p, w): (h, mmm) for p, w, h, mmm in rows}
        assert len(rows) == 7 * 6
        assert table[(7, 6)] == (48, 14)
        assert table[(1, 1)] == (2, 3)
        assert (0, 1) not in table  # grid starts at p = 1

    def test_mmm_surface_round_trip(self):
        text = emit_mmm_surface()
        assert text == emit_mmm_surface()
        rows = parse_mmm_surface(text)
        rebuilt = "p,w,h,mmm\n" + "\n".join(
            f"{p},{w},{h},{m}" for p, w, h, m in rows
        ) + "\n"
        assert rebuilt == text

    def test_inversion_surface_values(self):
        rows = parse_exponent_surface(emit_exponent_surface("fig2"))
        by_nk = {(n, k): row for n, k, *row in rows}
        assert by_nk[(2, 1)][0] == 6  # the double-loop exponent at n=2, k=1
        assert by_nk[(2, 1)][1] == pytest.approx(4.0)  # baseline (k+1) n^k

    def test_estimation_surface_values(self):
        rows = parse_exponent_surface(emit_exponent_surface("fig3"))
        by_nk = {(n, k): row for n, k, *row in rows}
        assert by_nk[(2, 1)][0] == 16
        for row in rows:
            assert all(np.isfinite(v) for v in row[2:])

    def test_unit_rho_collapses_powers(self):
        rows = parse_exponent_surface(emit_exponent_surface("fig2", rho=1.0))
        for _, _, _, _, r_new, r_base in rows:
            assert r_new == 1.0 and r_base == 1.0

    def test_round_trip(self):
        text = emit_exponent_surface("fig3", rho=0.97)
        rows = parse_exponent_surface(text)
        rebuilt = "n,k,exponent_new,exponent_baseline,rho_pow_new,rho_pow_baseline\n"
        rebuilt += "\n".join(
            f"{n},{k},{e},{eb:.16e},{rn:.16e},{rb:.16e}"
            for n, k, e, eb, rn, rb in rows
        ) + "\n"
        assert rebuilt == text

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            emit_exponent_surface("fig9")

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    @pytest.mark.parametrize("grid", [{"n_range": range(2, 2)}, {"k_range": range(1, 1)}])
    def test_empty_grid_rejected(self, kind, grid):
        with pytest.raises(ValueError, match="at least one n and one k"):
            emit_exponent_surface(kind, **grid)

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    @pytest.mark.parametrize("h", [0, -1])
    def test_h_below_one_rejected(self, kind, h):
        with pytest.raises(ValueError, match="h must be >= 1"):
            emit_exponent_surface(kind, h=h)

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    @pytest.mark.parametrize("h", [1.5, True])
    def test_non_integer_h_rejected(self, kind, h):
        # 1.5 wrote fractional exponents, and True ran as h = 1
        with pytest.raises(ValueError, match=f"^h must be an integer, got {h!r}$"):
            emit_exponent_surface(kind, h=h)

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    @pytest.mark.parametrize("label", ["n", "k"])
    @pytest.mark.parametrize("value", [2.5, 1.5, True])
    def test_non_integer_n_or_k_rejected(self, kind, label, value):
        # 2.5 wrote a row of fractional exponents, and a k of True ran as 1
        with pytest.raises(ValueError, match=f"^{label} must be an integer, got {value!r}$"):
            emit_exponent_surface(kind, **{f"{label}_range": [value]})

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_n_below_two_rejected(self, kind):
        with pytest.raises(ValueError, match="need n >= 2"):
            emit_exponent_surface(kind, n_range=[2, 1])

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_numpy_integers_accepted_as_ints(self, kind):
        # int64 arithmetic would overflow these exponents (6**31 > 2**63)
        grid = {"n_range": [2, 6], "k_range": [1, 30], "h": 3}
        as_int64 = {
            "n_range": [np.int64(n) for n in grid["n_range"]],
            "k_range": [np.int64(k) for k in grid["k_range"]],
            "h": np.int64(3),
        }
        with np.errstate(all="raise"):
            assert emit_exponent_surface(kind, **as_int64) == emit_exponent_surface(kind, **grid)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), -float("inf"), -2.0, -1e-300])
    def test_non_finite_or_negative_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and >= 0"):
            emit_exponent_surface("fig2", rho=rho)

    def test_zero_rho_accepted(self):
        rows = parse_exponent_surface(emit_exponent_surface("fig3", rho=0.0))
        assert all(r_new == 0.0 and r_base == 0.0 for *_, r_new, r_base in rows)

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_overflowing_power_reads_inf(self, kind):
        # rho > 1 with the default grid's large exponents: the powers that
        # leave float range are written as inf and read back as inf
        rows = parse_exponent_surface(emit_exponent_surface(kind, rho=2.0))
        powers = [p for *_, r_new, r_base in rows for p in (r_new, r_base)]
        assert math.inf in powers
        assert all(p >= 2.0 for p in powers)
        assert all(p == math.inf for e, p in ((row[2], row[4]) for row in rows) if e > 1024)

    @pytest.mark.parametrize(
        "kind, n, ks", [("fig2", 200, range(199, 201)), ("fig3", 3, range(2000, 2001))]
    )
    @pytest.mark.parametrize("rho, power", [(0.99, 0.0), (1.0, 1.0), (2.0, math.inf)])
    def test_baseline_exponent_out_of_float_range_reads_inf(self, kind, n, ks, rho, power):
        # a baseline exponent past float range is written as its limit inf,
        # and both powers as their limit rho**inf
        text = emit_exponent_surface(kind, range(n, n + 1), ks, rho=rho)
        rows = parse_exponent_surface(text)
        exponent = double_exponent if kind == "fig2" else cumulative_exponent_closed
        assert [row[:3] for row in rows] == [(n, k, exponent(k, n, 1)) for k in ks]
        assert all(row[3:] == (math.inf, power, power) for row in rows)

    def test_powers_in_range_unchanged_above_one(self):
        assert emit_exponent_surface("fig2", range(2, 4), range(1, 4), rho=1.001) == (
            "n,k,exponent_new,exponent_baseline,rho_pow_new,rho_pow_baseline\n"
            "2,1,6,4.0000000000000000e+00,1.0060150200150053e+00,1.0040060040009995e+00\n"
            "2,2,20,1.2000000000000000e+01,1.0201911448605405e+00,1.0120662204957915e+00\n"
            "2,3,56,3.2000000000000000e+01,1.0575680911425112e+00,1.0325009961622820e+00\n"
            "3,1,12,6.0000000000000000e+00,1.0120662204957915e+00,1.0060150200150053e+00\n"
            "3,2,63,2.7000000000000000e+01,1.0649933137623424e+00,1.0273539426310239e+00\n"
            "3,3,270,1.0800000000000000e+02,1.3097877352614242e+00,1.1139876285059562e+00\n"
        )


def test_toolkit_check_smoke():
    ok, lines = toolkit_check(instances=3, dim=4, seed=7)
    assert ok
    assert any("table:h15b" in line for line in lines)


def test_unconverged_rho_warns_and_keeps_best_estimate():
    # clustered top eigenvalues: power iteration hits its cap on this matrix
    split = split_scalar(random_spd(64, np.random.default_rng(0)))
    with pytest.raises(SpectralRadiusError) as info:
        spectral_radius(split.residual, tol=1e-10, max_iter=20000)
    best = info.value.best_estimate
    with pytest.warns(RuntimeWarning, match="within 20000 iterations") as caught:
        rho = _measure_rho(split)
    assert rho == best
    # the value and the text of the plain a @ x loop, to the last bit
    _, want, _ = power_iteration_oracle(split.residual, tol=1e-10, max_iter=20000)
    assert np.float64(rho).tobytes() == np.float64(want).tobytes()
    assert str(caught[0].message) == (
        "spectral radius: power iteration did not converge within 20000 "
        f"iterations; predicted bounds use the best estimate {want:.9g}"
    )
