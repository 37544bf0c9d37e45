"""Buffer rule: a kernel overwrites only arrays it allocated itself.

The step functions and evaluators form ``I - X A`` and Horner's ``+ X`` in
place, in the buffers their own products return.  Every test here hands a
kernel writable inputs, so a stray in-place write would go through rather
than raise, and checks afterwards that every input array kept its bytes.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from corpus import power_sum, random_spd
from seriesinv import (
    CompositeSpec,
    Horner,
    MulCounter,
    Split,
    TableForm,
    additive_correction_step,
    composite_step,
    double_ns_step,
    factored_eval,
    geometric_apply,
    initial_double,
    initial_richardson,
    initial_series,
    nested_eval,
    ns_step,
    plan_order,
    residual_of,
    richardson_recursive_step,
    richardson_step,
    split_scalar,
    table_plans,
)
from seriesinv.matrix_core import (
    identity_constant,
    subtract_from_identity,
)
from seriesinv.series_toolkit import Lin

DIM = 5


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)


def call_untouched(fn, *args, **kwargs):
    """Run ``fn`` and assert that no array reachable from its arguments
    changed a single bit."""
    arrays = [arr for arg in args for arr in _arrays(arg)]
    assert arrays, "nothing to check"
    before = [arr.tobytes() for arr in arrays]
    out = fn(*args, **kwargs)
    assert [arr.tobytes() for arr in arrays] == before
    return out


def _writable(obj):
    """A copy of a state or splitting whose arrays are all writable."""
    changes, derived = {}, {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = np.array(value)
        elif is_dataclass(value) and not isinstance(value, MulCounter):
            value = _writable(value)
        else:
            continue
        (changes if f.init else derived)[f.name] = value
    out = replace(obj, **changes)
    # Fields derived at construction (a splitting's S^-1 and B) come back
    # read-only from replace; swap in writable copies of them too.
    for name, value in derived.items():
        object.__setattr__(out, name, value)
    return out


@pytest.fixture
def problem(rng):
    a = random_spd(DIM, rng)
    split = _writable(split_scalar(a))
    b = rng.standard_normal(DIM)
    return np.array(a), split, b


@pytest.fixture
def executor():
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield pool


@pytest.mark.parametrize("p,w", [(0, 1), (1, 1), (2, 3)])
def test_initializers(problem, p, w):
    _, split, b = problem
    call_untouched(initial_series, split, p, w, 3)
    call_untouched(initial_double, split, p, w, 3)
    call_untouched(initial_richardson, split, b, p, w, 3, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 11, 12])
def test_ns_step_with_and_without_plan(problem, n):
    a, split, _ = problem
    st = _writable(initial_series(split, 1, 2, order=n))
    call_untouched(ns_step, st, a)
    if n >= 2:
        call_untouched(ns_step, st, a, plan_order(n))


@pytest.mark.parametrize("rates", [(1,), (1, 5), (17, 130)])
@pytest.mark.parametrize("order_n", [1, 2])
def test_composite_step(problem, rates, order_n):
    a, split, _ = problem
    st = _writable(initial_series(split, 1, 2, order=2))
    call_untouched(composite_step, st, a, split, CompositeSpec(rates), order_n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_double_ns_step_serial_and_executor(problem, executor, n):
    a, split, _ = problem
    st = _writable(initial_double(split, 1, 1, order=n))
    call_untouched(double_ns_step, st, a)
    call_untouched(double_ns_step, st, a, executor=executor)


def test_additive_correction_step(problem):
    a, split, _ = problem
    st = initial_series(split, 1, 1)
    z, g = np.array(st.estimate), np.array(st.estimate) * 0.9
    call_untouched(additive_correction_step, z, g, a, 3, MulCounter())


@pytest.mark.parametrize("q", [1, 2, 3])
def test_richardson_step(problem, q):
    a, split, b = problem
    st = _writable(initial_richardson(split, b, 0, 1, order=3, q=q))
    call_untouched(richardson_step, st, a, b)


@pytest.mark.parametrize("n", [2, 3])
def test_richardson_recursive_step(problem, executor, n):
    a, split, b = problem
    first = _writable(initial_richardson(split, b, 1, 1, order=n))
    # the first step builds the carried weight, later ones reuse it
    second = _writable(call_untouched(richardson_recursive_step, first, a, b))
    for st in (first, second):
        call_untouched(richardson_recursive_step, st, a, b)
        call_untouched(richardson_recursive_step, st, a, b, executor=executor)


@pytest.mark.parametrize("p,w", [(0, 1), (0, 3), (1, 1), (2, 3), (4, 2)])
def test_factored_eval(problem, p, w):
    a, split, _ = problem
    y, x = split.residual, split.precond
    call_untouched(factored_eval, y, x, a, p, w, MulCounter())
    call_untouched(factored_eval, y, x, a, p, w, MulCounter(), form_y=False)


def test_nested_eval_every_plan(problem):
    a, split, _ = problem
    y, x = split.residual, split.precond
    plans = [plan for plans in table_plans().values() for plan in plans]
    plans += [plan_order(h) for h in range(2, 46)]
    for plan in plans:
        call_untouched(nested_eval, y, x, a, plan, MulCounter())
        call_untouched(nested_eval, y, x, a, plan, MulCounter(), form_y=False)


@pytest.mark.parametrize("order", [1, 2, 17, 64, 65, 131])
def test_geometric_apply(problem, order):
    a, split, _ = problem
    call_untouched(geometric_apply, split.residual, split.precond, order, a, MulCounter())


@pytest.mark.parametrize("root", [Horner(1), Split(p=0, w=1, inner=Horner(1))])
def test_empty_program_returns_a_fresh_copy(problem, root):
    # order 1 is X itself; the executor hands back a copy, never the
    # caller's array, as geometric_apply(order=1) does
    a, split, _ = problem
    y, x = split.residual, split.precond
    # a plan is its root node
    plan = root
    assert plan.program.code == ()
    stacked = tuple(np.stack([m, m]) for m in (y, x, a))
    for yy, xx, aa in ((y, x, a), stacked):
        for form_y in (True, False):
            got = nested_eval(yy, xx, aa, plan, MulCounter(), form_y=form_y)
            assert not np.shares_memory(got, xx)
            assert got.flags.writeable and _same_bits(got, xx)
        got = geometric_apply(yy, xx, 1, aa, MulCounter())
        assert not np.shares_memory(got, xx) and _same_bits(got, xx)


def _same_bits(got, want):
    return (
        got.shape == want.shape
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


class TestResidualHelper:
    def test_matches_eye_minus_product(self, rng):
        for dim in (1, 2, 5, 64):
            x, a = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
            ctr = MulCounter()
            got = residual_of(x, a, ctr)
            assert ctr.mmm == 1
            assert _same_bits(got, np.eye(dim) - x @ a)

    def test_signed_zeros_and_specials(self):
        r = np.array(
            [
                [0.0, -0.0, 1.0, -1.0],
                [-0.0, 0.0, 2.5, np.inf],
                [1.0, -0.0, 1.0, np.nan],
                [-np.inf, 0.0, -0.0, -0.0],
            ]
        )
        want = np.eye(4) - r
        assert _same_bits(subtract_from_identity(r.copy()), want)
        assert _same_bits(subtract_from_identity(np.asfortranarray(r)), want)
        # zero products: the off-diagonal result must be +0.0, as eye - r gives
        x = np.zeros((3, 3))
        a = -np.ones((3, 3))
        assert _same_bits(residual_of(x, a, MulCounter()), np.eye(3) - x @ a)

    def test_overwrites_only_its_argument(self, rng):
        r = rng.standard_normal((4, 4))
        out = subtract_from_identity(r)
        assert out is r

    def test_stacked_operands(self, rng):
        # a stack of k instances: k counted products, each matrix bitwise
        # equal to its own 2-D result, C or Fortran order alike
        for dim in (1, 3, 6):
            x, a = rng.standard_normal((4, dim, dim)), rng.standard_normal((4, dim, dim))
            ctr = MulCounter()
            got = residual_of(x, a, ctr)
            assert ctr.mmm == 4 and got.shape == (4, dim, dim)
            for i in range(4):
                assert _same_bits(got[i], np.eye(dim) - x[i] @ a[i])
            r = x @ a
            want = np.eye(dim) - r
            assert _same_bits(subtract_from_identity(r.copy()), want)
            assert _same_bits(subtract_from_identity(np.asfortranarray(r)), want)

    def test_every_layout(self, rng):
        # one subtraction against the shared identity, so C order, Fortran
        # order, strided views and stacks all give eye - r bit for bit
        special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
        for shape in ((6, 6), (3, 6, 6)):
            r = rng.standard_normal(shape)
            r[..., ::2, 1::2] = rng.choice(special, size=r[..., ::2, 1::2].shape)
            r[..., 0, 0] = -0.0
            want = np.eye(6) - r
            for layout in (np.array(r), np.asfortranarray(r), np.array(r.swapaxes(-1, -2))):
                assert _same_bits(subtract_from_identity(layout.copy()), np.eye(6) - layout)
            # a strided view is written where it lies, its gaps untouched
            big = np.zeros(shape[:-2] + (12, 12))
            view = big[..., ::2, ::2]
            view[...] = r
            assert not (view.flags.c_contiguous or view.flags.f_contiguous)
            assert subtract_from_identity(view) is view
            assert _same_bits(big[..., ::2, ::2], want)
            gaps = np.ones(big.shape, dtype=bool)
            gaps[..., ::2, ::2] = False
            assert not big[gaps].any()


class TestIdentityConstant:
    """The one array kernels share: read, never written, never handed out."""

    def test_read_only(self):
        for dim in (1, 5, 6):
            eye = identity_constant(dim)
            assert not eye.flags.writeable
            assert _same_bits(eye, np.eye(dim))
            assert identity_constant(dim) is eye
            with pytest.raises(ValueError):
                eye[0, 0] = 2.0

    def _fresh(self, got, dim):
        eye = identity_constant(dim)
        assert got is not eye
        assert got.flags.writeable
        assert not np.shares_memory(got, eye)
        assert _same_bits(eye, np.eye(dim))

    def test_kernels_return_fresh_arrays(self, rng):
        a = rng.standard_normal((DIM, DIM))
        got = power_sum(a, 1, MulCounter())
        self._fresh(got, DIM)
        got += 1.0
        # order 1: the sum is the input itself, returned as a copy
        sp = split_scalar(random_spd(DIM, rng))
        y, x = sp.residual, sp.precond
        got = nested_eval(y, x, sp.matrix, Horner(1), MulCounter(), form_y=False)
        assert not np.shares_memory(got, x) and got.flags.writeable
        st = initial_series(sp, 1, 1, order=1)
        new = ns_step(st, sp.matrix)
        assert not np.shares_memory(new.estimate, st.estimate)
        double = initial_double(sp, 1, 1, order=1)
        assert not np.shares_memory(double.accel_estimate, double.estimate)
        stepped = double_ns_step(double, sp.matrix)
        assert not np.shares_memory(stepped.accel_estimate, double.accel_estimate)

    def test_lin_result_is_fresh(self, rng):
        sp = split_scalar(random_spd(DIM, rng))
        x, y = sp.precond, sp.residual
        ident = TableForm("I", 1, (Lin("Z", 1.0, ()),))
        got = nested_eval(y, x, sp.matrix, ident, MulCounter(), form_y=False)
        self._fresh(got, DIM)
        got[...] = 0.0
        plan = plan_order(7)
        assert isinstance(plan.program.code[-1], Lin)
        got = nested_eval(y, x, sp.matrix, plan, MulCounter(), form_y=False)
        self._fresh(got, DIM)
        y2, x2, a2 = (np.stack([m, m]) for m in (y, x, sp.matrix))
        got = nested_eval(y2, x2, a2, ident, MulCounter(), form_y=False)
        assert got.flags.writeable and not np.shares_memory(got, identity_constant(DIM))
