"""Start and step functions as lowered programs.

Every start and step function runs one cached program through the one
executor.  These tests pin the programs' static counts and critical paths
against a real run's counter and against counts written from each step's
definition (``corpus.step_counts``), the splicing of plan programs, the
integer checks at the start functions, and every kind's result on exact
polynomial operands.
"""

import operator
import re
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies

from corpus import (
    BENCH_SPECS,
    POLY_B,
    b_power,
    entry_coefs,
    poly_array,
    poly_equal,
    poly_split,
    random_spd,
    reference_execute,
    reference_lowering,
    same_bits,
    start_counts,
    step_counts,
    step_depth,
)
from seriesinv import (
    CompositeSpec,
    Horner,
    HarmonicRegressorSpec,
    MethodSpec,
    NsState,
    PrimeWrap,
    Split,
    TableForm,
    additive_correction_step,
    composite_step,
    double_ns_step,
    gen_harmonic_matrix,
    initial_double,
    initial_richardson,
    initial_series,
    ns_step,
    plan_order,
    richardson_recursive_step,
    richardson_step,
    run_comparison,
    split_scalar,
    table_plans,
)
from seriesinv import harness, newton_schulz, richardson, series_toolkit
from seriesinv.harness import METHODS, method_programs, series_params
from seriesinv.matrix_core import MulCounter, residual_of
from seriesinv.newton_schulz import double_program, ns_program
from seriesinv.richardson import cumulative_exponent, step_exponent_general
from seriesinv.series_toolkit import Mul, run_program


def harmonic_split():
    a, b, _ = gen_harmonic_matrix(HarmonicRegressorSpec.default())
    return split_scalar(a), b


@dataclass
class SriState:
    """The additive scheme's two estimates, with G's residual measured off
    the counter: the scheme itself never forms it."""

    z: np.ndarray
    g: np.ndarray
    residual: np.ndarray
    ctr: MulCounter


@dataclass
class EstimatorState(NsState):
    """The classical state with its theta = G b, which the caller forms
    and counts (one mvm), as the estimator's programs do."""

    theta: np.ndarray


def started(m, split, b):
    """A spec's start state and step function from the public start and
    step functions, wired by hand as a caller outside ``run_comparison``
    (the benchmark's solve op) wires them."""
    p, w = series_params(m.h)
    a = split.matrix
    if m.kind in ("richardson", "richardson-recursive"):
        stepper = richardson_step if m.kind == "richardson" else richardson_recursive_step
        return initial_richardson(split, b, p, w, m.order, m.q), partial(stepper, a=a, b=b)
    if m.kind == "double":
        return initial_double(split, p, w, m.order), partial(double_ns_step, a=a)
    st = initial_series(split, p, w, m.order)
    if m.kind == "composite":
        spec = CompositeSpec(m.rates)
        return st, partial(composite_step, a=a, split=split, spec=spec, order_n=m.order)
    if m.kind == "sri":

        def step(s):
            z, g = additive_correction_step(s.z, s.g, a, m.order, s.ctr)
            return SriState(z, g, residual_of(g, a, MulCounter()), s.ctr)

        return SriState(st.estimate, st.estimate, st.residual, st.ctr), step
    if m.kind == "ns-estimator":

        def estimated(s):
            s.ctr.mvm += 1
            return EstimatorState(**vars(s), theta=s.estimate @ b)

        return estimated(st), lambda s: estimated(ns_step(s, a))
    return st, partial(ns_step, a=a)


# ---------------------------------------------------------------------------
# Static counts and critical paths.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", BENCH_SPECS, ids=lambda m: m.name())
def test_static_counts_match_the_counter_and_the_oracle(m):
    split, b = harmonic_split()
    start, first, later = method_programs(m)
    st, step = started(m, split, b)
    assert (st.ctr.mmm, st.ctr.mvm) == (start.mmm, start.mvm) == start_counts(m)
    for k in range(1, 5):
        before = (st.ctr.mmm, st.ctr.mvm)
        st = step(st)
        program = first if k == 1 else later
        delta = (st.ctr.mmm - before[0], st.ctr.mvm - before[1])
        assert delta == (program.mmm, program.mvm) == step_counts(m, k), k
        if m.kind != "composite":
            assert program.depth == step_depth(m, k), k
        assert 1 <= program.depth <= program.mmm


@pytest.mark.parametrize("m", BENCH_SPECS, ids=lambda m: m.name())
def test_a_run_executes_its_method_programs(m, monkeypatch):
    # what runs is what is counted: run_comparison runs exactly the
    # programs method_programs returns, the first step's once and the
    # later step's after it (richardson-recursive switches between them)
    ran = []

    def recording(program, inputs, a, ctr):
        ran.append(program)
        return run_program(program, inputs, a, ctr)

    monkeypatch.setattr(harness, "run_program", recording)
    a, b, theta = gen_harmonic_matrix(HarmonicRegressorSpec.default())
    run_comparison(a, b, theta, [m], 4)
    start, first, later = method_programs(m)
    assert len(ran) == 5
    assert all(map(operator.is_, ran, [start, first, later, later, later]))


@pytest.mark.parametrize("m", BENCH_SPECS, ids=lambda m: m.name())
def test_a_run_counts_its_programs_and_its_error_reads(m, monkeypatch):
    # the run's counter ends at the programs' static counts: reading a
    # record's error from the programs' outputs counts nothing
    counters = []

    def recording(program, inputs, a, ctr):
        counters.append(ctr)
        return run_program(program, inputs, a, ctr)

    monkeypatch.setattr(harness, "run_program", recording)
    a, b, theta = gen_harmonic_matrix(HarmonicRegressorSpec.default())
    records = run_comparison(a, b, theta, [m], 4)
    start, first, later = method_programs(m)
    assert all(ctr is counters[0] for ctr in counters)
    ctr = counters[0]
    assert ctr.mvm == start.mvm + first.mvm + 3 * later.mvm
    assert ctr.mmm == start.mmm + first.mmm + 3 * later.mmm == records[-1].mmm_cum


def test_estimator_programs_output_theta_of_their_own_g():
    # theta = G b runs in each of ns-estimator's programs, one mvm, bitwise
    # the G @ b of the G that program outputs
    split, b = harmonic_split()
    slots = {"B": split.residual, "Sinv": split.precond, "b": b}
    for program in method_programs(MethodSpec("ns-estimator", 3, 16)):
        assert "theta" in program.output_names and program.mvm == 1
        inputs = [slots[key] for key in program.inputs]
        slots |= zip(program.output_names, run_program(program, inputs, split.matrix, MulCounter()))
        assert same_bits(slots["theta"], slots["G"] @ b), program.name


@pytest.mark.parametrize("m", [m for m in BENCH_SPECS if m.kind == "ns"], ids=lambda m: m.name())
def test_planned_ns_step_counts(m):
    # the benchmark's ns solve steps through plan_order(n)
    split, _ = harmonic_split()
    plan = plan_order(m.order)
    program = ns_program(m.order, plan)
    assert program is ns_program(m.order, plan)
    st = initial_series(split, *series_params(m.h), order=m.order)
    before = st.ctr.mmm
    st = ns_step(st, split.matrix, plan)
    assert st.ctr.mmm - before == program.mmm == plan.mmm_poly + 1


def test_a_planned_step_program_is_cached_by_its_plan():
    # one step program per plan program: the same plan gives the same
    # object; another plan of that order (h5a against the searched h5b)
    # gives its own, and so does an equal copy of the plan, which builds
    # its own program
    searched, h5a = plan_order(5), table_plans()[5][0]
    assert searched.program is not h5a.program
    program = ns_program(5, searched)
    assert ns_program(5, searched) is program
    assert ns_program(5, h5a) is ns_program(5, h5a) is not program
    assert ns_program(5, h5a).mmm == h5a.mmm_poly + 1 != program.mmm
    copy = replace(searched)
    assert copy == searched and copy.program is not searched.program
    copied = ns_program(5, copy)
    assert copied is not program and copied.code == program.code


def test_a_start_program_is_cached_by_its_series_plan():
    # one start program per initial-series plan program, as for ns_program
    series = series_toolkit._split_plan(1, 2).program
    copy = replace(series_toolkit._split_plan(1, 2)).program
    for build in (
        newton_schulz.series_program,
        newton_schulz._additive_start_program,
        partial(newton_schulz.double_start_program, 3),
        partial(richardson.richardson_start_program, 3),
    ):
        program = build(series)
        assert build(series) is program
        again = build(copy)
        assert again is not program and again.code == program.code


def test_double_n3_is_eight_products_on_a_path_of_six():
    # the abstract's "parallelizable": of a double:n3 step's 8 products, at
    # most 6 depend on each other; the two sums are independent
    program = double_program(3)
    assert (program.mmm, program.mvm, program.depth) == (8, 0, 6)
    for n in range(1, 7):
        m = MethodSpec("double", n)
        assert (double_program(n).mmm, double_program(n).depth) == (
            step_counts(m, 1)[0],
            step_depth(m, 1),
        )


def test_program_outputs_and_inputs_are_named():
    for m in BENCH_SPECS:
        for program in method_programs(m):
            assert len(set(program.inputs)) == len(program.inputs)
            assert all(out < len(program.inputs) + len(program.code) for out in program.outputs)


# ---------------------------------------------------------------------------
# Programs compose: a plan that holds another calls its program, and the
# result equals lowering the whole tree at once.
# ---------------------------------------------------------------------------


# Hand-built trees three levels deep, of every node kind: a Split with
# p == 0 (its outer sum in Y itself), wraps of splits and of table forms,
# and splits whose stages are splits, wraps and table forms.
DEEP_TREES = (
    Split(
        p=8, w=5,
        inner=Split(p=2, w=3, inner=PrimeWrap(Horner(2)), outer=PrimeWrap(Split(1, 1, Horner(2)))),
        outer=PrimeWrap(
            Split(p=1, w=2, inner=Horner(2), outer=TableForm("h2", 2, (Mul("z", "Y", "X", "X"),)))
        ),
    ),
    PrimeWrap(PrimeWrap(Split(p=0, w=3, inner=Horner(1), outer=PrimeWrap(Split(1, 1, Horner(2)))))),
    Split(p=4, w=2, inner=table_plans()[5][1], outer=Split(p=1, w=1, inner=PrimeWrap(Horner(1)))),
    Split(p=0, w=6, inner=Horner(1), outer=Split(p=2, w=2, inner=table_plans()[3][0], outer=Horner(2))),
    PrimeWrap(Split(p=5, w=2, inner=Split(p=1, w=3, inner=Horner(2), outer=PrimeWrap(Horner(2))),
                    outer=Split(p=0, w=2, inner=Horner(1), outer=Horner(2)))),
)


def test_spliced_programs_equal_full_lowering():
    plans = [plan for row in table_plans().values() for plan in row]
    plans += [plan_order(h) for h in range(2, 65)]
    plans += [series_toolkit._geometric_plan(order) for order in range(1, 201)]
    plans += [series_toolkit._split_plan(p, w) for p in range(8) for w in range(1, 7)]
    plans += DEEP_TREES
    for plan in plans:
        code, order, mmm = reference_lowering(plan)
        # instructions compare field by field, drops included
        assert plan.program.code == code, series_toolkit.plan_str(plan)
        assert (plan.order_h, plan.mmm_poly) == (order, mmm), series_toolkit.plan_str(plan)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Horner(0), ValueError, "Horner order must be >= 1"),
        (lambda: Split(p=-1, w=2, inner=Horner(1), outer=Horner(2)), ValueError,
         "Split requires p >= 0 and w >= 1"),
        (lambda: Split(p=1, w=2, inner=Horner(3), outer=Horner(2)), ValueError,
         r"Split inner order 3 != p \+ 1 = 2"),
        (lambda: Split(p=1, w=2, inner=Horner(2), outer=Horner(3)), ValueError,
         "Split outer order 3 != w = 2"),
        (lambda: Split(p=1, w=2, inner=Horner(2)), ValueError,
         "Split with w >= 2 needs an outer node"),
        (lambda: Split(p=1, w=1, inner=2), TypeError, "not a plan node: 2"),
        (lambda: Split(p=1, w=2, inner=Horner(2), outer=plan_order(2).program), TypeError,
         "not a plan node"),
        (lambda: PrimeWrap(Horner), TypeError, "not a plan node"),
        (lambda: TableForm("late", 3, (Mul("t", "Y", "u"), Mul("u", "Y", "X"))), ValueError,
         "table form 'late': Mul.* reads 'u' before it is written"),
    ],
    ids=["horner-0", "split-p", "inner-order", "outer-order", "no-outer", "inner-type",
         "outer-type", "wrap-type", "table-read"],
)
def test_each_node_kind_checks_itself_when_built(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_a_table_form_may_write_a_register_again():
    # each read takes the slot its name was last written to: Z = Y Z + X
    # twice is Horner of order 3
    form = TableForm("h3-again", 3, (Mul("z", "Y", "X", "X"), Mul("z", "Y", "z", "X")))
    assert form.program.code == Horner(3).program.code


def test_search_splices_its_children(monkeypatch):
    # a split candidate takes its children from the search's cache; with
    # the children built, building the candidate never lowers a Horner leaf
    inner, outer = plan_order(4), plan_order(5)
    calls = []
    horner = series_toolkit._Builder.horner

    def counting(self, y, x, order):
        calls.append(order)
        return horner(self, y, x, order)

    monkeypatch.setattr(series_toolkit._Builder, "horner", counting)
    plan = Split(p=3, w=5, inner=inner, outer=outer)
    assert calls == []
    assert plan.mmm_poly == inner.mmm_poly + 1 + outer.mmm_poly


# ---------------------------------------------------------------------------
# Integer arguments: the start functions and the plan nodes reject a value
# that is not an integer, or is a bool, as MethodSpec does.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda sp, b: initial_series(sp, 2, 1.5), "w must be an integer, got 1.5"),
        (lambda sp, b: initial_series(sp, 1.0, 2), "p must be an integer, got 1.0"),
        (lambda sp, b: initial_series(sp, 0, 1, order=True), "order must be an integer, got True"),
        (lambda sp, b: initial_double(sp, 0, True), "w must be an integer, got True"),
        (lambda sp, b: initial_double(sp, 0, 1, order=2.0), "order must be an integer, got 2.0"),
        (lambda sp, b: initial_richardson(sp, b, 0, 1, 2, q=True), "q must be an integer, got True"),
        (lambda sp, b: initial_richardson(sp, b, 0, 1, 2, q=2.0), "q must be an integer, got 2.0"),
        (lambda sp, b: initial_richardson(sp, b, 0.5, 1), "p must be an integer, got 0.5"),
        (lambda sp, b: initial_richardson(sp, b, 0, 1, "2"), "order must be an integer, got '2'"),
        (lambda sp, b: initial_series(sp, 0, 1, order=0), "order must be >= 1"),
    ],
)
def test_start_functions_reject_non_integers(call, message):
    sp = split_scalar([[4.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ValueError, match=message):
        call(sp, np.ones(2))


def test_numpy_integers_are_accepted():
    sp = split_scalar([[4.0, 1.0], [1.0, 3.0]])
    st = initial_series(sp, np.int64(1), np.int32(2), order=np.int64(3))
    assert st.ctr.mmm == 4
    assert initial_richardson(sp, np.ones(2), 0, 1, 2, q=np.int64(2)).q == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Horner(True), "order must be an integer, got True"),
        (lambda: Horner(2.0), "order must be an integer, got 2.0"),
        (lambda: Split(p=1.5, w=2, inner=Horner(2), outer=Horner(2)), "p must be an integer"),
        (lambda: Split(p=1, w=False, inner=Horner(2)), "w must be an integer, got False"),
        (lambda: TableForm("t", 1.0, ()), "order must be an integer, got 1.0"),
    ],
)
def test_plan_nodes_reject_non_integers(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_step_orders_reject_non_integers():
    sp = split_scalar(random_spd(3, np.random.default_rng(1)))
    st = initial_series(sp, 0, 1)
    with pytest.raises(ValueError, match="order_n must be an integer, got 1.5"):
        composite_step(st, sp.matrix, sp, CompositeSpec((2,)), 1.5)
    with pytest.raises(ValueError, match="p must be an integer, got 2.5"):
        additive_correction_step(st.estimate, st.estimate, sp.matrix, 2.5, MulCounter())


# Every cache keyed by an order, with integer arguments it accepts; each
# named argument must be an integer.
SERIES = series_toolkit._split_plan(1, 2).program
ORDER_KEYED_CACHES = [
    (plan_order, (5,), ("h",)),
    (series_toolkit._split_plan, (1, 2), ("p", "w")),
    (series_toolkit._geometric_plan, (70,), ("order",)),
    (newton_schulz.double_start_program, (3, SERIES), ("order",)),
    (ns_program, (3,), ("order",)),
    (newton_schulz.composite_program, (1, (2, 3)), ("order_n",)),
    (double_program, (3,), ("order",)),
    (newton_schulz.additive_program, (2,), ("p",)),
    (richardson.richardson_start_program, (3, SERIES), ("order",)),
    (richardson.richardson_program, (3, 1), ("order", "q")),
    (richardson.recursive_program, (3, True), ("order",)),
]


@pytest.mark.parametrize("build, args, labels", ORDER_KEYED_CACHES,
                         ids=[build.__name__ for build, _, _ in ORDER_KEYED_CACHES])
def test_a_cached_order_does_not_answer_an_equal_non_integer(build, args, labels):
    # 5.0 == np.int64(5) and True == np.int64(1) hash alike: once the
    # numpy integer is cached, its equals must still be rejected
    build(*args)
    build(*[np.int64(v) if i < len(labels) else v for i, v in enumerate(args)])
    for i, label in enumerate(labels):
        equals = [float(args[i])] + ([True] if args[i] == 1 else [])
        for bad in equals:
            message = re.escape(f"{label} must be an integer, got {bad!r}")
            with pytest.raises(ValueError, match=message):
                build(*args[:i], bad, *args[i + 1:])


def test_a_numpy_order_shares_the_plan_of_an_int():
    assert plan_order(np.int64(5)) is plan_order(5)


# Every step-program builder, given the order of one of its Horner sums.
HORNER_ORDER_BUILDS = {
    "ns_program": ns_program,
    "double_program": double_program,
    "composite_program": lambda order: newton_schulz.composite_program(order, (2,)),
    "additive_program": newton_schulz.additive_program,
    "richardson_program-q": lambda order: richardson.richardson_program(3, order),
    "richardson_program-n": lambda order: richardson.richardson_program(order, 3),
    "recursive_program-first": lambda order: richardson.recursive_program(order, True),
    "recursive_program-later": lambda order: richardson.recursive_program(order, False),
    "double_start_program": lambda order: newton_schulz.double_start_program(order, SERIES),
    "richardson_start_program": lambda order: richardson.richardson_start_program(order, SERIES),
}


@pytest.mark.parametrize("build", HORNER_ORDER_BUILDS.values(), ids=HORNER_ORDER_BUILDS)
def test_a_step_program_rejects_a_horner_sum_below_order_1(build):
    # such a sum sums nothing: the program would be named for a sum it
    # does not form, so it is refused where the sum is built
    for order in (0, -1):
        with pytest.raises(ValueError, match="Horner order must be >= 1"):
            build(order)


@pytest.mark.parametrize("numpy_first", [True, False])
def test_an_integer_has_one_cache_entry_whatever_its_type(numpy_first):
    # the cached function gets int(k): one entry, and one result, per k,
    # and a float or bool equal to k is still rejected
    base = 40 if numpy_first else 50  # orders no other test caches
    for offset, build, label in (
        (0, double_program, "order"),
        (1, newton_schulz.additive_program, "p"),
        (2, plan_order, "h"),
        # above order 64, where the plan is built per order, not searched
        (200, series_toolkit._geometric_plan, "order"),
    ):
        k = base + offset
        first, second = (np.int64(k), k) if numpy_first else (k, np.int64(k))
        assert build(first) is build(second)
        for bad in (float(k), True):
            with pytest.raises(ValueError, match=f"{label} must be an integer, got {bad!r}"):
                build(bad)
    h = base + 4
    params = series_params(np.int64(h) if numpy_first else h)
    assert series_params(np.int64(h)) is params is series_params(h)
    assert all(type(v) is int for v in params)
    assert series_params(np.int64(6)) == (1, 3) and all(
        type(v) is int for v in series_params(np.int64(6))
    )


# ---------------------------------------------------------------------------
# Exact oracle: every kind's own start and step functions on 1 x 1
# polynomial operands (B = b, A = 1 - b, S^-1 = 1).
# ---------------------------------------------------------------------------


EXACT_SPECS = (
    MethodSpec("ns", 1, 1),
    MethodSpec("ns", 3, 4),
    MethodSpec("ns", 5, 2),
    MethodSpec("double", 1, 1),
    MethodSpec("double", 3, 4),
    MethodSpec("double", 2, 6),
    MethodSpec("composite", 1, 1, rates=(1,)),
    MethodSpec("composite", 2, 4, rates=(17, 45)),
    MethodSpec("composite", 3, 2, rates=(1, 5, 7)),
    MethodSpec("sri", 2, 1),
    MethodSpec("sri", 3, 4),
    MethodSpec("richardson", 1, 1),
    MethodSpec("richardson", 2, 4, q=2),
    MethodSpec("richardson", 3, 2, q=1),
    MethodSpec("richardson-recursive", 1, 4),
    MethodSpec("richardson-recursive", 2, 4, q=2),
    MethodSpec("richardson-recursive", 3, 3, q=3),
    MethodSpec("ns-estimator", 1, 1),
    MethodSpec("ns-estimator", 2, 4),
)

# Every coefficient of every register stays an integer whose absolute sum
# over the polynomial is below 2**26: then each product's partial sums are
# below 2**52 and each sum of two registers below 2**27, so float64
# arithmetic on them is exact.
L1_BOUND = 2**26


def mismatch_exponent(m, k):
    """theta_k - theta* = -b^E for the Richardson kinds: theta_0 = L_0 b
    leaves (I - L_0 A) theta* = B^(h n) theta*, and each step contracts by
    its step exponent."""
    q = m.order if m.q is None else m.q
    return m.h * m.order + sum(
        step_exponent_general(j, m.order, m.h, q) for j in range(1, k + 1)
    )


def exact_run(m, steps, patched):
    """Spec ``m`` on the exact operands, ``steps`` steps: each state with
    its (mmm, mvm), and every register of every program the run executed.

    The run is the package's own, its compiled code.  Each program it runs
    also runs through the reference interpreter, which keeps every
    register, and whose outputs must equal the compiled ones."""
    registers = []

    def recording(program, inputs, a, ctr):
        outputs = run_program(program, inputs, a, ctr)
        regs = reference_execute(program.code, list(inputs), a, MulCounter())
        registers.extend(regs)
        for got, slot in zip(outputs, program.outputs):
            assert same_bits(got, regs[slot]), program.name
        return outputs

    for module in (newton_schulz, richardson):
        patched.setattr(module, "run_program", recording)
    st, step = started(m, poly_split(), poly_array(1 - POLY_B))
    states = [(st, (st.ctr.mmm, st.ctr.mvm))]
    for _ in range(steps):
        st = step(st)
        states.append((st, (st.ctr.mmm, st.ctr.mvm)))
    return states, registers


def check_exact(m, states, registers):
    """Each state's residual (or mismatch) is exactly the spec's power of
    b, its counts equal the same spec's on a 6 x 6 matrix step by step,
    and every register's coefficients are integers of 1-norm below
    ``L1_BOUND``."""
    split = poly_split()
    theta_star = poly_array(np.polynomial.Polynomial([1.0]))
    row = METHODS[m.kind]
    real_split, b = harmonic_split()
    st, step = started(m, real_split, b)
    for k, (poly_state, counts) in enumerate(states):
        if k:
            st = step(st)
        assert counts == (st.ctr.mmm, st.ctr.mvm), k
        if row.command == "invert":
            if m.kind == "sri":
                got = 1 - poly_state.g[0, 0] * split.matrix[0, 0]
            else:
                got = poly_state.residual[0, 0]
            want = b_power(row.exponent(m, k))
        elif m.kind == "ns-estimator":
            got = poly_state.theta[0] - theta_star[0]
            want = -b_power(row.exponent(m, k))
        else:
            got = poly_state.theta[0] - theta_star[0]
            e = mismatch_exponent(m, k)
            assert e == m.h * m.order + cumulative_exponent(k, m.order, m.h, m.q)
            want = -b_power(e)
        assert poly_equal(got, want), (k, got)

    assert registers
    for reg in registers:
        for entry in np.ravel(reg):
            coef = entry_coefs(entry)
            assert np.array_equal(coef, np.round(coef))
            assert np.abs(coef).sum() < L1_BOUND


@pytest.mark.parametrize("m", EXACT_SPECS, ids=lambda m: m.name())
def test_exact_powers_of_b(m, monkeypatch):
    with monkeypatch.context() as patched:
        states, registers = exact_run(m, 2, patched)
    check_exact(m, states, registers)


# The largest power of b a drawn case may reach: polynomial products cost
# the square of the degree.
EXACT_MAX_EXPONENT = 1500


def final_exponent(m, k):
    if m.kind in ("richardson", "richardson-recursive"):
        return mismatch_exponent(m, k)
    return METHODS[m.kind].exponent(m, k)


@strategies.composite
def exact_cases(draw):
    kind = draw(strategies.sampled_from(sorted(METHODS)))
    row = METHODS[kind]
    order = draw(strategies.integers(row.min_order, 4))
    q = None
    if row.takes_q and not row.q_is_order:
        q = draw(strategies.one_of(strategies.none(), strategies.integers(1, 4)))
    rates = ()
    if row.takes_rates:
        rates = tuple(draw(strategies.lists(strategies.integers(1, 70), min_size=1, max_size=3)))
    m = MethodSpec(kind, order, draw(strategies.integers(1, 8)), q=q, rates=rates)
    k = draw(strategies.integers(0, 3))
    assume(final_exponent(m, k) <= EXACT_MAX_EXPONENT)
    return m, k


@settings(max_examples=100, deadline=None)
@given(case=exact_cases())
def test_every_spec_leaves_an_exact_power_of_b(case):
    # the exact check of the compiled code over kind, order, h, q, rates
    # and k: B = b, A = 1 - b and S^-1 = 1 on 1 x 1 polynomial operands
    m, k = case
    with pytest.MonkeyPatch.context() as patched:
        states, registers = exact_run(m, k, patched)
    check_exact(m, states, registers)
