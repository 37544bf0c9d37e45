"""Start and step functions as lowered programs.

Every start and step function runs one cached program through the one
executor.  These tests pin the programs' static counts and critical paths
against a real run's counter and against counts written from each step's
definition (``corpus.step_counts``), the two-branch structure the executor
path relies on, the splicing of plan programs, the integer checks at the
start functions, and every kind's result on exact polynomial operands.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from corpus import (
    BENCH_SPECS,
    POLY_B,
    b_power,
    poly_array,
    poly_equal,
    poly_split,
    random_spd,
    start_counts,
    step_counts,
    step_depth,
)
from seriesinv import (
    CompositeSpec,
    FactorPlan,
    Horner,
    HarmonicRegressorSpec,
    MethodSpec,
    PrimeWrap,
    Split,
    TableForm,
    additive_correction_step,
    composite_step,
    gen_harmonic_matrix,
    initial_double,
    initial_richardson,
    initial_series,
    ns_step,
    plan_order,
    split_scalar,
    table_plans,
)
from seriesinv import series_toolkit
from seriesinv.harness import METHODS, method_programs, series_params
from seriesinv.matrix_core import MulCounter
from seriesinv.newton_schulz import double_program, ns_program
from seriesinv.richardson import cumulative_exponent, step_exponent_general


def harmonic_split():
    a, b, _ = gen_harmonic_matrix(HarmonicRegressorSpec.default())
    return split_scalar(a), b


def started(m, split, b):
    """A spec's start state and step function, as ``run_comparison`` makes
    them."""
    return METHODS[m.kind].start(m, split, b, *series_params(m.h))


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


def test_double_n3_is_eight_products_on_a_path_of_six():
    # the abstract's "parallelizable": of a double:n3 step's 8 products, at
    # most 6 depend on each other; the branches run side by side
    program = double_program(3)
    assert (program.mmm, program.mvm, program.depth) == (8, 0, 6)
    for n in range(1, 7):
        m = MethodSpec("double", n)
        assert (double_program(n).mmm, double_program(n).depth) == (
            step_counts(m, 1)[0],
            step_depth(m, 1),
        )


@pytest.mark.parametrize("m", BENCH_SPECS, ids=lambda m: m.name())
def test_branches_share_only_what_they_read(m):
    # a program with cuts: neither branch reads a slot the other writes, so
    # the executor path may run them side by side on copies of the registers
    for program in method_programs(m):
        if not program.cuts:
            continue
        first, second, join = program.cuts
        assert 0 <= first <= second <= join <= len(program.code)
        left, right = program.code[first:second], program.code[second:join]
        written = [{ins.dst for ins in part} for part in (left, right)]
        assert not {r for ins in right for r in ins.reads()} & written[0]
        assert not {r for ins in left for r in ins.reads()} & written[1]


def test_program_outputs_and_inputs_are_named():
    for m in BENCH_SPECS:
        for program in method_programs(m):
            assert len(set(program.inputs)) == len(program.inputs)
            assert all(out < len(program.inputs) + len(program.code) for out in program.outputs)
            assert program.cuts == () or len(program.cuts) == 3


# ---------------------------------------------------------------------------
# Programs compose: a plan that holds a built plan's root splices its
# program, and the result equals lowering the whole tree again.
# ---------------------------------------------------------------------------


def rebuilt(node):
    """The same tree from new node objects, which carry no lowered
    program, so building a plan on it lowers every node."""
    if isinstance(node, (Horner, TableForm)):
        return type(node)(**{f.name: getattr(node, f.name) for f in fields(node)})
    if isinstance(node, PrimeWrap):
        return PrimeWrap(rebuilt(node.inner))
    outer = None if node.outer is None else rebuilt(node.outer)
    return Split(node.p, node.w, rebuilt(node.inner), outer)


def test_spliced_programs_equal_full_lowering():
    plans = [plan_order(h) for h in range(2, 65)]
    plans += [plan for row in table_plans().values() for plan in row]
    plans += [series_toolkit._geometric_plan(order) for order in range(65, 201)]
    for plan in plans:
        again = FactorPlan(rebuilt(plan.root))
        # instructions compare field by field, drops included
        assert again.program == plan.program, plan.order_h
        assert (again.order_h, again.mmm_poly) == (plan.order_h, plan.mmm_poly)


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
    plan = FactorPlan(Split(p=3, w=5, inner=inner.root, outer=outer.root))
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


@pytest.mark.parametrize("m", EXACT_SPECS, ids=lambda m: m.name())
def test_exact_powers_of_b(m, monkeypatch):
    registers = []
    execute = series_toolkit._execute

    def keeping(code, regs, a, ctr):
        # the same code without drops, so that every register can be read
        out = execute(tuple(replace(ins, drop=()) for ins in code), regs, a, ctr)
        registers.extend(out)
        return out

    split = poly_split()
    theta_star = poly_array(np.polynomial.Polynomial([1.0]))
    rhs = poly_array(1 - POLY_B)
    row = METHODS[m.kind]
    with monkeypatch.context() as patched:
        patched.setattr(series_toolkit, "_execute", keeping)
        st, step = started(m, split, rhs)
        exact = [(st, (st.ctr.mmm, st.ctr.mvm))]
        for _ in range(2):
            st = step(st)
            exact.append((st, (st.ctr.mmm, st.ctr.mvm)))

    # the same spec on a 6 x 6 matrix counts the same products, step by step
    real_split, b = harmonic_split()
    st, step = started(m, real_split, b)
    for k, (poly_state, counts) in enumerate(exact):
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
            got = (poly_state.estimate @ rhs)[0] - theta_star[0]
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
            # a Lin with no terms writes const * I as plain floats
            coef = np.atleast_1d(getattr(entry, "coef", entry)).astype(float)
            assert np.array_equal(coef, np.round(coef))
            assert np.abs(coef).sum() < L1_BOUND
