"""Compiled plan programs, the one executor, and the stacked verify-tables.

Every plan is lowered once to a straight-line program over integer slots;
``nested_eval`` and ``geometric_apply`` run that program, compiled on its
first run, on one ``(n, n)`` instance or on a ``(k, n, n)`` stack.  The
dict-register interpreter of the first executor is ``corpus.plan_oracle``.  ``toolkit_check`` splits
all its instances in one stacked call and runs each plan once over the
stack; the per-instance loop it replaced is kept here as the oracle for its
report.  It forms Y once for every plan and runs each distinct program of
an order once; ``corpus.per_plan_toolkit_check``, where every plan re-forms
Y and runs, is the oracle for that.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from corpus import (
    hand_plans,
    horner_iterates,
    per_plan_toolkit_check,
    plan_oracle,
    poly_equal,
    poly_split,
    random_spd,
    same_bits,
    signed_zero_matrix,
)
from seriesinv import (
    Horner,
    MulCounter,
    PrimeWrap,
    Split,
    TableForm,
    fro_norm,
    factored_eval,
    geometric_apply,
    nested_eval,
    plan_order,
    plan_str,
    split_scalar,
    square_matrix,
    table_plans,
    toolkit_check,
)
from seriesinv import harness, series_toolkit
from seriesinv.matrix_core import fro_norms
from seriesinv.series_toolkit import TABLE_LABELS, Lin, Mul, Residual, _drops


def all_plans():
    catalogue = table_plans()
    plans = [
        (f"table:{label}", plan)
        for order in sorted(catalogue)
        for label, plan in zip(TABLE_LABELS[order], catalogue[order])
    ]
    return plans + [(f"plan:{h}", plan_order(h)) for h in range(2, 65)]


def execute(plan, y, x, a, ctr):
    """A plan's program run by the one executor, its compiled code, on Y
    and X: its result (a copy of X for the empty program)."""
    return series_toolkit._run_plan(plan, y, x, a, ctr)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 6),
    k=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_executor_matches_dict_oracle(dim, k, seed):
    # bitwise, signed zeros included, and count for count, on one matrix or
    # a (k, n, n) stack
    rng = np.random.default_rng(seed)
    shape = (dim, dim) if k is None else (k, dim, dim)
    y, x, a = (signed_zero_matrix(rng, shape) for _ in range(3))
    for name, plan in all_plans() + hand_plans():
        got_ctr, want_ctr = MulCounter(), MulCounter()
        got = execute(plan, y, x, a, got_ctr)
        want = plan_oracle(plan.program.code, y, x, a, want_ctr)
        assert got.shape == shape, name
        assert same_bits(got, want), name
        assert got_ctr.mmm == want_ctr.mmm == plan.mmm_poly * (1 if k is None else k), name


def stacked_instances(dim, count, seed):
    rng = np.random.default_rng(seed)
    splits = [split_scalar(random_spd(dim, rng)) for _ in range(count)]
    x = np.stack([s.precond for s in splits])
    y = np.stack([s.residual for s in splits])
    a = np.stack([s.matrix for s in splits])
    return x, y, a


@pytest.mark.parametrize("dim", [2, 5, 6, 16])
def test_stacked_run_equals_each_2d_run_bitwise(dim):
    k = 3
    x, y, a = stacked_instances(dim, k, seed=dim)
    for name, plan in all_plans():
        for form_y in (True, False):
            ctr = MulCounter()
            z = nested_eval(None if form_y else y, x, a, plan, ctr, form_y=form_y)
            assert z.shape == (k, dim, dim)
            cost = plan.mmm_cost if form_y else plan.mmm_poly
            assert ctr.mmm == k * cost, name
            for i in range(k):
                one = MulCounter()
                ref = nested_eval(None if form_y else y[i], x[i], a[i], plan, one, form_y=form_y)
                assert one.mmm == cost
                assert same_bits(z[i], ref), (name, form_y, i)


@pytest.mark.parametrize("dim", [1, 2, 5, 6])
def test_2d_products_equal_stacked_products_bitwise(dim):
    # a 2-D run multiplies through ndarray.dot (np.matmul at dim 1, where
    # dot's scalar product would turn a +0.0 into -0.0), a stacked run
    # through np.matmul: every plan gives the same bits either way
    rng = np.random.default_rng(dim)
    y, x, a = (signed_zero_matrix(rng, (3, dim, dim)) for _ in range(3))
    for name, plan in all_plans():
        z = execute(plan, y, x, a, MulCounter())
        for i in range(3):
            one = execute(plan, y[i], x[i], a[i], MulCounter())
            assert same_bits(z[i], one), (name, i)


def test_stacked_geometric_apply_and_references_bitwise():
    x, y, a = stacked_instances(4, 3, seed=1)
    for order in (1, 2, 7, 45, 64):
        z = geometric_apply(y, x, order, a, MulCounter())
        for i in range(3):
            assert same_bits(z[i], geometric_apply(y[i], x[i], order, a[i], MulCounter()))
    refs = horner_iterates(y, x, 45, MulCounter())
    for i in range(3):
        for h, ref in enumerate(horner_iterates(y[i], x[i], 45, MulCounter())):
            assert same_bits(refs[h][i], ref)


# mmm_poly of the plan geometric_apply runs above plan_order's range; the
# doubling loop it replaced took 16, 17, 24, 26 and 61 products
ABOVE_PLAN_ORDER_COUNTS = {65: 12, 100: 11, 130: 14, 200: 13, 1000: 20}


@pytest.mark.parametrize("order", sorted(ABOVE_PLAN_ORDER_COUNTS))
def test_geometric_apply_above_64_runs_one_plan(order):
    # an even order 2t doubles the plan for t, an odd order wraps the one
    # below; the counter moves by the plan's mmm_poly, k times for a stack
    plan = series_toolkit._geometric_plan(order)
    assert plan is series_toolkit._geometric_plan(order)
    assert (plan.order_h, plan.mmm_poly) == (order, ABOVE_PLAN_ORDER_COUNTS[order])
    k = 3
    x, y, a = stacked_instances(4, k, seed=order)
    ctr = MulCounter()
    z = geometric_apply(y, x, order, a, ctr)
    assert ctr.mmm == k * plan.mmm_poly
    for i in range(k):
        one = MulCounter()
        zi = geometric_apply(y[i], x[i], order, a[i], one)
        assert one.mmm == plan.mmm_poly
        assert same_bits(z[i], zi)
        ref = horner_iterates(y[i], x[i], order, MulCounter())[-1]
        assert fro_norm(zi - ref) <= 1e-9 * fro_norm(ref)


def test_geometric_apply_up_to_64_runs_plan_order():
    for h in range(2, 65):
        assert series_toolkit._geometric_plan(h) is plan_order(h)


def test_no_split_or_wrap_candidate_costs_more_than_horner():
    # the search falls back to Horner only when it has no candidate, which
    # loses nothing: every split and wrap lowers to at most Horner's h - 1
    best = series_toolkit._best
    for h in range(2, 65):
        for budget in range(1, 4):
            pairs = series_toolkit.split_candidates(h)
            nodes = [
                Split(p=p, w=w, inner=best(p + 1, budget - 1), outer=best(w, budget - 1))
                for p, w in pairs
            ]
            if not pairs and h >= 3:
                nodes.append(PrimeWrap(best(h - 1, budget)))
            assert nodes or h == 2
            for node in nodes:
                assert node.mmm_poly <= h - 1, (h, budget, node)
        assert best(h, 0) == Horner(h)


def test_a_winning_catalogue_row_is_the_plan_itself():
    catalogue = table_plans()
    won = {
        label: plan_order(h) is row
        for h in range(2, 65)
        for label, row in zip(series_toolkit.TABLE_LABELS.get(h, ()), catalogue.get(h, ()))
        if plan_order(h) == row
    }
    # h3 ties with the wrap of the order-2 plan, which is listed first and wins
    assert won == {"h2": True, "h3": False, "h5b": True, "h7": True, "h17": True, "h19": True}


# plan_order's choice for every order, pinned: the search ranks candidates by
# their lowered mmm_poly and keeps the first of equal ones (splits in
# increasing p, then the wrap of a prime order, then the table rows).
PLAN_ORDER_STRUCTURES = {
    2: "split(p=1,w=1)",
    3: "wrap(split(p=1,w=1))",
    4: "split(p=1,w=2, inner=split(p=1,w=1), outer=split(p=1,w=1))",
    5: "table(h5b)",
    6: "split(p=1,w=3, inner=split(p=1,w=1), outer=wrap(split(p=1,w=1)))",
    7: "table(h7)",
    8: "split(p=1,w=4, inner=split(p=1,w=1), outer=split(p=1,w=2, inner=split(p=1,w=1), outer=split(p=1,w=1)))",
    9: "split(p=2,w=3, inner=wrap(split(p=1,w=1)), outer=wrap(split(p=1,w=1)))",
    10: "split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b))",
    11: "wrap(split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b)))",
    12: "split(p=1,w=6, inner=split(p=1,w=1), outer=split(p=1,w=3, inner=split(p=1,w=1), outer=wrap(split(p=1,w=1))))",
    13: "wrap(split(p=1,w=6, inner=split(p=1,w=1), outer=split(p=1,w=3, inner=split(p=1,w=1), outer=wrap(split(p=1,w=1)))))",
    14: "split(p=1,w=7, inner=split(p=1,w=1), outer=table(h7))",
    15: "split(p=2,w=5, inner=wrap(split(p=1,w=1)), outer=table(h5b))",
    16: "split(p=1,w=8, inner=split(p=1,w=1), outer=split(p=1,w=4, inner=split(p=1,w=1), outer=split(p=1,w=2)))",
    17: "table(h17)",
    18: "split(p=1,w=9, inner=split(p=1,w=1), outer=split(p=2,w=3, inner=wrap(split(p=1,w=1)), outer=wrap(split(p=1,w=1))))",
    19: "table(h19)",
    20: "split(p=1,w=10, inner=split(p=1,w=1), outer=split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b)))",
    21: "split(p=2,w=7, inner=wrap(split(p=1,w=1)), outer=table(h7))",
    22: "split(p=1,w=11, inner=split(p=1,w=1), outer=wrap(split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b))))",
    23: "wrap(split(p=1,w=11, inner=split(p=1,w=1), outer=wrap(split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b)))))",
    24: "split(p=1,w=12, inner=split(p=1,w=1), outer=split(p=1,w=6, inner=split(p=1,w=1), outer=split(p=1,w=3)))",
    25: "split(p=4,w=5, inner=table(h5b), outer=table(h5b))",
    26: "split(p=1,w=13, inner=split(p=1,w=1), outer=wrap(split(p=1,w=6, inner=split(p=1,w=1), outer=split(p=1,w=3))))",
    27: "split(p=2,w=9, inner=wrap(split(p=1,w=1)), outer=split(p=2,w=3, inner=wrap(split(p=1,w=1)), outer=wrap(split(p=1,w=1))))",
    28: "split(p=1,w=14, inner=split(p=1,w=1), outer=split(p=1,w=7, inner=split(p=1,w=1), outer=table(h7)))",
    29: "wrap(split(p=1,w=14, inner=split(p=1,w=1), outer=split(p=1,w=7, inner=split(p=1,w=1), outer=table(h7))))",
    30: "split(p=1,w=15, inner=split(p=1,w=1), outer=split(p=2,w=5, inner=wrap(split(p=1,w=1)), outer=table(h5b)))",
    31: "wrap(split(p=1,w=15, inner=split(p=1,w=1), outer=split(p=2,w=5, inner=wrap(split(p=1,w=1)), outer=table(h5b))))",
    32: "split(p=1,w=16, inner=split(p=1,w=1), outer=split(p=1,w=8, inner=split(p=1,w=1), outer=split(p=1,w=4)))",
    33: "split(p=2,w=11, inner=wrap(split(p=1,w=1)), outer=wrap(split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b))))",
    34: "split(p=1,w=17, inner=split(p=1,w=1), outer=table(h17))",
    35: "split(p=4,w=7, inner=table(h5b), outer=table(h7))",
    36: "split(p=1,w=18, inner=split(p=1,w=1), outer=split(p=1,w=9, inner=split(p=1,w=1), outer=split(p=2,w=3)))",
    37: "wrap(split(p=1,w=18, inner=split(p=1,w=1), outer=split(p=1,w=9, inner=split(p=1,w=1), outer=split(p=2,w=3))))",
    38: "split(p=1,w=19, inner=split(p=1,w=1), outer=table(h19))",
    39: "split(p=2,w=13, inner=wrap(split(p=1,w=1)), outer=wrap(split(p=1,w=6, inner=split(p=1,w=1), outer=split(p=1,w=3))))",
    40: "split(p=1,w=20, inner=split(p=1,w=1), outer=split(p=1,w=10, inner=split(p=1,w=1), outer=table(h10b)))",
    41: "wrap(split(p=1,w=20, inner=split(p=1,w=1), outer=split(p=1,w=10, inner=split(p=1,w=1), outer=table(h10b))))",
    42: "split(p=1,w=21, inner=split(p=1,w=1), outer=split(p=2,w=7, inner=wrap(split(p=1,w=1)), outer=table(h7)))",
    43: "wrap(split(p=1,w=21, inner=split(p=1,w=1), outer=split(p=2,w=7, inner=wrap(split(p=1,w=1)), outer=table(h7))))",
    44: "split(p=1,w=22, inner=split(p=1,w=1), outer=split(p=1,w=11, inner=split(p=1,w=1), outer=wrap(table(h10b))))",
    45: "split(p=2,w=15, inner=wrap(split(p=1,w=1)), outer=split(p=2,w=5, inner=wrap(split(p=1,w=1)), outer=table(h5b)))",
    46: "split(p=1,w=23, inner=split(p=1,w=1), outer=wrap(split(p=1,w=11, inner=split(p=1,w=1), outer=wrap(table(h10b)))))",
    47: "wrap(split(p=1,w=23, inner=split(p=1,w=1), outer=wrap(split(p=1,w=11, inner=split(p=1,w=1), outer=wrap(table(h10b))))))",
    48: "split(p=1,w=24, inner=split(p=1,w=1), outer=split(p=1,w=12, inner=split(p=1,w=1), outer=split(p=2,w=4)))",
    49: "split(p=6,w=7, inner=table(h7), outer=table(h7))",
    50: "split(p=1,w=25, inner=split(p=1,w=1), outer=split(p=4,w=5, inner=table(h5b), outer=table(h5b)))",
    51: "split(p=2,w=17, inner=wrap(split(p=1,w=1)), outer=table(h17))",
    52: "split(p=1,w=26, inner=split(p=1,w=1), outer=split(p=1,w=13, inner=split(p=1,w=1), outer=wrap(split(p=2,w=4))))",
    53: "wrap(split(p=1,w=26, inner=split(p=1,w=1), outer=split(p=1,w=13, inner=split(p=1,w=1), outer=wrap(split(p=2,w=4)))))",
    54: "split(p=1,w=27, inner=split(p=1,w=1), outer=split(p=2,w=9, inner=wrap(split(p=1,w=1)), outer=split(p=2,w=3)))",
    55: "split(p=4,w=11, inner=table(h5b), outer=wrap(split(p=1,w=5, inner=split(p=1,w=1), outer=table(h5b))))",
    56: "split(p=1,w=28, inner=split(p=1,w=1), outer=split(p=3,w=7, inner=split(p=1,w=2), outer=table(h7)))",
    57: "split(p=2,w=19, inner=wrap(split(p=1,w=1)), outer=table(h19))",
    58: "split(p=1,w=29, inner=split(p=1,w=1), outer=wrap(split(p=3,w=7, inner=split(p=1,w=2), outer=table(h7))))",
    59: "wrap(split(p=1,w=29, inner=split(p=1,w=1), outer=wrap(split(p=3,w=7, inner=split(p=1,w=2), outer=table(h7)))))",
    60: "split(p=1,w=30, inner=split(p=1,w=1), outer=split(p=1,w=15, inner=split(p=1,w=1), outer=table(h15b)))",
    61: "wrap(split(p=1,w=30, inner=split(p=1,w=1), outer=split(p=1,w=15, inner=split(p=1,w=1), outer=table(h15b))))",
    62: "split(p=1,w=31, inner=split(p=1,w=1), outer=wrap(split(p=1,w=15, inner=split(p=1,w=1), outer=table(h15b))))",
    63: "split(p=2,w=21, inner=wrap(split(p=1,w=1)), outer=split(p=2,w=7, inner=wrap(split(p=1,w=1)), outer=table(h7)))",
    64: "split(p=1,w=32, inner=split(p=1,w=1), outer=split(p=1,w=16, inner=split(p=1,w=1), outer=split(p=3,w=4)))",
}


def test_every_plan_is_exact_on_polynomial_operands():
    # Y = b, X = 1 and A = 1 - b, exact 1 x 1 polynomials: each plan's
    # compiled program must give S_h(b) = 1 + b + ... + b^(h-1), every
    # coefficient exactly 1.0, for every searched order, every catalogue
    # row and the doubled and wrapped plans above order 64
    split = poly_split()
    y, x, a = split.residual, split.precond, split.matrix
    plans = all_plans() + [
        (f"geometric:{h}", series_toolkit._geometric_plan(h)) for h in (70, 100, 200)
    ]
    assert len(plans) == 90
    inexact = []
    for name, plan in plans:
        z = execute(plan, y, x, a, MulCounter())
        if not (z.shape == (1, 1) and poly_equal(z[0, 0], Polynomial(np.ones(plan.order_h)))):
            inexact.append(f"{name} {plan_str(plan)}")
    assert inexact == []


def test_every_intermediate_register_is_dropped_after_its_last_read():
    # lowered programs run on slots: Y is 0, X is 1, instruction i writes i + 2
    for name, plan in all_plans():
        code, live = plan.program.code, {0, 1}
        for i, (ins, drop) in enumerate(zip(code, _drops(code, plan.program.outputs))):
            assert ins.dst == i + 2, name
            assert set(ins.reads()) <= live, name
            assert ins.dst not in live and ins.dst not in drop, name
            live.add(ins.dst)
            assert set(drop) <= set(ins.reads()), name
            live -= set(drop)
        result = code[-1].dst if code else 1
        assert live - {0, 1} == {result}, name


def test_evaluation_keeps_only_live_arrays():
    # at n = 64 one matrix is 32 KiB; with every register kept to the end
    # the longest programs would hold 16 of them at once
    n = 64
    split = split_scalar(random_spd(n, np.random.default_rng(8)))
    x, y, a = split.precond, split.residual, split.matrix
    for name, plan in all_plans():
        tracemalloc.start()
        try:
            nested_eval(y, x, a, plan, MulCounter(), form_y=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * x.nbytes, (name, peak / x.nbytes)


def test_plan_order_structures_pinned():
    assert {h: plan_str(plan_order(h)) for h in range(2, 65)} == PLAN_ORDER_STRUCTURES


def test_plan_order_is_searched_and_compiled_once():
    for h in range(2, 65):
        assert plan_order(h) is plan_order(h)


def test_evaluation_never_walks_the_tree(monkeypatch):
    x, y, a = stacked_instances(5, 2, seed=3)
    factored_eval(y[0], x[0], a[0], 8, 5, MulCounter())
    horner = Horner(5)
    nested_eval(y[0], x[0], a[0], horner, MulCounter(), form_y=False)
    toolkit_check(instances=2, dim=5, seed=1)  # every plan compiled beforehand
    plans = all_plans()
    # a plan above order 64 is built once per order, then cached
    geometric_apply(y[0], x[0], 200, a[0], MulCounter())

    def forbidden(*args, **kwargs):
        raise AssertionError("a program built during evaluation")

    monkeypatch.setattr(series_toolkit._Builder, "build", forbidden)
    for _, plan in plans:
        nested_eval(None, x, a, plan, MulCounter())
        nested_eval(None, x[0], a[0], plan, MulCounter())
    geometric_apply(y[0], x[0], 200, a[0], MulCounter())
    factored_eval(y[0], x[0], a[0], 8, 5, MulCounter())
    nested_eval(y, x, a, horner, MulCounter(), form_y=False)
    assert toolkit_check(instances=2, dim=5, seed=1)[0]


def per_instance_toolkit_check(instances=50, dim=5, seed=0, max_order=45, rel_tol=1e-9):
    """The loop toolkit_check ran before it stacked its instances: every
    plan on each instance in turn, with its own Horner references."""
    rng = np.random.default_rng(seed)
    plans = [(name, plan) for name, plan in all_plans() if name.startswith("table:")]
    plans += [(f"plan:{h}", plan_order(h)) for h in range(2, max_order + 1)]
    max_ref_order = max(plan.order_h for _, plan in plans)
    worst = {name: 0.0 for name, _ in plans}
    count_ok = True
    for _ in range(instances):
        m = rng.standard_normal((dim, dim))
        a = square_matrix(m @ m.T / dim + 0.5 * np.eye(dim))
        split = split_scalar(a)
        x, y = split.precond, split.residual
        refs = horner_iterates(y, x, max_ref_order, MulCounter())
        ref_norms = [max(fro_norm(ref), 1e-300) for ref in refs]
        for name, plan in plans:
            ctr = MulCounter()
            z = nested_eval(None, x, a, plan, ctr, form_y=True)
            if ctr.mmm != plan.mmm_cost:
                count_ok = False
            rel = fro_norm(z - refs[plan.order_h - 1]) / ref_norms[plan.order_h - 1]
            worst[name] = max(worst[name], rel)
    ok = count_ok and all(v <= rel_tol for v in worst.values())
    lines = []
    for name, plan in plans:
        status = "ok" if worst[name] <= rel_tol else "FAIL"
        lines.append(
            f"{name:<12} order={plan.order_h:<3} mmm={plan.mmm_cost:<3} "
            f"max_rel_err={worst[name]:.3e} {status}"
        )
    if not count_ok:
        lines.append("FAIL: a counter delta disagreed with its plan's mmm cost")
    return ok, lines


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("seed", [*range(20), 29])
def test_stacked_check_matches_per_instance_oracle(dim, seed):
    assert toolkit_check(instances=7, dim=dim, seed=seed) == per_instance_toolkit_check(
        instances=7, dim=dim, seed=seed
    )


@pytest.mark.parametrize("dim", [1, 5, 8])
def test_single_instance_check_matches_per_instance_oracle(dim):
    got = toolkit_check(instances=1, dim=dim, seed=dim)
    assert got == per_instance_toolkit_check(instances=1, dim=dim, seed=dim)
    assert got[0]


def test_default_check_matches_per_instance_oracle():
    got = toolkit_check()
    assert got == per_instance_toolkit_check()
    assert got[0]


@pytest.mark.parametrize("instances", [1, 5, 7, 50])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("seed", range(5))
def test_shared_y_and_runs_match_the_per_plan_check(instances, dim, seed):
    assert toolkit_check(instances, dim, seed) == per_plan_toolkit_check(instances, dim, seed)


def test_default_check_runs_each_distinct_program_once(monkeypatch):
    # 68 catalogue plans lower to 59 distinct (order, program) pairs; one
    # product per instance forms Y and each run counts its mmm_poly
    run_plan = series_toolkit._run_plan
    programs = []
    counters = []

    def recording(plan, y, x, a, ctr):
        programs.append(plan.program.code)
        return run_plan(plan, y, x, a, ctr)

    def counter():
        counters.append(MulCounter())
        return counters[-1]

    monkeypatch.setattr(series_toolkit, "_run_plan", recording)
    monkeypatch.setattr(harness, "MulCounter", counter)
    ok, lines = toolkit_check()
    assert ok and len(lines) == 68
    assert len(programs) == len(set(programs)) == 59
    assert [ctr.mmm for ctr in counters] == [50 * 409]


def test_check_keeps_a_few_stacks():
    # one advancing Horner sum, not all 45 references: at dim 64 a stack of
    # 50 instances is 1.6 MiB, and keeping every reference peaked at 89 MiB
    tracemalloc.start()
    try:
        ok, _ = toolkit_check(50, 64, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 40 * 2**20, peak / 2**20


def test_stacked_norms_equal_fro_norm_bitwise():
    rng = np.random.default_rng(4)
    for shape in [(6, 7, 7), (3, 1, 1), (2, 129, 129)]:
        stack = rng.standard_normal(shape)
        norms = fro_norms(stack)
        assert [float(v) for v in norms] == [fro_norm(m) for m in stack]
        assert float(fro_norms(stack[0])) == fro_norm(stack[0])


def test_dropped_instruction_fails_the_check(monkeypatch, fresh_layout):
    # order 3 is a wrap around the order-2 split: without its last
    # instruction the program returns the order-2 sum.
    assert len(plan_order(3).program.code) == 2
    broken = TableForm("h3-short", 3, (Mul("z", "Y", "X", "X"),))
    monkeypatch.setattr(
        harness, "plan_order", lambda h: broken if h == 3 else plan_order(h)
    )
    ok, lines = toolkit_check(instances=4, dim=5, seed=2)
    assert not ok
    line = next(ln for ln in lines if ln.startswith("plan:3 "))
    assert "mmm=2" in line and line.endswith("FAIL")
    assert sum("FAIL" in ln for ln in lines) == 1


def test_miscounted_product_fails_the_check(monkeypatch):
    # the executor counts one product too many for one program: its numbers
    # are right, its counter delta is not
    run_plan = series_toolkit._run_plan
    target = plan_order(3).program.code

    def miscounting(plan, y, x, a, ctr):
        if plan.program.code == target:
            ctr.mmm += 1
        return run_plan(plan, y, x, a, ctr)

    monkeypatch.setattr(series_toolkit, "_run_plan", miscounting)
    ok, lines = toolkit_check(instances=4, dim=5, seed=2)
    assert not ok
    assert lines[-1] == "FAIL: a counter delta disagreed with its plan's mmm cost"
    assert sum("FAIL" in ln for ln in lines) == 1


def test_non_finite_result_fails_the_check(monkeypatch, fresh_layout):
    # a NaN error must not pass as "no worse than the instances before"
    form = plan_order(5)  # the tabulated h5b form
    code = tuple(
        replace(ins, const=float("nan")) if isinstance(ins, Lin) and ins.const else ins
        for ins in form.code
    )
    broken = TableForm("h5-nan", 5, code)
    monkeypatch.setattr(
        harness, "plan_order", lambda h: broken if h == 5 else plan_order(h)
    )
    ok, lines = toolkit_check(instances=3, dim=4, seed=6)
    assert not ok
    line = next(ln for ln in lines if ln.startswith("plan:5 "))
    assert "max_rel_err=nan" in line and line.endswith("FAIL")


def test_first_and_warm_checks_agree_with_the_per_plan_check(fresh_layout):
    first = toolkit_check(instances=5, dim=5, seed=3)
    layout = harness._check_layout()
    warm = toolkit_check(instances=5, dim=5, seed=3)
    assert harness._check_layout() is layout
    assert harness._check_layout.cache_info().misses == 1
    assert first == warm == per_plan_toolkit_check(5, 5, 3)
    assert first[0]


def test_concurrent_checks_share_the_memo_safely():
    expected = [toolkit_check(instances=2, dim=3, seed=s) for s in range(8)]
    harness._check_layout.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(toolkit_check, 2, 3, s) for s in range(8)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_warm_check_hashes_no_instruction(monkeypatch):
    # the layout is built once per process: a warm check neither hashes
    # nor compares a program
    expected = toolkit_check(instances=5, dim=5, seed=4)

    def forbidden(self, *args):
        raise AssertionError("instruction hashed or compared")

    for cls in (Mul, Residual, Lin):
        monkeypatch.setattr(cls, "__hash__", forbidden)
        monkeypatch.setattr(cls, "__eq__", forbidden)
    assert toolkit_check(instances=5, dim=5, seed=4) == expected


def test_plan_swapped_in_after_a_warm_check_is_the_one_run(monkeypatch, fresh_layout):
    # the layout is kept for the process, so a swap takes a cleared cache
    expected = toolkit_check(instances=4, dim=5, seed=2)
    assert expected[0]
    broken = TableForm("h3-short", 3, (Mul("z", "Y", "X", "X"),))
    with monkeypatch.context() as patched:
        patched.setattr(harness, "plan_order", lambda h: broken if h == 3 else plan_order(h))
        harness._check_layout.cache_clear()
        ok, lines = toolkit_check(instances=4, dim=5, seed=2)
    assert not ok
    assert [ln for ln in lines if ln.endswith("FAIL")] == [
        ln for ln in lines if ln.startswith("plan:3 ")
    ]
    # and the real plan again once the patch is gone
    harness._check_layout.cache_clear()
    assert toolkit_check(instances=4, dim=5, seed=2) == expected


def test_zero_instances_rejected():
    with pytest.raises(ValueError, match="instances must be >= 1"):
        toolkit_check(instances=0)


def test_negative_seed_rejected_before_any_instance_is_drawn(monkeypatch):
    # numpy's own error would name neither the option nor the value
    def no_draw(*args, **kwargs):
        raise AssertionError("instances drawn before seed was checked")

    monkeypatch.setattr(harness.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        toolkit_check(seed=-1)


@pytest.mark.parametrize(
    "option, value", [("instances", 2.5), ("instances", True), ("dim", 2.5), ("seed", 1.5)]
)
def test_non_integer_option_rejected_before_any_instance_is_drawn(monkeypatch, option, value):
    # numpy's own TypeError would name neither the option nor the value
    def no_draw(*args, **kwargs):
        raise AssertionError(f"instances drawn before {option} was checked")

    monkeypatch.setattr(harness.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError) as info:
        toolkit_check(**{option: value})
    assert str(info.value) == f"{option} must be an integer, got {value!r}"


@pytest.mark.parametrize("dim", [0, -1])
def test_dim_rejected_before_any_instance_is_drawn(monkeypatch, dim):
    def no_draw(*args, **kwargs):
        raise AssertionError("instances drawn before dim was checked")

    monkeypatch.setattr(harness.np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        toolkit_check(dim=dim)
