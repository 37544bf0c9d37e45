import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import horner_iterates, mat_pow, random_spd
from seriesinv import (
    FactorPlan,
    Horner,
    MulCounter,
    efficiency_index,
    factored_eval,
    factored_mmm,
    fro_norm,
    geometric_apply,
    horner_eval,
    nested_eval,
    plan_order,
    plan_str,
    split_candidates,
    split_scalar,
    square_matrix,
    table_plans,
)
from seriesinv.series_toolkit import TABLE_LABELS, Split


def toolkit_instance(rng, dim=5):
    """(x, y, a) with y = I - x a and rho(y) < 1, from a scalar splitting."""
    a = random_spd(dim, rng)
    sp = split_scalar(a)
    return sp.precond, sp.residual, a


class TestHorner:
    def test_order_one_is_x(self, rng):
        x, y, a = toolkit_instance(rng)
        ctr = MulCounter()
        assert np.array_equal(horner_eval(y, x, 1, ctr), x)
        assert ctr.mmm == 0

    def test_zero_y_returns_x(self, rng):
        x = rng.standard_normal((3, 3))
        for h in (1, 2, 7):
            out = horner_eval(np.zeros((3, 3)), x, h, MulCounter())
            assert np.array_equal(out, x)

    def test_scalar_geometric_sum(self):
        y = square_matrix([[0.5]])
        x = square_matrix([[1.0]])
        ctr = MulCounter()
        out = horner_eval(y, x, 4, ctr)
        assert out[0, 0] == pytest.approx(1.875, abs=0)
        assert ctr.mmm == 3

    @pytest.mark.parametrize("h", [1, 2, 5, 11])
    def test_counts_both_conventions(self, rng, h):
        # Y supplied: h - 1 products; Y formed (through the plan executor,
        # the one evaluator that forms it): h, the same sum to rounding
        x, y, a = toolkit_instance(rng)
        ctr = MulCounter()
        ref = horner_eval(y, x, h, ctr)
        assert ctr.mmm == h - 1
        ctr = MulCounter()
        out = nested_eval(None, x, a, FactorPlan(Horner(h)), ctr, form_y=True)
        assert ctr.mmm == h
        assert fro_norm(out - ref) <= 1e-12 * fro_norm(ref)

    def test_order_below_one_rejected(self, rng):
        x, y, _ = toolkit_instance(rng)
        with pytest.raises(ValueError):
            horner_eval(y, x, 0, MulCounter())

    def test_one_pass_gives_every_order_bitwise(self, rng):
        # the per-instance verify-tables oracle's references: one pass of
        # 44 products, order h bitwise equal to its own Horner evaluation
        x, y, _ = toolkit_instance(rng)
        ctr = MulCounter()
        sums = horner_iterates(y, x, 45, ctr)
        assert ctr.mmm == 44 and len(sums) == 45
        for h in range(1, 46):
            assert sums[h - 1].tobytes() == horner_eval(y, x, h, MulCounter()).tobytes()

    def test_missing_y_rejected(self, rng):
        # Y is formed only on request; horner_eval takes no form_y option
        x, _, a = toolkit_instance(rng)
        with pytest.raises(ValueError, match="y is required"):
            nested_eval(None, x, a, FactorPlan(Horner(3)), MulCounter(), form_y=False)
        with pytest.raises(TypeError):
            horner_eval(None, x, 3, MulCounter(), a=a, form_y=True)


class TestFactored:
    def test_trivial_order_one(self, rng):
        x, y, a = toolkit_instance(rng)
        ctr = MulCounter()
        out = factored_eval(y, x, a, 0, 1, ctr)
        assert np.array_equal(out, x)
        assert ctr.mmm == 1  # the residual product alone

    def test_order_45_count(self, rng):
        x, y, a = toolkit_instance(rng)
        ctr = MulCounter()
        out = factored_eval(y, x, a, 8, 5, ctr)
        assert ctr.mmm == 14
        ref = horner_eval(y, x, 45, MulCounter())
        assert fro_norm(out - ref) <= 1e-10 * fro_norm(ref)

    def test_matches_horner(self, rng):
        x, y, a = toolkit_instance(rng, dim=4)
        out = factored_eval(y, x, a, 2, 3, MulCounter())
        ref = horner_eval(y, x, 9, MulCounter())
        assert fro_norm(out - ref) <= 1e-10 * fro_norm(ref)

    @pytest.mark.parametrize("p", range(0, 8))
    @pytest.mark.parametrize("w", range(1, 7))
    def test_count_law_full_grid(self, rng, p, w):
        x, y, a = toolkit_instance(rng, dim=4)
        ctr = MulCounter()
        factored_eval(y, x, a, p, w, ctr)
        expected = p + w + 1
        if w == 1:
            expected = p + 1
        elif p == 0:
            expected = w
        assert ctr.mmm == expected == factored_mmm(p, w)

    @pytest.mark.parametrize("p,w,poly", [(2, 3, 5), (3, 1, 3), (0, 4, 3), (5, 2, 7)])
    def test_count_law_poly_mode(self, rng, p, w, poly):
        x, y, a = toolkit_instance(rng, dim=4)
        ctr = MulCounter()
        factored_eval(y, x, a, p, w, ctr, form_y=False)
        assert ctr.mmm == poly == factored_mmm(p, w) - 1

    def test_inconsistent_y_rejected(self, rng):
        x, y, a = toolkit_instance(rng)
        with pytest.raises(ValueError):
            factored_eval(y + 0.5, x, a, 1, 2, MulCounter())

    def test_bad_parameters(self, rng):
        x, y, a = toolkit_instance(rng)
        with pytest.raises(ValueError):
            factored_eval(y, x, a, -1, 2, MulCounter())
        with pytest.raises(ValueError):
            factored_eval(y, x, a, 2, 0, MulCounter())


class TestEfficiencyIndex:
    def test_values(self):
        assert efficiency_index(8, 5) == pytest.approx(45.0 ** (1.0 / 14.0), rel=1e-12)
        assert efficiency_index(1, 1) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert efficiency_index(0, 1) == 1.0

    def test_second_order_baseline(self):
        # the most robust order-2 step: two products, index sqrt(2) = 1.4142
        assert efficiency_index(1, 1) == pytest.approx(1.4142, abs=5e-5)


class TestOrder45:
    def test_structure(self):
        plan = table_plans()[45][0]
        assert plan.order_h == 45
        assert plan_str(plan) == "split(p=8,w=5, inner=split(p=2,w=3), outer=table(h5b))"

    def test_cost_and_index(self):
        plan = table_plans()[45][0]
        assert plan.mmm_cost == 10
        assert plan.mmm_poly == 9
        assert plan.efficiency_index == pytest.approx(1.4633, abs=5e-5)

    def test_counter_and_equivalence(self, rng):
        x, y, a = toolkit_instance(rng)
        plan = table_plans()[45][0]
        ctr = MulCounter()
        out = nested_eval(y, x, a, plan, ctr)
        assert ctr.mmm == 10
        ref = horner_eval(y, x, 45, MulCounter())
        assert fro_norm(out - ref) <= 1e-8 * fro_norm(ref)

    def test_search_finds_ten(self):
        assert plan_order(45).mmm_cost == 10

    def test_catalogue_row_runs_the_searched_program(self):
        # a different tree from the search's, lowered to the same program
        assert TABLE_LABELS[45] == ("h45",)
        assert table_plans()[45][0].program == plan_order(45).program


# Frozen (poly, full) counts for every catalogued factorization.
TABLE_COUNTS = {
    "h2": (1, 2),
    "h3": (2, 3),
    "h4": (3, 4),
    "h5a": (4, 5),
    "h5b": (3, 4),
    "h6": (4, 5),
    "h7": (4, 5),
    "h8": (5, 6),
    "h9a": (5, 6),
    "h9b": (5, 6),
    "h10a": (6, 7),
    "h10b": (5, 6),
    "h11a": (6, 7),
    "h11b": (6, 7),
    "h12": (6, 7),
    "h13": (7, 8),
    "h14": (8, 9),
    "h15a": (7, 8),
    "h15b": (6, 7),
    "h16": (7, 8),
    "h17": (7, 8),
    "h18": (8, 9),
    "h19": (7, 8),
    "h45": (9, 10),
}


def catalogue():
    for order, plans in sorted(table_plans().items()):
        for label, plan in zip(TABLE_LABELS[order], plans):
            yield label, order, plan


class TestTableCatalogue:
    def test_orders_and_variants(self):
        plans = table_plans()
        assert sorted(plans) == [*range(2, 20), 45]
        for order in (5, 9, 10, 11, 15):
            assert len(plans[order]) == 2, f"order {order} should have two variants"

    def test_frozen_counts(self):
        for label, order, plan in catalogue():
            assert plan.order_h == order
            assert (plan.mmm_poly, plan.mmm_cost) == TABLE_COUNTS[label], label

    def test_known_structures(self):
        plans = table_plans()
        assert plan_str(plans[2][0]) == "split(p=1,w=1)"
        assert plan_str(plans[3][0]) == "wrap(split(p=1,w=1))"
        assert plan_str(plans[14][0]) == "split(p=6,w=2)"
        assert plan_str(plans[18][0]) == "split(p=5,w=3)"

    def test_eleventh_order_costs_six(self):
        # both order-11 variants run in six products once Y is in hand
        for plan in table_plans()[11]:
            assert plan.mmm_poly == 6

    def test_nested_fifteen_costs_seven(self):
        assert table_plans()[15][1].mmm_cost == 7

    def test_catalogue_is_read_only(self):
        # one catalogue serves every caller and the plan search, so a
        # caller cannot clear or extend it
        plans = table_plans()
        with pytest.raises(TypeError):
            plans[8] = ()
        with pytest.raises(AttributeError):
            plans[8].clear()
        assert all(isinstance(row, tuple) for row in plans.values())

    def test_every_plan_matches_horner(self, rng):
        x, y, a = toolkit_instance(rng)
        refs = {}
        for label, order, plan in catalogue():
            if order not in refs:
                refs[order] = horner_eval(y, x, order, MulCounter())
            out = nested_eval(y, x, a, plan, MulCounter())
            rel = fro_norm(out - refs[order]) / fro_norm(refs[order])
            assert rel <= 1e-9, f"{label}: {rel}"

    def test_count_soundness_both_modes(self, rng):
        x, y, a = toolkit_instance(rng, dim=4)
        for label, _, plan in catalogue():
            ctr = MulCounter()
            nested_eval(y, x, a, plan, ctr)
            assert ctr.mmm == plan.mmm_cost, label
            ctr = MulCounter()
            nested_eval(y, x, a, plan, ctr, form_y=False)
            assert ctr.mmm == plan.mmm_poly, label


class TestPlanOrder:
    def test_order_two_is_unit_split(self):
        assert plan_str(plan_order(2)) == "split(p=1,w=1)"

    def test_order_three_is_wrap(self):
        assert plan_str(plan_order(3)) == "wrap(split(p=1,w=1))"

    def test_bounds(self):
        with pytest.raises(ValueError):
            plan_order(1)
        with pytest.raises(ValueError):
            plan_order(65)

    def test_order_18_candidates(self):
        # the four nontrivial single-level factorizations of 18
        assert split_candidates(18) == [(1, 9), (2, 6), (5, 3), (8, 2)]
        single_level = min(factored_mmm(p, w) for p, w in split_candidates(18))
        assert single_level == 9
        plan = plan_order(18)
        assert plan.mmm_cost <= single_level
        assert plan.mmm_cost == 8  # nested search beats all single-level forms

    @pytest.mark.parametrize("h", range(2, 65))
    def test_count_soundness(self, rng, h):
        x, y, a = toolkit_instance(rng, dim=4)
        plan = plan_order(h)
        ctr = MulCounter()
        out = nested_eval(y, x, a, plan, ctr)
        assert ctr.mmm == plan.mmm_cost
        ref = horner_eval(y, x, h, MulCounter())
        assert fro_norm(out - ref) <= 1e-9 * fro_norm(ref)

    @pytest.mark.parametrize("h", [h for h in range(4, 65) if any(h % d == 0 for d in range(2, h))])
    def test_never_loses_to_presupplied_horner(self, h):
        assert plan_order(h).mmm_poly <= h - 1


class TestNestedEval:
    def test_zero_residual_returns_x(self):
        # x = a^-1 exactly, so y = 0
        a = np.eye(3) * 2.0
        x = np.eye(3) * 0.5
        for plan in (table_plans()[45][0], plan_order(7), table_plans()[8][0]):
            out = nested_eval(None, x, a, plan, MulCounter())
            assert np.allclose(out, x, atol=1e-15)

    def test_malformed_plan_rejected(self):
        # a plan is built from its tree alone: its counts cannot be stated
        with pytest.raises(TypeError):
            FactorPlan(order_h=5, root=Horner(4), mmm_cost=4, mmm_poly=3, efficiency_index=1.0)
        with pytest.raises(TypeError):
            FactorPlan(Horner(4), 4)
        with pytest.raises(ValueError, match="inner order 3 != p \\+ 1 = 2"):
            FactorPlan(Split(p=1, w=1, inner=Horner(3)))
        with pytest.raises(ValueError, match="Horner order must be >= 1"):
            FactorPlan(Horner(0))
        with pytest.raises(TypeError, match="not a plan node"):
            FactorPlan(plan_order(4))

    def test_identity_chain(self, rng):
        # I - Z A must equal Y**h: the series is exact in the residual power
        x, y, a = toolkit_instance(rng, dim=4)
        for plan in (plan_order(6), plan_order(12), table_plans()[45][0]):
            z = nested_eval(y, x, a, plan, MulCounter())
            lhs = np.eye(4) - z @ a
            target = mat_pow(y, plan.order_h)
            assert fro_norm(lhs - target) <= 1e-8 * max(fro_norm(target), 1e-300)


class TestGeometricApply:
    @pytest.mark.parametrize("order", [1, 2, 3, 19, 20, 64, 65, 130, 200])
    def test_matches_horner(self, rng, order):
        x, y, a = toolkit_instance(rng, dim=4)
        out = geometric_apply(y, x, order, a, MulCounter())
        ref = horner_eval(y, x, order, MulCounter())
        assert fro_norm(out - ref) <= 1e-9 * fro_norm(ref)

    def test_rejects_zero_order(self, rng):
        x, y, a = toolkit_instance(rng)
        with pytest.raises(ValueError):
            geometric_apply(y, x, 0, a, MulCounter())


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 5), order=st.integers(2, 19), seed=st.integers(0, 2**32 - 1))
def test_plan_equivalence_property(dim, order, seed):
    r = np.random.default_rng(seed)
    x, y, a = toolkit_instance(r, dim=dim)
    ref = horner_eval(y, x, order, MulCounter())
    scale = max(fro_norm(ref), 1e-300)
    for plan in table_plans()[order] + (plan_order(order),):
        out = nested_eval(y, x, a, plan, MulCounter())
        assert fro_norm(out - ref) <= 1e-9 * scale
