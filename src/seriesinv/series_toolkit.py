"""Evaluation of geometric matrix polynomials with minimal multiplications.

The object of interest is ``Z = (I + Y + ... + Y^(h-1)) X`` with
``Y = I - X A``.  Horner's rule needs ``h - 1`` products once Y is known
(``h`` counting the product that forms Y).  Splitting the sum as

    Z = (sum_j Y^((p+1) j)) (sum_d Y^d) X,        h = w (p + 1)

costs ``p + w + 1`` products instead, because the inner sum U satisfies
``U A = I - Y^(p+1)``, so the power ``Y^(p+1)`` needed by the outer sum
comes from a single product ``U A`` rather than repeated squaring.  The same
trick nests: inner and outer sums may themselves be evaluated by any plan of
matching order, and a degree bump ("wrap", ``Z' = X + Y Z``) covers prime
orders.  This module provides:

* :func:`horner_eval` / :func:`factored_eval` - the two baseline evaluators
  with pinned multiplication counts;
* :class:`FactorPlan` trees plus :func:`nested_eval` to execute them;
* :func:`table_plans` - a catalogue of hand-factored evaluation DAGs for
  orders 2..19 (including the cheaper second variants for orders 5, 9, 10,
  11 and the nested order-15 form);
* :func:`plan_order` - a bounded search for a minimal-count plan of any
  order up to 64;
* :func:`efficiency_index` - order per multiplication, ``h**(1/count)``.

Two counting conventions appear throughout and are kept explicit: the
"full" count includes the product forming ``Y = I - X A``; the "poly" count
assumes Y is already available.  They always differ by exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .matrix_core import MulCounter, fro_norm, identity, mat_mul, mat_pow_counted, residual_of

__all__ = [
    "FactorPlan",
    "Horner",
    "PrimeWrap",
    "Split",
    "TABLE_LABELS",
    "TableForm",
    "efficiency_index",
    "factored_eval",
    "factored_mmm",
    "geometric_apply",
    "horner_eval",
    "horner_iterates",
    "make_plan",
    "nested_eval",
    "order45_plan",
    "plan_order",
    "plan_str",
    "split_candidates",
    "table_plans",
]

MAX_PLAN_ORDER = 64
_MAX_NESTING = 3


# ---------------------------------------------------------------------------
# Plan nodes.  A node evaluates S_h(Y) X for its order h, given Y.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Horner:
    """Plain Horner recursion Z_i = Y Z_(i-1) + X."""

    order: int


@dataclass(frozen=True)
class Split:
    """Two-level factorization of order ``w * (p + 1)``.

    ``inner`` evaluates the (p+1)-term sum applied to X, ``outer`` the
    w-term sum in Q = Y^(p+1) applied to U.  Either may be any node of the
    matching order; Horner is the default leaf.
    """

    p: int
    w: int
    inner: "PlanNode"
    outer: "PlanNode | None" = None


@dataclass(frozen=True)
class PrimeWrap:
    """Degree bump Z' = X + Y Z, raising the inner order by one."""

    inner: "PlanNode"


# Straight-line program instructions for the tabulated forms.
@dataclass(frozen=True)
class Mul:
    dst: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class Residual:
    """dst = I - src @ A (one counted product)."""

    dst: str
    src: str


@dataclass(frozen=True)
class Lin:
    """Free linear combination dst = const * I + sum(coef * reg)."""

    dst: str
    const: float
    terms: tuple[tuple[float, str], ...]


Instr = Union[Mul, Residual, Lin]


@dataclass(frozen=True)
class TableForm:
    """A hand-factored evaluation DAG, stored as a straight-line program.

    Programs read registers "Y" and "X" and leave the result in the last
    instruction's destination.  Register names are local to the program.
    """

    label: str
    order: int
    program: tuple[Instr, ...]


PlanNode = Union[Horner, Split, PrimeWrap, TableForm]


@dataclass(frozen=True)
class FactorPlan:
    """A validated plan with its predicted multiplication counts.

    ``mmm_cost`` is the full-step count (the product forming Y included);
    ``mmm_poly`` assumes Y is supplied.  ``efficiency_index`` is
    ``order_h ** (1 / mmm_cost)``.
    """

    order_h: int
    root: PlanNode
    mmm_cost: int
    mmm_poly: int
    efficiency_index: float


# ---------------------------------------------------------------------------
# Node walkers: order, poly-mode cost, nesting depth, validation.
# ---------------------------------------------------------------------------


def _node_order(node: PlanNode) -> int:
    if isinstance(node, Horner):
        if node.order < 1:
            raise ValueError("Horner order must be >= 1")
        return node.order
    if isinstance(node, Split):
        if node.p < 0 or node.w < 1:
            raise ValueError("Split requires p >= 0 and w >= 1")
        if node.p >= 1 and _node_order(node.inner) != node.p + 1:
            raise ValueError(
                f"Split inner order {_node_order(node.inner)} != p + 1 = {node.p + 1}"
            )
        if node.w >= 2:
            if node.outer is None:
                raise ValueError("Split with w >= 2 needs an outer node")
            if _node_order(node.outer) != node.w:
                raise ValueError(
                    f"Split outer order {_node_order(node.outer)} != w = {node.w}"
                )
        return node.w * (node.p + 1)
    if isinstance(node, PrimeWrap):
        return _node_order(node.inner) + 1
    if isinstance(node, TableForm):
        return node.order
    raise TypeError(f"not a plan node: {node!r}")


def _node_poly_cost(node: PlanNode) -> int:
    if isinstance(node, Horner):
        return node.order - 1
    if isinstance(node, Split):
        cost = 0 if node.p == 0 else _node_poly_cost(node.inner)
        if node.w >= 2:
            cost += (0 if node.p == 0 else 1) + _node_poly_cost(node.outer)
        return cost
    if isinstance(node, PrimeWrap):
        return _node_poly_cost(node.inner) + 1
    if isinstance(node, TableForm):
        return sum(1 for ins in node.program if isinstance(ins, (Mul, Residual)))
    raise TypeError(f"not a plan node: {node!r}")


def _node_depth(node: PlanNode) -> int:
    if isinstance(node, Horner):
        return 0
    if isinstance(node, Split):
        inner = _node_depth(node.inner)
        outer = _node_depth(node.outer) if node.outer is not None else 0
        return 1 + max(inner, outer)
    if isinstance(node, PrimeWrap):
        return _node_depth(node.inner)
    if isinstance(node, TableForm):
        return 1
    raise TypeError(f"not a plan node: {node!r}")


def make_plan(root: PlanNode) -> FactorPlan:
    """Validate a node tree and attach its predicted counts."""
    order = _node_order(root)
    poly = _node_poly_cost(root)
    full = poly + 1
    return FactorPlan(
        order_h=order,
        root=root,
        mmm_cost=full,
        mmm_poly=poly,
        efficiency_index=float(order) ** (1.0 / full),
    )


def plan_str(plan: FactorPlan | PlanNode) -> str:
    """Canonical one-line text form, used by the CLI and golden tests."""
    node = plan.root if isinstance(plan, FactorPlan) else plan
    return _node_str(node)


def _node_str(node: PlanNode) -> str:
    if isinstance(node, Horner):
        return f"horner(h={node.order})"
    if isinstance(node, Split):
        parts = [f"p={node.p},w={node.w}"]
        if node.p >= 1 and not isinstance(node.inner, Horner):
            parts.append(f"inner={_node_str(node.inner)}")
        if node.w >= 2 and node.outer is not None and not isinstance(node.outer, Horner):
            parts.append(f"outer={_node_str(node.outer)}")
        return "split(" + ", ".join(parts) + ")"
    if isinstance(node, PrimeWrap):
        return f"wrap({_node_str(node.inner)})"
    if isinstance(node, TableForm):
        return f"table({node.label})"
    raise TypeError(f"not a plan node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluators.
# ---------------------------------------------------------------------------


def _horner_loop(y: np.ndarray, x: np.ndarray, h: int, ctr: MulCounter) -> np.ndarray:
    z = x
    for _ in range(h - 1):
        z = mat_mul(y, z, ctr)
        z += x
    return z


def horner_iterates(y: np.ndarray, x: np.ndarray, h: int, ctr: MulCounter) -> list[np.ndarray]:
    """Every Horner iterate ``[S_1 X, ..., S_h X]`` from one pass of ``h - 1``
    products; entry ``i`` is bitwise equal to ``horner_eval(y, x, i + 1)``."""
    if h < 1:
        raise ValueError("order h must be >= 1")
    sums = [x]
    for _ in range(h - 1):
        z = mat_mul(y, sums[-1], ctr)
        z += x
        sums.append(z)
    return sums


def _y_for(
    y: np.ndarray | None, x: np.ndarray, a: np.ndarray, ctr: MulCounter, form_y: bool
) -> np.ndarray:
    """The supplied Y, or with ``form_y`` Y re-formed as ``I - X A`` (one
    product) and checked against the supplied value, if any."""
    if not form_y:
        if y is None:
            raise ValueError("y is required unless form_y=True")
        return y
    y_eff = residual_of(x, a, ctr)
    if y is not None and fro_norm(y_eff - y) > 1e-10 * (1.0 + fro_norm(y)):
        raise ValueError("supplied Y does not match I - X A")
    return y_eff


def horner_eval(
    y: np.ndarray | None,
    x: np.ndarray,
    h: int,
    ctr: MulCounter,
    *,
    a: np.ndarray | None = None,
    form_y: bool = False,
) -> np.ndarray:
    """``(I + Y + ... + Y^(h-1)) X`` by the Horner recursion.

    Consumes exactly ``h - 1`` products with Y supplied, or ``h`` with
    ``form_y=True`` (Y is then recomputed as ``I - X A`` and checked against
    the supplied value, if any).
    """
    if h < 1:
        raise ValueError("order h must be >= 1")
    if form_y and a is None:
        raise ValueError("form_y=True requires the matrix a")
    return _horner_loop(_y_for(y, x, a, ctr, form_y), x, h, ctr)


def _split_node(p: int, w: int) -> Split:
    outer = Horner(w) if w >= 2 else None
    return Split(p=p, w=w, inner=Horner(p + 1), outer=outer)


@lru_cache(maxsize=128)
def _split_plan(p: int, w: int) -> FactorPlan:
    """The plain two-level split with Horner stages, the plan behind
    :func:`factored_mmm`, :func:`efficiency_index` and :func:`factored_eval`."""
    return make_plan(_split_node(p, w))


def factored_mmm(p: int, w: int) -> int:
    """Full-step multiplication count of the two-level factorization.

    ``p + w + 1`` in general, dropping the stage that degenerates:
    ``p + 1`` when w == 1 (no outer sum), ``w`` when p == 0 (inner sum is
    just X).
    """
    return _split_plan(p, w).mmm_cost


def efficiency_index(p: int, w: int) -> float:
    """Convergence order gained per multiplication: ``(w(p+1))**(1/count)``."""
    return _split_plan(p, w).efficiency_index


def factored_eval(
    y: np.ndarray | None,
    x: np.ndarray,
    a: np.ndarray,
    p: int,
    w: int,
    ctr: MulCounter,
    *,
    form_y: bool = True,
) -> np.ndarray:
    """Two-level factored evaluation of order ``h = w (p + 1)``.

    With ``form_y=True`` (the default, and the convention behind
    :func:`factored_mmm`) the count is exactly ``factored_mmm(p, w)``.  With
    ``form_y=False`` the supplied Y is trusted and the count drops by one.
    """
    return nested_eval(y, x, a, _split_plan(p, w), ctr, form_y=form_y)


def _run_program(
    form: TableForm,
    y: np.ndarray,
    x: np.ndarray,
    a: np.ndarray,
    ctr: MulCounter,
) -> np.ndarray:
    env = {"Y": y, "X": x}
    dst = "X"
    for ins in form.program:
        if isinstance(ins, Mul):
            env[ins.dst] = mat_mul(env[ins.lhs], env[ins.rhs], ctr)
        elif isinstance(ins, Residual):
            env[ins.dst] = residual_of(env[ins.src], a, ctr)
        elif isinstance(ins, Lin):
            if ins.const:
                acc = identity(x.shape[0])
                acc *= ins.const
            else:
                acc = np.zeros_like(x)
            for coef, reg in ins.terms:
                acc += coef * env[reg]
            env[ins.dst] = acc
        else:
            raise TypeError(f"bad instruction {ins!r}")
        dst = ins.dst
    return env[dst]


def _eval_node(
    node: PlanNode,
    y: np.ndarray,
    x: np.ndarray,
    a: np.ndarray,
    ctr: MulCounter,
) -> np.ndarray:
    if isinstance(node, Horner):
        return _horner_loop(y, x, node.order, ctr)
    if isinstance(node, Split):
        u = x if node.p == 0 else _eval_node(node.inner, y, x, a, ctr)
        if node.w == 1:
            return u
        q = y if node.p == 0 else residual_of(u, a, ctr)
        return _eval_node(node.outer, q, u, a, ctr)
    if isinstance(node, PrimeWrap):
        z = mat_mul(y, _eval_node(node.inner, y, x, a, ctr), ctr)
        z += x
        return z
    if isinstance(node, TableForm):
        return _run_program(node, y, x, a, ctr)
    raise TypeError(f"not a plan node: {node!r}")


def nested_eval(
    y: np.ndarray | None,
    x: np.ndarray,
    a: np.ndarray,
    plan: FactorPlan,
    ctr: MulCounter,
    *,
    form_y: bool = True,
) -> np.ndarray:
    """Execute a plan; the counter moves by exactly ``plan.mmm_cost``
    (``plan.mmm_poly`` with ``form_y=False``)."""
    if _node_order(plan.root) != plan.order_h:
        raise ValueError("malformed plan: order does not match its tree")
    if x.shape != a.shape:
        raise ValueError(f"dimension mismatch: x {x.shape} vs a {a.shape}")
    return _eval_node(plan.root, _y_for(y, x, a, ctr, form_y), x, a, ctr)


def geometric_apply(
    y: np.ndarray,
    x: np.ndarray,
    order: int,
    a: np.ndarray,
    ctr: MulCounter,
) -> np.ndarray:
    """``S_order(Y) X`` for arbitrary order, Y supplied.

    Orders up to 64 go through :func:`plan_order`; beyond that the sum is
    doubled, ``S_2t = (I + Y^t) S_t``, with the power taken by counted
    repeated squaring.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return np.array(x)
    if order <= MAX_PLAN_ORDER:
        return _eval_node(plan_order(order).root, y, x, a, ctr)
    half = order // 2
    t = geometric_apply(y, x, half, a, ctr)
    y_half = mat_pow_counted(y, half, ctr)
    z = mat_mul(y_half, t, ctr)
    z += t
    if order % 2:
        z = mat_mul(y, z, ctr)
        z += x
    return z


# ---------------------------------------------------------------------------
# Tabulated forms, orders 2..19.  Programs run in poly mode (Y given).
# ---------------------------------------------------------------------------


def _custom_forms() -> dict[str, TableForm]:
    """The rows whose cheapest evaluation is a special DAG, not a plain
    split or wrap: powers by squaring and folded factors get reused."""
    forms: dict[str, TableForm] = {}

    def add(label: str, order: int, program: tuple[Instr, ...]):
        forms[label] = TableForm(label=label, order=order, program=program)

    # (I + Y + Y^2 + Y^2 (Y + Y^2)) X
    add(
        "h5b",
        5,
        (
            Mul("y2", "Y", "Y"),
            Lin("s", 0.0, ((1.0, "Y"), (1.0, "y2"))),
            Mul("t", "y2", "s"),
            Lin("m", 1.0, ((1.0, "Y"), (1.0, "y2"), (1.0, "t"))),
            Mul("z", "m", "X"),
        ),
    )
    # (I + (Y + Y^4)(I + Y + Y^2)) X
    add(
        "h7",
        7,
        (
            Mul("y2", "Y", "Y"),
            Mul("y4", "y2", "y2"),
            Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y4"))),
            Lin("f2", 1.0, ((1.0, "Y"), (1.0, "y2"))),
            Mul("w", "f1", "f2"),
            Mul("t", "w", "X"),
            Lin("z", 0.0, ((1.0, "X"), (1.0, "t"))),
        ),
    )
    # (I + Y^4)(I + Y^2)(I + Y) X  -- the residual trick applied twice
    add(
        "h8",
        8,
        (
            Mul("c0", "Y", "X"),
            Lin("c1", 0.0, ((1.0, "X"), (1.0, "c0"))),
            Residual("q2", "c1"),
            Mul("c2", "q2", "c1"),
            Lin("c3", 0.0, ((1.0, "c1"), (1.0, "c2"))),
            Residual("q4", "c3"),
            Mul("c4", "q4", "c3"),
            Lin("z", 0.0, ((1.0, "c3"), (1.0, "c4"))),
        ),
    )
    # (I + (I + Y^4)(I + Y^2)(Y + Y^2)) X
    add(
        "h9b",
        9,
        (
            Mul("y2", "Y", "Y"),
            Mul("y4", "y2", "y2"),
            Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y2"))),
            Lin("f2", 1.0, ((1.0, "y2"),)),
            Mul("w1", "f2", "f1"),
            Lin("f3", 1.0, ((1.0, "y4"),)),
            Mul("w2", "f3", "w1"),
            Mul("t", "w2", "X"),
            Lin("z", 0.0, ((1.0, "X"), (1.0, "t"))),
        ),
    )
    # (I + Y^5)(I + (Y + Y^2)(I + Y^2)) X
    add(
        "h10b",
        10,
        (
            Mul("y2", "Y", "Y"),
            Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y2"))),
            Lin("f2", 1.0, ((1.0, "y2"),)),
            Mul("w", "f1", "f2"),
            Mul("t0", "w", "X"),
            Lin("u", 0.0, ((1.0, "X"), (1.0, "t0"))),
            Residual("q5", "u"),
            Mul("t1", "q5", "u"),
            Lin("z", 0.0, ((1.0, "u"), (1.0, "t1"))),
        ),
    )
    # (I + Y (I + (Y^2 + Y^4)(I + Y^4))(I + Y)) X
    add(
        "h11b",
        11,
        (
            Mul("t0", "Y", "X"),
            Lin("t1", 0.0, ((1.0, "X"), (1.0, "t0"))),
            Residual("y2", "t1"),
            Mul("y4", "y2", "y2"),
            Lin("f1", 0.0, ((1.0, "y2"), (1.0, "y4"))),
            Lin("f2", 1.0, ((1.0, "y4"),)),
            Mul("w", "f1", "f2"),
            Mul("t2", "w", "t1"),
            Lin("t3", 0.0, ((1.0, "t1"), (1.0, "t2"))),
            Mul("t4", "Y", "t3"),
            Lin("z", 0.0, ((1.0, "X"), (1.0, "t4"))),
        ),
    )
    # (I + (I + (Y^3)^2)((Y^3)^2 + Y^3))(I + Y + Y^2) X  -- nested form
    add(
        "h15b",
        15,
        (
            Mul("c0", "Y", "X"),
            Lin("c1", 0.0, ((1.0, "X"), (1.0, "c0"))),
            Mul("c2", "Y", "c1"),
            Lin("u", 0.0, ((1.0, "X"), (1.0, "c2"))),
            Residual("q3", "u"),
            Mul("q6", "q3", "q3"),
            Lin("f1", 1.0, ((1.0, "q6"),)),
            Lin("f2", 0.0, ((1.0, "q3"), (1.0, "q6"))),
            Mul("w", "f1", "f2"),
            Mul("t", "w", "u"),
            Lin("z", 0.0, ((1.0, "u"), (1.0, "t"))),
        ),
    )
    # (I + (Y + Y^2 + Y^3 + Y^4)(I + Y^4 + Y^8 + Y^12)) X
    add(
        "h17",
        17,
        (
            Mul("y2", "Y", "Y"),
            Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y2"))),
            Lin("f2", 1.0, ((1.0, "y2"),)),
            Mul("g", "f1", "f2"),
            Mul("y4", "y2", "y2"),
            Mul("y8", "y4", "y4"),
            Mul("y12", "y8", "y4"),
            Lin("f3", 1.0, ((1.0, "y4"), (1.0, "y8"), (1.0, "y12"))),
            Mul("w", "g", "f3"),
            Mul("t", "w", "X"),
            Lin("z", 0.0, ((1.0, "X"), (1.0, "t"))),
        ),
    )
    # (I + (Y + Y^2)(I + Y^2 + Y^4)(I + Y^6 + Y^12)) X
    add(
        "h19",
        19,
        (
            Mul("y2", "Y", "Y"),
            Mul("y4", "y2", "y2"),
            Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y2"))),
            Lin("f2", 1.0, ((1.0, "y2"), (1.0, "y4"))),
            Mul("w1", "f1", "f2"),
            Mul("y6", "y2", "y4"),
            Mul("y12", "y6", "y6"),
            Lin("f3", 1.0, ((1.0, "y6"), (1.0, "y12"))),
            Mul("w2", "w1", "f3"),
            Mul("t", "w2", "X"),
            Lin("z", 0.0, ((1.0, "X"), (1.0, "t"))),
        ),
    )
    return forms


_TABLE_FORMS = _custom_forms()


# Catalogue of tabulated factorizations, keyed by order.  Rows whose stated
# form is the plain two-level split (or its degree bump) use the generic
# nodes; the folded forms use their explicit programs.
_TABLE_ROOTS: dict[int, tuple[tuple[str, PlanNode], ...]] = {
    2: (("h2", _split_node(1, 1)),),
    3: (("h3", PrimeWrap(_split_node(1, 1))),),
    4: (("h4", _split_node(1, 2)),),
    5: (("h5a", PrimeWrap(_split_node(1, 2))), ("h5b", _TABLE_FORMS["h5b"])),
    6: (("h6", _split_node(2, 2)),),
    7: (("h7", _TABLE_FORMS["h7"]),),
    8: (("h8", _TABLE_FORMS["h8"]),),
    9: (("h9a", _split_node(2, 3)), ("h9b", _TABLE_FORMS["h9b"])),
    10: (("h10a", PrimeWrap(_split_node(2, 3))), ("h10b", _TABLE_FORMS["h10b"])),
    11: (("h11a", PrimeWrap(_TABLE_FORMS["h10b"])), ("h11b", _TABLE_FORMS["h11b"])),
    12: (("h12", _split_node(3, 3)),),
    13: (("h13", PrimeWrap(_split_node(3, 3))),),
    14: (("h14", _split_node(6, 2)),),
    15: (("h15a", _split_node(2, 5)), ("h15b", _TABLE_FORMS["h15b"])),
    16: (("h16", _split_node(3, 4)),),
    17: (("h17", _TABLE_FORMS["h17"]),),
    18: (("h18", _split_node(5, 3)),),
    19: (("h19", _TABLE_FORMS["h19"]),),
}

TABLE_LABELS: dict[int, tuple[str, ...]] = {
    order: tuple(label for label, _ in roots) for order, roots in _TABLE_ROOTS.items()
}


@lru_cache(maxsize=1)
def table_plans() -> dict[int, list[FactorPlan]]:
    """Catalogue of tabulated factorization plans, keyed by order 2..19."""
    return {
        order: [make_plan(root) for _, root in roots]
        for order, roots in _TABLE_ROOTS.items()
    }


def order45_plan() -> FactorPlan:
    """The showcase order-45 nested plan: split p=8, w=5 with a 3x3 split
    inner sum and the factored quartic as the outer sum.  Ten products."""
    root = Split(
        p=8,
        w=5,
        inner=Split(p=2, w=3, inner=Horner(3), outer=Horner(3)),
        outer=_TABLE_FORMS["h5b"],
    )
    return make_plan(root)


# ---------------------------------------------------------------------------
# Plan search.
# ---------------------------------------------------------------------------


def split_candidates(h: int) -> list[tuple[int, int]]:
    """All (p, w) with w (p + 1) == h, p >= 1, w >= 2, in increasing p."""
    return [(d - 1, h // d) for d in range(2, h // 2 + 1) if h % d == 0]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Candidate ranking: cheapest first; on ties prefer splits (smaller p first),
# then wraps, then table forms, then Horner; shallower nesting last.
_RANK_SPLIT, _RANK_WRAP, _RANK_TABLE, _RANK_HORNER = 0, 1, 2, 3
_NO_P = 10**9


@lru_cache(maxsize=None)
def _best(h: int, budget: int) -> tuple[int, int, int, int, PlanNode]:
    """Minimal poly-cost node of order h within a nesting budget.

    Returns (poly_cost, rank, p, depth, node); the tuple prefix is the sort
    key used for deterministic tie-breaking.
    """
    cands: list[tuple[int, int, int, int, PlanNode]] = []
    cands.append((h - 1, _RANK_HORNER, _NO_P, 0, Horner(h)))
    if budget >= 1:
        for _, root in _TABLE_ROOTS.get(h, ()):
            cands.append(
                (_node_poly_cost(root), _RANK_TABLE, _NO_P, _node_depth(root), root)
            )
        if h == 2:
            node = Split(p=1, w=1, inner=Horner(2))
            cands.append((1, _RANK_SPLIT, 1, 1, node))
        for p, w in split_candidates(h):
            ic, _, _, idepth, inner = _best(p + 1, budget - 1)
            oc, _, _, odepth, outer = _best(w, budget - 1)
            node = Split(p=p, w=w, inner=inner, outer=outer)
            depth = 1 + max(idepth, odepth)
            cands.append((ic + 1 + oc, _RANK_SPLIT, p, depth, node))
        if _is_prime(h) and h >= 3:
            ic, _, _, idepth, inner = _best(h - 1, budget)
            cands.append((ic + 1, _RANK_WRAP, _NO_P, idepth, PrimeWrap(inner)))
    return min(cands, key=lambda c: c[:4])


def plan_order(h: int) -> FactorPlan:
    """Minimal-count plan for order h (2..64).

    Composite orders search over every divisor pair (p, w) with nested
    sub-plans (including the tabulated forms) down to three nesting levels;
    prime orders wrap the plan for h - 1.  Ties go to the split with the
    smaller p, then to the shallower tree.
    """
    if h < 2:
        raise ValueError("plan_order requires h >= 2")
    if h > MAX_PLAN_ORDER:
        raise ValueError(f"plan_order supports h <= {MAX_PLAN_ORDER}")
    return make_plan(_best(h, _MAX_NESTING)[4])
