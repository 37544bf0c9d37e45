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
* :class:`FactorPlan` - a node tree, lowered once when the plan is built
  to a straight-line program, and :func:`nested_eval` to run it;
* :func:`table_plans` - a catalogue of hand-factored evaluation DAGs for
  orders 2..19 and 45 (including the cheaper second variants for orders 5,
  9, 10, 11, the nested order-15 form and the ten-product order-45 plan);
* :func:`plan_order` - a bounded search for a minimal-count plan of any
  order up to 64;
* :func:`efficiency_index` - order per multiplication, ``h**(1/count)``;
* :class:`Program` and :func:`run_program` - a start or step function of
  the iteration family lowered to one program, by splicing the plan
  programs it sums with, and run by the same executor as every plan.

Two counting conventions appear throughout and are kept explicit: the
"full" count includes the product forming ``Y = I - X A``; the "poly" count
assumes Y is already available.  They always differ by exactly one.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from math import copysign
from operator import itemgetter
from types import MappingProxyType
from typing import ClassVar, Union

import numpy as np

from .matrix_core import (
    DOT_MAX_DIM,
    MulCounter,
    check_int,
    fro_norm,
    identity_constant,
    residual_of,
    run_branches,
)

__all__ = [
    "FactorPlan",
    "Horner",
    "PrimeWrap",
    "Program",
    "Split",
    "TABLE_LABELS",
    "TableForm",
    "efficiency_index",
    "factored_eval",
    "factored_mmm",
    "geometric_apply",
    "horner_eval",
    "nested_eval",
    "plan_order",
    "plan_str",
    "run_program",
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

    def __post_init__(self):
        check_int("order", self.order)
        if self.order < 1:
            raise ValueError("Horner order must be >= 1")


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

    def __post_init__(self):
        check_int("p", self.p)
        check_int("w", self.w)
        if self.p < 0 or self.w < 1:
            raise ValueError("Split requires p >= 0 and w >= 1")


@dataclass(frozen=True)
class PrimeWrap:
    """Degree bump Z' = X + Y Z, raising the inner order by one."""

    inner: "PlanNode"


# Straight-line program instructions.  A tabulated form is written in them
# over readable register names ("Y", "X", "y2", ...); every plan, and every
# start and step function of the iteration family, is lowered to them once
# over integer slots: the inputs first (a plan's Y is slot 0 and X slot 1),
# then instruction i writes slot (number of inputs) + i.  A ``mat`` of None
# is the program's matrix A, which the executor is given beside the inputs.
# ``drop`` names the registers an instruction reads for the last time: the
# executor lets go of them once it has run, so only live arrays are kept.
# ``op`` is the executor's dispatch code, one per instruction kind.
# ``renamed(f, mat)`` is the instruction with every register r read as
# f(r) and no drops; a splice binds a ``mat`` of None to ``mat``.
Reg = Union[str, int]
_MUL, _RESIDUAL, _LIN, _MATVEC, _SUB = 0, 1, 2, 3, 4


@dataclass(frozen=True, slots=True)
class Mul:
    """dst = lhs @ rhs (one counted product), plus register ``add`` if given."""

    op: ClassVar[int] = _MUL
    dst: Reg
    lhs: Reg
    rhs: Reg
    add: Reg | None = None
    drop: tuple[Reg, ...] = ()

    def reads(self) -> tuple[Reg, ...]:
        return (self.lhs, self.rhs) if self.add is None else (self.lhs, self.rhs, self.add)

    def renamed(self, f, mat=None) -> "Mul":
        return Mul(f(self.dst), f(self.lhs), f(self.rhs), None if self.add is None else f(self.add))


@dataclass(frozen=True, slots=True)
class Residual:
    """dst = I - src @ mat (one counted product); ``mat`` None is A."""

    op: ClassVar[int] = _RESIDUAL
    dst: Reg
    src: Reg
    mat: Reg | None = None
    drop: tuple[Reg, ...] = ()

    def reads(self) -> tuple[Reg, ...]:
        return (self.src,) if self.mat is None else (self.src, self.mat)

    def renamed(self, f, mat=None) -> "Residual":
        return Residual(f(self.dst), f(self.src), mat if self.mat is None else f(self.mat))


@dataclass(frozen=True, slots=True)
class Lin:
    """Free linear combination dst = const * I + sum(coef * reg)."""

    op: ClassVar[int] = _LIN
    dst: Reg
    const: float
    terms: tuple[tuple[float, Reg], ...]
    drop: tuple[Reg, ...] = ()

    def reads(self) -> tuple[Reg, ...]:
        return tuple(reg for _, reg in self.terms)

    def renamed(self, f, mat=None) -> "Lin":
        return Lin(f(self.dst), self.const, tuple((c, f(reg)) for c, reg in self.terms))


@dataclass(frozen=True, slots=True)
class MatVec:
    """dst = mat @ vec for a vector ``vec`` (one counted matrix-vector
    product); ``mat`` None is A."""

    op: ClassVar[int] = _MATVEC
    dst: Reg
    mat: Reg | None
    vec: Reg
    drop: tuple[Reg, ...] = ()

    def reads(self) -> tuple[Reg, ...]:
        return (self.vec,) if self.mat is None else (self.mat, self.vec)

    def renamed(self, f, mat=None) -> "MatVec":
        return MatVec(f(self.dst), mat if self.mat is None else f(self.mat), f(self.vec))


@dataclass(frozen=True, slots=True)
class Sub:
    """dst = lhs - rhs, free: the vector differences of a theta update and
    the carried-weight difference of the recursive Richardson step."""

    op: ClassVar[int] = _SUB
    dst: Reg
    lhs: Reg
    rhs: Reg
    drop: tuple[Reg, ...] = ()

    def reads(self) -> tuple[Reg, ...]:
        return (self.lhs, self.rhs)

    def renamed(self, f, mat=None) -> "Sub":
        return Sub(f(self.dst), f(self.lhs), f(self.rhs))


Instr = Union[Mul, Residual, Lin, MatVec, Sub]


@dataclass(frozen=True)
class TableForm:
    """A hand-factored evaluation DAG, stored as a straight-line program.

    Programs read registers "Y" and "X" and leave the result in the last
    instruction's destination.  Register names are local to the program.
    """

    label: str
    order: int
    program: tuple[Instr, ...]

    def __post_init__(self):
        check_int("order", self.order)


PlanNode = Union[Horner, Split, PrimeWrap, TableForm]


@dataclass(frozen=True)
class FactorPlan:
    """A node tree, validated and lowered once, with its predicted counts.

    ``FactorPlan(root)`` is the only way to build a plan; every other field
    is derived from ``root`` when the plan is built.  ``program``, the tree
    lowered to a straight-line program over integer slots, is what every
    evaluation runs, and ``order_h`` is the tree's order.  ``mmm_poly`` is
    the number of ``Mul`` and ``Residual`` instructions in the program, the
    count with Y supplied; ``mmm_cost`` is one more, the full-step count
    with the product forming Y.  ``efficiency_index`` is
    ``order_h ** (1 / mmm_cost)``.  An invalid tree raises ``ValueError``
    (``TypeError`` for a non-node).

    Building a plan also keeps its order and program on the root node (a
    derived value of a frozen node), so a later plan that holds this root
    as a child splices the program instead of lowering the subtree again.
    """

    root: PlanNode
    order_h: int = field(init=False)
    program: tuple[Instr, ...] = field(init=False, repr=False, compare=False)
    mmm_poly: int = field(init=False)
    mmm_cost: int = field(init=False)
    efficiency_index: float = field(init=False)

    def __post_init__(self):
        order, program = _lower(self.root)
        object.__setattr__(self.root, "_lowered", (order, program))
        poly = sum(1 for ins in program if not isinstance(ins, Lin))
        full = poly + 1
        object.__setattr__(self, "order_h", order)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "mmm_poly", poly)
        object.__setattr__(self, "mmm_cost", full)
        object.__setattr__(self, "efficiency_index", float(order) ** (1.0 / full))


@dataclass(frozen=True, eq=False)
class Program:
    """A start or step function lowered to one straight-line program.

    ``inputs`` names the input slots, in order; ``code`` runs over them and
    over A, the matrix the executor is given beside them; ``outputs`` are
    the slots the function returns.  ``cuts`` is empty, or the three
    indices where the code's two independent branches and their join
    start: the code before the first branch is a shared prelude.  ``mmm``
    and ``mvm`` are the counted matrix-matrix and matrix-vector products
    one run adds, and ``depth`` is the critical path: the most
    matrix-matrix products on any chain of dependent instructions, from
    an input to an output.  ``copies`` are the outputs that
    :func:`run_program` copies, as they are inputs or repeat an earlier
    output, and ``fetch(regs)`` picks the outputs from the registers.
    Built by :class:`_Builder`; run by :func:`run_program`.
    """

    inputs: tuple[str, ...]
    code: tuple[Instr, ...]
    outputs: tuple[int, ...]
    cuts: tuple[int, ...]
    mmm: int
    mvm: int
    depth: int
    copies: tuple[int, ...] = field(repr=False)
    fetch: Callable = field(repr=False)


class _Builder:
    """Emits one straight-line program over integer slots: the named
    inputs first, then instruction i writes slot ``len(inputs) + i``."""

    def __init__(self, *inputs: str):
        self.inputs = inputs
        self.code: list[Instr] = []
        self.cuts: list[int] = []

    def emit(self, instr, *args) -> int:
        dst = len(self.inputs) + len(self.code)
        self.code.append(instr(dst, *args))
        return dst

    def cut(self) -> None:
        """Mark where the next branch, or the join after the second
        branch, starts; a program has no cuts or three."""
        self.cuts.append(len(self.code))

    def splice(self, code: tuple[Instr, ...], slots: tuple[int, ...], mat=None):
        """Append ``code``, lowered over ``len(slots)`` inputs, with input
        i read from ``slots[i]`` and a ``mat`` of None bound to ``mat``;
        returns the renaming of its slots to this program's."""
        base = len(self.inputs) + len(self.code)
        rename = [*slots, *range(base, base + len(code))].__getitem__
        self.code += [ins.renamed(rename, mat) for ins in code]
        return rename

    def splice_plan(self, code: tuple[Instr, ...], y: int, x: int, mat=None) -> int:
        """Append a plan's program with Y at slot ``y`` and X at ``x``;
        returns the slot of its result (``x`` for the empty program)."""
        rename = self.splice(code, (y, x), mat)
        return rename(code[-1].dst) if code else x

    def call(self, program: Program, *slots: int) -> list[int]:
        """Append ``program`` with input i read from ``slots[i]``, its
        branches included; returns the slots of its outputs."""
        start = len(self.code)
        rename = self.splice(program.code, slots)
        self.cuts += [start + cut for cut in program.cuts]
        return [rename(out) for out in program.outputs]

    def horner(self, y: int, x: int, order: int) -> int:
        """``(I + Y + ... + Y^(order-1)) X`` in ``order - 1`` products."""
        z = x
        for _ in range(order - 1):
            z = self.emit(Mul, y, z, x)
        return z

    def power_sum(self, y: int, order: int) -> int:
        """``I + Y + ... + Y^(order-1)`` in ``order - 2`` products (none
        for order 1 or 2): the powers ``Y^j = Y^(j-1) Y``, then one
        ``Lin`` that adds them to I in turn."""
        terms = []
        power = y
        for j in range(1, order):
            if j > 1:
                power = self.emit(Mul, power, y)
            terms.append((1.0, power))
        return self.emit(Lin, 1.0, tuple(terms))

    def lower(self, node: PlanNode, y: int, x: int) -> tuple[int, int]:
        """Append a plan node's program applied to X at slot ``x`` with Y
        at slot ``y``; returns (result slot, order).  A node that is the
        root of a built plan is spliced, not lowered again."""
        lowered = getattr(node, "_lowered", None)
        if lowered is not None:
            order, code = lowered
            return self.splice_plan(code, y, x), order
        if isinstance(node, Horner):
            return self.horner(y, x, node.order), node.order
        if isinstance(node, Split):
            u = x
            if node.p >= 1:
                u, order = self.lower(node.inner, y, x)
                if order != node.p + 1:
                    raise ValueError(f"Split inner order {order} != p + 1 = {node.p + 1}")
            if node.w >= 2:
                if node.outer is None:
                    raise ValueError("Split with w >= 2 needs an outer node")
                q = y if node.p == 0 else self.emit(Residual, u)
                u, order = self.lower(node.outer, q, u)
                if order != node.w:
                    raise ValueError(f"Split outer order {order} != w = {node.w}")
            return u, node.w * (node.p + 1)
        if isinstance(node, PrimeWrap):
            z, order = self.lower(node.inner, y, x)
            return self.emit(Mul, y, z, x), order + 1
        if isinstance(node, TableForm):
            # The form's own register names, renamed to the program's slots.
            env = {"Y": y, "X": x}
            z = x
            for ins in node.program:
                z = env[ins.dst] = len(self.inputs) + len(self.code)
                self.code.append(ins.renamed(env.__getitem__))
            return z, node.order
        raise TypeError(f"not a plan node: {node!r}")

    def finish(self, *outputs: int) -> tuple[Instr, ...]:
        """The code, with each instruction's drops: the slots it reads for
        the last time, outputs excepted.  Each slot is written once."""
        last_read = {reg: i for i, ins in enumerate(self.code) for reg in ins.reads()}
        drops: list[list[int]] = [[] for _ in self.code]
        for reg, i in last_read.items():
            if reg not in outputs:
                drops[i].append(reg)
        for ins, d in zip(self.code, drops):
            object.__setattr__(ins, "drop", tuple(d))
        return tuple(self.code)

    def build(self, *outputs: int) -> Program:
        code = self.finish(*outputs)
        depth = [0] * len(self.inputs)
        for ins in code:
            longest = max((depth[reg] for reg in ins.reads()), default=0)
            depth.append(longest + (ins.op in (_MUL, _RESIDUAL)))
        return Program(
            inputs=self.inputs,
            code=code,
            outputs=outputs,
            cuts=tuple(self.cuts),
            mmm=sum(1 for ins in code if ins.op in (_MUL, _RESIDUAL)),
            mvm=sum(1 for ins in code if ins.op == _MATVEC),
            depth=max((depth[out] for out in outputs), default=0),
            copies=tuple(
                i
                for i, out in enumerate(outputs)
                if out < len(self.inputs) or out in outputs[:i]
            ),
            # itemgetter returns a tuple for two or more slots
            fetch=itemgetter(*outputs) if len(outputs) > 1 else lambda regs: (regs[outputs[0]],),
        )


# ---------------------------------------------------------------------------
# Validation and lowering, in one walk of the node tree.
# ---------------------------------------------------------------------------


def _lower(root: PlanNode) -> tuple[int, tuple[Instr, ...]]:
    """Lower a node tree to one straight-line program over integer slots
    (Y = 0, X = 1, instruction i writes i + 2), checking that each child
    has the order its parent needs; returns (order, program).  The result
    is the last instruction's slot (X if none).  Each node checks its own
    fields when it is built."""
    bld = _Builder("Y", "X")
    order = bld.lower(root, 0, 1)[1]
    # The result, written last, is never read and never dropped.
    return order, bld.finish()


def plan_str(plan: FactorPlan) -> str:
    """Canonical one-line text form, used by the CLI and golden tests."""
    return _node_str(plan.root)


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


def horner_eval(y: np.ndarray, x: np.ndarray, h: int, ctr: MulCounter) -> np.ndarray:
    """``(I + Y + ... + Y^(h-1)) X`` by the Horner recursion, Y supplied;
    exactly ``h - 1`` products.  The result is always a fresh array, a copy
    of X for h == 1."""
    if h < 1:
        raise ValueError("order h must be >= 1")
    return _run_plan(_horner_plan(h).program, y, x, x, ctr)


@lru_cache(maxsize=128)
def _horner_plan(h: int) -> FactorPlan:
    return FactorPlan(Horner(h))


def _split_node(p: int, w: int) -> Split:
    outer = Horner(w) if w >= 2 else None
    return Split(p=p, w=w, inner=Horner(p + 1), outer=outer)


@lru_cache(maxsize=128)
def _split_plan(p: int, w: int) -> FactorPlan:
    """The plain two-level split with Horner stages, the plan behind
    :func:`factored_mmm`, :func:`efficiency_index` and :func:`factored_eval`."""
    return FactorPlan(_split_node(p, w))


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


def _execute(code: tuple[Instr, ...], regs: list, a: np.ndarray, ctr: MulCounter) -> list:
    """The one executor: run lowered ``code`` on the register list
    ``regs``, which holds the slots before the code's first one, and
    return it, extended by one slot per instruction.

    Every program runs here: each plan (for :func:`nested_eval`,
    :func:`factored_eval`, :func:`geometric_apply` and :func:`horner_eval`)
    and each start and step function of the iteration family (through
    :func:`run_program`).  Operands are ``(n, n)`` matrices, or ``(k, n,
    n)`` stacks of one shape (every instance in one pass, each bitwise
    equal to its own 2-D run), and vectors for ``MatVec`` and ``Sub``.  A
    dropped slot is set to None.  Each product runs as :func:`mat_mul`
    runs it (``ndarray.dot`` on ``(n, n)`` operands with 2 <= n <=
    ``DOT_MAX_DIM``, ``np.matmul`` on all others; the function is picked
    once per call, from A, not per instruction) and is added to the
    counter once the code has run, one per n x n product.  ``Residual``
    forms ``I - src mat`` as :func:`residual_of` does.  ``MatVec`` is :func:`mat_vec`'s
    ``mat @ vec``, one mvm, and ``Sub`` is ``lhs - rhs``.  Every register
    an instruction writes is a fresh array, so inputs are never written.

    A ``Lin`` is fused, bitwise equal to ``const * I`` plus each
    ``coef * reg`` in turn, signed zeros included: a coefficient of 1.0
    adds its register without a multiply, and a constant of 1.0 or +0.0
    starts from the first term (``I + t`` or ``t + 0.0``) instead of from a
    scaled identity.
    """
    small = a.ndim == 2 and 1 < a.shape[1] <= DOT_MAX_DIM
    mul = np.ndarray.dot if small else np.matmul
    eye = identity_constant(a.shape[-1])
    products = vectors = 0
    for ins in code:
        op = ins.op
        if op == _MUL:
            z = mul(regs[ins.lhs], regs[ins.rhs])
            products += 1
            if ins.add is not None:
                z += regs[ins.add]
        elif op == _RESIDUAL:
            z = mul(regs[ins.src], a if ins.mat is None else regs[ins.mat])
            products += 1
            np.subtract(eye, z, out=z)
        elif op == _LIN:
            const, terms = ins.const, ins.terms
            if terms and (const == 1.0 or (const == 0.0 and copysign(1.0, const) > 0.0)):
                # 1.0 * I + t is I + t; +0.0 * I + t is t + 0.0, which turns
                # a -0.0 of t into +0.0 as that sum does.
                coef, slot = terms[0]
                t = regs[slot] if coef == 1.0 else coef * regs[slot]
                z = np.add(eye, t) if const == 1.0 else np.add(t, 0.0)
                terms = terms[1:]
            else:
                z = np.multiply(eye, const, out=np.empty_like(a))
            for coef, slot in terms:
                z += regs[slot] if coef == 1.0 else coef * regs[slot]
        elif op == _MATVEC:
            z = np.matmul(a if ins.mat is None else regs[ins.mat], regs[ins.vec])
            vectors += 1
        else:
            z = np.subtract(regs[ins.lhs], regs[ins.rhs])
        regs.append(z)
        for slot in ins.drop:
            regs[slot] = None
    ctr.mmm += products if a.ndim == 2 else products * len(a)
    ctr.mvm += vectors
    return regs


def run_program(
    program: Program, inputs: list, a: np.ndarray, ctr: MulCounter, executor=None
) -> Sequence[np.ndarray]:
    """Run ``program`` on its ``inputs`` (a fresh list, in the order of
    ``program.inputs``) and the matrix A; returns its outputs in order,
    each a fresh array (an output that is an input, or that an earlier
    output already returned, is copied).

    Serially the whole code runs as one program.  With ``executor`` (any
    concurrent.futures executor) the two branches of a program with cuts
    run through :func:`run_branches`, each on its own copy of the register
    list and its own counter, merged in branch order: the branches share
    only read-only registers, so the results are bitwise those of the
    serial run and the counts the same.
    """
    code = program.code
    if executor is None or not program.cuts:
        regs = _execute(code, inputs, a, ctr)
    else:
        first, second, join = program.cuts
        regs = _execute(code[:first], inputs, a, ctr)
        pad = [None] * (second - first)
        ran = run_branches(
            ctr,
            executor,
            lambda c: _execute(code[first:second], regs.copy(), a, c),
            lambda c: _execute(code[second:join], regs + pad, a, c),
        )
        regs = _execute(code[join:], ran[0] + ran[1][len(ran[0]):], a, ctr)
    outputs = program.fetch(regs)
    if program.copies:
        outputs = list(outputs)
        for i in program.copies:
            outputs[i] = np.array(outputs[i])
    return outputs


def _run_plan(program, y, x, a, ctr) -> np.ndarray:
    """A plan's program on Y and X; a fresh array, a copy of X for the
    empty program."""
    if not (y.shape == x.shape == a.shape):
        raise ValueError(f"dimension mismatch: y {y.shape}, x {x.shape}, a {a.shape}")
    if not program:
        return np.array(x)
    return _execute(program, [y, x], a, ctr)[-1]


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
    (``plan.mmm_poly`` with ``form_y=False``), times k for operands
    stacked ``(k, n, n)``.

    With ``form_y`` Y is formed here as ``I - X A`` (one product) and
    checked against the supplied value, if any.
    """
    if x.shape != a.shape:
        raise ValueError(f"dimension mismatch: x {x.shape} vs a {a.shape}")
    if form_y:
        y_formed = residual_of(x, a, ctr)
        if y is not None and fro_norm(y_formed - y) > 1e-10 * (1.0 + fro_norm(y)):
            raise ValueError("supplied Y does not match I - X A")
        y = y_formed
    elif y is None:
        raise ValueError("y is required unless form_y=True")
    return _run_plan(plan.program, y, x, a, ctr)


def geometric_apply(
    y: np.ndarray,
    x: np.ndarray,
    order: int,
    a: np.ndarray,
    ctr: MulCounter,
) -> np.ndarray:
    """``S_order(Y) X`` for arbitrary order, Y supplied; the counter moves
    by the order's plan ``mmm_poly`` (see :func:`_geometric_plan`)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _run_plan(_geometric_plan(order).program, y, x, a, ctr)


@lru_cache(maxsize=128)
def _geometric_plan(order: int) -> FactorPlan:
    """The plan :func:`geometric_apply` runs: the searched plan up to
    ``MAX_PLAN_ORDER`` (order 1 is ``Horner(1)``, the empty program); above
    it, an even order 2t doubles the plan for t, ``S_2t = (I + Y^t) S_t``
    with ``Y^t = I - S_t X A`` from one ``Residual``, and an odd order
    wraps the order below it.  Built once per order."""
    if order <= MAX_PLAN_ORDER:
        return _best(order, _MAX_NESTING)
    if order % 2:
        return FactorPlan(PrimeWrap(_geometric_plan(order - 1).root))
    t = order // 2
    return FactorPlan(Split(p=t - 1, w=2, inner=_geometric_plan(t).root, outer=Horner(2)))


# ---------------------------------------------------------------------------
# Tabulated forms, orders 2..19 and 45.  Programs run in poly mode (Y given).
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
    # The showcase nested plan: a 3x3 split inner sum and the factored
    # quartic as the outer sum, ten products.
    45: (("h45", Split(p=8, w=5, inner=_split_node(2, 3), outer=_TABLE_FORMS["h5b"])),),
}

TABLE_LABELS: dict[int, tuple[str, ...]] = {
    order: tuple(label for label, _ in roots) for order, roots in _TABLE_ROOTS.items()
}


@lru_cache(maxsize=1)
def table_plans() -> Mapping[int, tuple[FactorPlan, ...]]:
    """Catalogue of tabulated factorization plans, keyed by order: 2..19
    and 45.

    Built once and shared by every caller, the plan search included, so it
    is read-only: a mapping proxy of tuples.
    """
    return MappingProxyType({
        order: tuple(FactorPlan(root) for _, root in roots)
        for order, roots in _TABLE_ROOTS.items()
    })


# ---------------------------------------------------------------------------
# Plan search.
# ---------------------------------------------------------------------------


def split_candidates(h: int) -> list[tuple[int, int]]:
    """All (p, w) with w (p + 1) == h, p >= 1, w >= 2, in increasing p."""
    return [(d - 1, h // d) for d in range(2, h // 2 + 1) if h % d == 0]


@lru_cache(maxsize=None)
def _best(h: int, budget: int) -> FactorPlan:
    """Minimal-count plan of order h within a nesting budget.

    The candidates are ranked by their lowered ``mmm_poly``; on a tie the
    first one listed wins: splits in increasing p, then the wrap of a prime
    order, then the table rows.  Horner is the fallback only when there is
    no candidate (h == 1 or budget 0): every split and wrap lowers to at
    most ``h - 1`` products, Horner's count, so Horner would never win.
    """
    cands: list[FactorPlan] = []
    if budget >= 1:
        pairs = split_candidates(h)
        for p, w in pairs:
            inner = _best(p + 1, budget - 1).root
            outer = _best(w, budget - 1).root
            cands.append(FactorPlan(Split(p=p, w=w, inner=inner, outer=outer)))
        if not pairs and h >= 3:  # h is prime
            cands.append(FactorPlan(PrimeWrap(_best(h - 1, budget).root)))
        cands += table_plans().get(h, ())
    if not cands:
        return FactorPlan(Horner(h))
    return min(cands, key=lambda plan: plan.mmm_poly)


@lru_cache(maxsize=None)
def plan_order(h: int) -> FactorPlan:
    """Minimal-count plan for order h (2..64).

    Composite orders search over every divisor pair (p, w) with nested
    sub-plans (including the tabulated forms) down to three nesting levels;
    prime orders wrap the plan for h - 1.  Ties go to the split with the
    smaller p.  Each order is searched and compiled once; later calls return
    the same plan object.
    """
    if h < 2:
        raise ValueError("plan_order requires h >= 2")
    if h > MAX_PLAN_ORDER:
        raise ValueError(f"plan_order supports h <= {MAX_PLAN_ORDER}")
    return _best(h, _MAX_NESTING)
