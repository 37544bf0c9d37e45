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

* :class:`FactorPlan` - a plan, which is a node: :class:`Horner`,
  :class:`Split`, :class:`PrimeWrap` or :class:`TableForm`, each built to
  its :class:`Program` when it is constructed by calling its children's
  programs; and :func:`nested_eval` to run it;
* :func:`factored_eval` - the baseline two-level evaluator with pinned
  multiplication counts;
* :func:`table_plans` - a catalogue of hand-factored evaluation DAGs for
  orders 2..19 and 45 (including the cheaper second variants for orders 5,
  9, 10, 11, the nested order-15 form and the ten-product order-45 plan);
* :func:`plan_order` - a bounded search for a minimal-count plan of any
  order up to 64;
* :class:`Program` and :func:`run_program` - the one lowered program
  type, and its one executor: a plan's program, and each start and step
  function of the iteration family, which calls the plan programs it sums
  with; each is compiled by :func:`_compile`, on its first run, to one
  straight-line Python function.

Two counting conventions appear throughout and are kept explicit: the
"full" count includes the product forming ``Y = I - X A``; the "poly" count
assumes Y is already available.  They always differ by exactly one.
"""

from __future__ import annotations

import linecache
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cache
from math import copysign
from types import MappingProxyType
from typing import Union

import numpy as np

from .matrix_core import (
    DOT_MAX_DIM,
    MulCounter,
    check_int,
    fro_norm,
    identity_constant,
    int_keyed_cache,
    residual_of,
)

__all__ = [
    "FactorPlan",
    "Horner",
    "PrimeWrap",
    "Program",
    "Split",
    "TABLE_LABELS",
    "TableForm",
    "factored_eval",
    "factored_mmm",
    "geometric_apply",
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
# Plans.  A plan is a node: it evaluates S_h(Y) X for its order h, given Y,
# and is built to its program when it is constructed.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorPlan:
    """A plan: the base of the four node kinds, :class:`Horner`,
    :class:`Split`, :class:`PrimeWrap` and :class:`TableForm`.

    A node checks its fields and builds its program when it is
    constructed (``ValueError``, and ``TypeError`` for a child that is not
    a plan); a node that holds another calls the child's program.  The two
    derived fields take no part in the constructor, comparison or repr:
    ``program``, a :class:`Program` with inputs ``("Y", "X")`` and one
    output ``Z``, is what every evaluation runs, and ``order_h`` is the
    node's order.  The counts are read from the program: ``mmm_poly`` is
    its ``mmm``, the count with Y supplied; ``mmm_cost`` is one more, the
    full-step count with the product forming Y.  ``efficiency_index`` is
    ``order_h ** (1 / mmm_cost)``.  Building a plan compiles nothing; the
    program is compiled on its first run.
    """

    order_h: int = field(init=False, repr=False, compare=False)
    program: Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bld = _Builder("Y", "X")
        result, order = self._emit(bld)
        object.__setattr__(self, "order_h", order)
        object.__setattr__(self, "program", bld.build(f"plan {plan_str(self)}", Z=result))

    @property
    def mmm_poly(self) -> int:
        return self.program.mmm

    @property
    def mmm_cost(self) -> int:
        return self.program.mmm + 1

    @property
    def efficiency_index(self) -> float:
        return float(self.order_h) ** (1.0 / self.mmm_cost)

    def _emit(self, bld: _Builder) -> tuple[int, int]:
        """Check the node and append its code to ``bld``, Y at slot 0 and X
        at slot 1; returns (result slot, order), the result the last
        instruction's slot (slot 1 if none)."""
        raise TypeError("a plan is a Horner, Split, PrimeWrap or TableForm node")


def _program_of(child) -> Program:
    if not isinstance(child, FactorPlan):
        raise TypeError(f"not a plan node: {child!r}")
    return child.program


@dataclass(frozen=True)
class Horner(FactorPlan):
    """Plain Horner recursion Z_i = Y Z_(i-1) + X."""

    order: int

    def _emit(self, bld):
        check_int("order", self.order)
        return bld.horner(0, 1, self.order), self.order


@dataclass(frozen=True)
class Split(FactorPlan):
    """Two-level factorization of order ``w * (p + 1)``.

    ``inner`` evaluates the (p+1)-term sum applied to X, ``outer`` the
    w-term sum in Q = Y^(p+1) applied to U, where Q = I - U A comes from
    one ``Residual``.  Either may be any plan of the matching order;
    Horner is the default leaf.
    """

    p: int
    w: int
    inner: FactorPlan
    outer: FactorPlan | None = None

    def _emit(self, bld):
        check_int("p", self.p)
        check_int("w", self.w)
        if self.p < 0 or self.w < 1:
            raise ValueError("Split requires p >= 0 and w >= 1")
        u = 1
        if self.p >= 1:
            (u,) = bld.call(_program_of(self.inner), 0, 1)
            if self.inner.order_h != self.p + 1:
                raise ValueError(f"Split inner order {self.inner.order_h} != p + 1 = {self.p + 1}")
        if self.w >= 2:
            if self.outer is None:
                raise ValueError("Split with w >= 2 needs an outer node")
            q = 0 if self.p == 0 else bld.emit(Residual, u)
            (u,) = bld.call(_program_of(self.outer), q, u)
            if self.outer.order_h != self.w:
                raise ValueError(f"Split outer order {self.outer.order_h} != w = {self.w}")
        return u, self.w * (self.p + 1)


@dataclass(frozen=True)
class PrimeWrap(FactorPlan):
    """Degree bump Z' = X + Y Z, raising the inner order by one."""

    inner: FactorPlan

    def _emit(self, bld):
        (z,) = bld.call(_program_of(self.inner), 0, 1)
        return bld.emit(Mul, 0, z, 1), self.inner.order_h + 1


# Straight-line program instructions.  A tabulated form is written in them
# over readable register names ("Y", "X", "y2", ...); every plan, and every
# start and step function of the iteration family, is lowered to them once
# over integer slots: the inputs first (a plan's Y is slot 0 and X slot 1),
# then instruction i writes slot (number of inputs) + i.  A program reads
# one matrix, A, which the executor is given beside the inputs: a
# ``Residual`` is against A, as is a ``MatVec`` whose ``mat`` is None.  An
# instruction holds only what it computes: which registers it reads for the
# last time is the compiler's to find (see :func:`_drops`), and its kind is
# its class.  ``renamed(f)`` is it with every register r read as f(r).
Reg = Union[str, int]


@dataclass(frozen=True, slots=True)
class Mul:
    """dst = lhs @ rhs (one counted product), plus register ``add`` if given."""

    dst: Reg
    lhs: Reg
    rhs: Reg
    add: Reg | None = None

    def reads(self) -> tuple[Reg, ...]:
        return (self.lhs, self.rhs) if self.add is None else (self.lhs, self.rhs, self.add)

    def renamed(self, f) -> "Mul":
        return Mul(f(self.dst), f(self.lhs), f(self.rhs), None if self.add is None else f(self.add))


@dataclass(frozen=True, slots=True)
class Residual:
    """dst = I - src @ A (one counted product)."""

    dst: Reg
    src: Reg

    def reads(self) -> tuple[Reg, ...]:
        return (self.src,)

    def renamed(self, f) -> "Residual":
        return Residual(f(self.dst), f(self.src))


@dataclass(frozen=True, slots=True)
class Lin:
    """Free linear combination dst = const * I + sum(coef * reg)."""

    dst: Reg
    const: float
    terms: tuple[tuple[float, Reg], ...]

    def reads(self) -> tuple[Reg, ...]:
        return tuple(reg for _, reg in self.terms)

    def renamed(self, f) -> "Lin":
        return Lin(f(self.dst), self.const, tuple((c, f(reg)) for c, reg in self.terms))


@dataclass(frozen=True, slots=True)
class MatVec:
    """dst = mat @ vec for a vector ``vec`` (one counted matrix-vector
    product); ``mat`` None is A."""

    dst: Reg
    mat: Reg | None
    vec: Reg

    def reads(self) -> tuple[Reg, ...]:
        return (self.vec,) if self.mat is None else (self.mat, self.vec)

    def renamed(self, f) -> "MatVec":
        return MatVec(f(self.dst), None if self.mat is None else f(self.mat), f(self.vec))


@dataclass(frozen=True, slots=True)
class Sub:
    """dst = lhs - rhs, free: the vector differences of a theta update and
    the carried-weight difference of the recursive Richardson step."""

    dst: Reg
    lhs: Reg
    rhs: Reg

    def reads(self) -> tuple[Reg, ...]:
        return (self.lhs, self.rhs)

    def renamed(self, f) -> "Sub":
        return Sub(f(self.dst), f(self.lhs), f(self.rhs))


Instr = Union[Mul, Residual, Lin, MatVec, Sub]


@dataclass(frozen=True)
class TableForm(FactorPlan):
    """A hand-factored evaluation DAG, stored as a straight-line program.

    ``code`` reads registers "Y" and "X" and leaves the result in the last
    instruction's destination.  Register names are local to the form, and
    its program renames them to slots.  Only ``Mul``, ``Residual`` and
    ``Lin`` are allowed, and each register an instruction reads must be
    "Y", "X" or an earlier destination; a form that breaks either rule
    raises ``ValueError`` when it is built.
    """

    label: str
    order: int
    code: tuple[Instr, ...]

    def _emit(self, bld):
        check_int("order", self.order)
        where, slots = f"table form {self.label!r}", {"Y": 0, "X": 1}
        z = 1
        for ins in self.code:
            if not isinstance(ins, (Mul, Residual, Lin)):
                raise ValueError(f"{where}: {ins!r} is not a Mul, Residual or Lin")
            for reg in ins.reads():
                if reg not in slots:
                    raise ValueError(f"{where}: {ins!r} reads {reg!r} before it is written")
            z = len(bld.inputs) + len(bld.code)
            # reads take the slots written before; a name written again
            # names the new slot from here on
            bld.code.append(replace(ins.renamed(slots.get), dst=z))
            slots[ins.dst] = z
        return z, self.order


@dataclass(frozen=True, eq=False)
class Program:
    """A lowered program: a plan's, or a start or step function's.

    ``inputs`` names the input slots, in order; ``code`` runs over them and
    over A, the matrix the executor is given beside them; ``outputs`` are
    the slots the function returns, and ``output_names`` their names, in
    the same order (a plan's one output is ``Z``).  ``mmm`` and ``mvm`` are
    the counted matrix-matrix and matrix-vector products one run adds (see
    :func:`_counts`).  ``name`` is what a traceback through its compiled
    code shows (``program double:n3 step``, ``plan table(h5b)``).  Built by
    :class:`_Builder`; run by :func:`run_program`, which compiles the code
    (:func:`_compile`) on the first run, and the function is kept here, as
    ``_run``.  A program compares and hashes by identity.
    """

    name: str
    inputs: tuple[str, ...]
    code: tuple[Instr, ...]
    outputs: tuple[int, ...]
    output_names: tuple[str, ...]
    mmm: int
    mvm: int
    _run: Callable | None = field(default=None, init=False, repr=False)

    @property
    def depth(self) -> int:
        """The critical path: the most matrix-matrix products on any chain
        of dependent instructions, from an input to an output."""
        depth = [0] * len(self.inputs)
        for ins in self.code:
            longest = max((depth[reg] for reg in ins.reads()), default=0)
            depth.append(longest + isinstance(ins, (Mul, Residual)))
        return max((depth[out] for out in self.outputs), default=0)


def _counts(code) -> tuple[int, int]:
    """The one count rule: ``(mmm, mvm)`` of one run of ``code``, one mmm
    per ``Mul`` and ``Residual`` and one mvm per ``MatVec``."""
    kinds = [type(ins) for ins in code]
    return kinds.count(Mul) + kinds.count(Residual), kinds.count(MatVec)


class _Builder:
    """Emits one straight-line program over integer slots: the named
    inputs first, then instruction i writes slot ``len(inputs) + i``."""

    def __init__(self, *inputs: str):
        self.inputs = inputs
        self.code: list[Instr] = []

    def emit(self, instr, *args) -> int:
        dst = len(self.inputs) + len(self.code)
        self.code.append(instr(dst, *args))
        return dst

    def call(self, program: Program, *slots: int) -> list[int]:
        """Append ``program`` with input i read from ``slots[i]``; it reads
        the same A.  Returns the slots of its outputs."""
        base = len(self.inputs) + len(self.code)
        rename = [*slots, *range(base, base + len(program.code))].__getitem__
        self.code += [ins.renamed(rename) for ins in program.code]
        return [rename(out) for out in program.outputs]

    def horner(self, y: int, x: int, order: int) -> int:
        """``(I + Y + ... + Y^(order-1)) X`` in ``order - 1`` products;
        every Horner sum is built here, so an order below 1 fails here."""
        if order < 1:
            raise ValueError("Horner order must be >= 1")
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

    def build(self, name: str, **outputs: int) -> Program:
        """The program ``name`` with its outputs named by keyword, in order
        (``G=g, F=f``), and its counts.  Each slot is written once."""
        code = tuple(self.code)
        mmm, mvm = _counts(code)
        return Program(name, self.inputs, code, tuple(outputs.values()), tuple(outputs), mmm, mvm)


def plan_str(plan: FactorPlan) -> str:
    """Canonical one-line text form, used by the CLI and golden tests."""
    if isinstance(plan, Horner):
        return f"horner(h={plan.order})"
    if isinstance(plan, Split):
        parts = [f"p={plan.p},w={plan.w}"]
        if plan.p >= 1 and not isinstance(plan.inner, Horner):
            parts.append(f"inner={plan_str(plan.inner)}")
        if plan.w >= 2 and plan.outer is not None and not isinstance(plan.outer, Horner):
            parts.append(f"outer={plan_str(plan.outer)}")
        return "split(" + ", ".join(parts) + ")"
    if isinstance(plan, PrimeWrap):
        return f"wrap({plan_str(plan.inner)})"
    if isinstance(plan, TableForm):
        return f"table({plan.label})"
    raise TypeError(f"not a plan node: {plan!r}")


# ---------------------------------------------------------------------------
# Evaluators.
# ---------------------------------------------------------------------------


@int_keyed_cache("p", "w")
def _split_plan(p: int, w: int) -> Split:
    """The plain two-level split with Horner stages, the plan behind
    :func:`factored_mmm`, :func:`factored_eval` and the initial series."""
    return Split(p=p, w=w, inner=Horner(p + 1), outer=Horner(w) if w >= 2 else None)


def factored_mmm(p: int, w: int) -> int:
    """Full-step multiplication count of the two-level factorization.

    ``p + w + 1`` in general, dropping the stage that degenerates:
    ``p + 1`` when w == 1 (no outer sum), ``w`` when p == 0 (inner sum is
    just X).
    """
    return _split_plan(p, w).mmm_cost


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


# The names the compiled code reads besides its arguments: numpy's
# functions, bound once, and the two names a float constant's repr may use.
_COMPILED_GLOBALS = {
    "add": np.add,
    "array": np.array,
    "dot": np.ndarray.dot,
    "empty_like": np.empty_like,
    "identity_constant": identity_constant,
    "inf": float("inf"),
    "matmul": np.matmul,
    "multiply": np.multiply,
    "nan": float("nan"),
    "subtract": np.subtract,
}


def _drops(code, outputs) -> list[list[int]]:
    """Liveness: for each instruction of ``code``, the slots it reads for
    the last time, ``outputs`` excepted, in the order they are first
    read.  Once it has run, the compiled code lets go of them, so only
    live arrays are kept."""
    last_read = {reg: i for i, ins in enumerate(code) for reg in ins.reads()}
    drops: list[list[int]] = [[] for _ in code]
    for reg, i in last_read.items():
        if reg not in outputs:
            drops[i].append(reg)
    return drops


def _statements(ins: Instr) -> list[str]:
    """The Python statements of one instruction.  Register r is the local
    ``rN`` for slot N; ``a`` is the matrix A."""
    dst = f"r{ins.dst}"
    if isinstance(ins, Mul):
        lines = [f"{dst} = mul(r{ins.lhs}, r{ins.rhs})"]
        if ins.add is not None:
            lines.append(f"{dst} += r{ins.add}")
    elif isinstance(ins, Residual):
        lines = [f"{dst} = mul(r{ins.src}, a)", f"subtract(eye, {dst}, out={dst})"]
    elif isinstance(ins, Lin):
        # A coefficient of 1.0 adds its register without a multiply; a
        # constant of 1.0 or +0.0 starts from the first term, I + t or
        # t + 0.0 (which turns a -0.0 of t into +0.0, as that sum does),
        # instead of from const * I.
        def term(coef, slot):
            return f"r{slot}" if coef == 1.0 else f"{float(coef)!r} * r{slot}"

        const, terms = ins.const, ins.terms
        if terms and (const == 1.0 or (const == 0.0 and copysign(1.0, const) > 0.0)):
            first = term(*terms[0])
            start = f"add(eye, {first})" if const == 1.0 else f"add({first}, 0.0)"
            terms = terms[1:]
        else:
            start = f"multiply(eye, {float(const)!r}, out=empty_like(a))"
        lines = [f"{dst} = {start}", *(f"{dst} += {term(*t)}" for t in terms)]
    elif isinstance(ins, MatVec):
        mat = "a" if ins.mat is None else f"r{ins.mat}"
        lines = [f"{dst} = matmul({mat}, r{ins.vec})"]
    else:
        lines = [f"{dst} = subtract(r{ins.lhs}, r{ins.rhs})"]
    return lines


def _compile(program: Program) -> Callable:
    """The one executor: ``program`` compiled to ``run(*inputs, a, ctr)``,
    kept on it as ``_run``: one statement per instruction (two for a
    product with an addend or a ``Residual``), then the count, then the
    return of its outputs in order, each a fresh array (an output that is
    an input, or that repeats an earlier output, is copied).

    Every program runs this way, through :func:`run_program`: each plan's
    (for :func:`nested_eval`, :func:`factored_eval` and
    :func:`geometric_apply`), and each start and step function's of the
    iteration family.  Operands are ``(n, n)``
    matrices, or ``(k, n, n)`` stacks of one shape (every instance in one
    pass, each bitwise equal to its own 2-D run), and vectors for
    ``MatVec`` and ``Sub``.  Registers are locals, and after each
    instruction the slots it reads for the last time (:func:`_drops`) are
    set to None, so only live arrays are kept.  Each product runs as
    :func:`mat_mul` runs it (``ndarray.dot`` on ``(n, n)`` operands with
    2 <= n <= ``DOT_MAX_DIM``, ``np.matmul`` on all others; the function
    is picked once per call, from A, not per instruction) and the
    program's ``mmm`` and ``mvm`` are added to the counter once the code
    has run, one per n x n product.  ``Residual`` forms ``I - src A`` in
    the product's buffer, as :func:`residual_of` does.  ``MatVec`` is
    ``np.matmul(mat, vec)``, one mvm, and ``Sub`` is ``lhs - rhs``.  A
    ``Lin`` is fused, bitwise equal to ``const * I`` plus each ``coef *
    reg`` in turn, signed zeros included (see :func:`_statements`).  Every
    register an instruction writes is a fresh array, so inputs are never
    written.

    The source is registered under the filename ``<name>``, so a traceback
    through the code names the program and shows its line.  Threads that
    race on a first run each compile an equal function.
    """
    code, outputs, inputs = program.code, program.outputs, len(program.inputs)
    body = []
    if program.mmm:
        body.append(f"mul = dot if a.ndim == 2 and 1 < a.shape[1] <= {DOT_MAX_DIM} else matmul")
    if any(isinstance(ins, (Residual, Lin)) for ins in code):
        body.append("eye = identity_constant(a.shape[-1])")
    for ins, drop in zip(code, _drops(code, outputs)):
        body += _statements(ins)
        if drop:
            body.append(" = ".join(f"r{slot}" for slot in drop) + " = None")
    if program.mmm:
        body.append(f"ctr.mmm += {program.mmm} if a.ndim == 2 else {program.mmm} * len(a)")
    if program.mvm:
        body.append(f"ctr.mvm += {program.mvm}")
    returned = [
        f"array(r{out})" if out < inputs or out in outputs[:i] else f"r{out}"
        for i, out in enumerate(outputs)
    ]
    body.append(f"return ({', '.join(returned)},)")
    params = ", ".join(f"r{slot}" for slot in range(inputs))
    source = f"def run({params}, a, ctr):\n" + "".join(f"    {line}\n" for line in body)
    lines = source.splitlines(True)
    # Two programs with one name (table forms that share a label) each
    # keep their own source under a numbered filename.
    filename, copy = f"<{program.name}>", 1
    while linecache.cache.setdefault(filename, (len(source), None, lines, filename))[2] != lines:
        copy += 1
        filename = f"<{program.name} #{copy}>"
    namespace: dict = {}
    exec(compile(source, filename, "exec"), _COMPILED_GLOBALS, namespace)
    run = namespace["run"]
    object.__setattr__(program, "_run", run)
    return run


def run_program(
    program: Program, inputs: list, a: np.ndarray, ctr: MulCounter
) -> Sequence[np.ndarray]:
    """Run ``program`` on its ``inputs`` (in the order of
    ``program.inputs``) and the matrix A; returns its outputs in order,
    each a fresh array (an output that is an input, or that an earlier
    output already returned, is copied).  The code is compiled by
    :func:`_compile` on the program's first run, and every program runs
    as that one function, in one call.
    """
    return (program._run or _compile(program))(*inputs, a, ctr)


def _run_plan(plan: FactorPlan, y, x, a, ctr) -> np.ndarray:
    """A plan's program on Y and X, run serially by :func:`run_program`;
    a fresh array, a copy of X for the empty program."""
    if not (y.shape == x.shape == a.shape):
        raise ValueError(f"dimension mismatch: y {y.shape}, x {x.shape}, a {a.shape}")
    return run_program(plan.program, [y, x], a, ctr)[0]


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
    return _run_plan(plan, y, x, a, ctr)


def geometric_apply(
    y: np.ndarray,
    x: np.ndarray,
    order: int,
    a: np.ndarray,
    ctr: MulCounter,
) -> np.ndarray:
    """``S_order(Y) X`` for arbitrary order, Y supplied; the counter moves
    by the order's plan ``mmm_poly`` (see :func:`_geometric_plan`)."""
    check_int("order", order)
    if order < 1:
        raise ValueError("order must be >= 1")
    return _run_plan(_geometric_plan(order), y, x, a, ctr)


@int_keyed_cache("order")
def _geometric_plan(order: int) -> FactorPlan:
    """The plan :func:`geometric_apply` runs: the searched plan up to
    ``MAX_PLAN_ORDER`` (order 1 is ``Horner(1)``, the empty program); above
    it, an even order 2t doubles the plan for t, ``S_2t = (I + Y^t) S_t``
    with ``Y^t = I - S_t X A`` from one ``Residual``, and an odd order
    wraps the order below it.  Built once per order."""
    if order <= MAX_PLAN_ORDER:
        return _best(order, _MAX_NESTING)
    if order % 2:
        return PrimeWrap(_geometric_plan(order - 1))
    t = order // 2
    return Split(p=t - 1, w=2, inner=_geometric_plan(t), outer=Horner(2))


# ---------------------------------------------------------------------------
# Tabulated forms, orders 2..19 and 45.  Programs run in poly mode (Y given).
# ---------------------------------------------------------------------------


# The rows whose cheapest evaluation is a special DAG, not a plain split or
# wrap: powers by squaring and folded factors get reused.
_TABLE_FORMS = {form.label: form for form in (
    # (I + Y + Y^2 + Y^2 (Y + Y^2)) X
    TableForm("h5b", 5, (
        Mul("y2", "Y", "Y"),
        Lin("s", 0.0, ((1.0, "Y"), (1.0, "y2"))),
        Mul("t", "y2", "s"),
        Lin("m", 1.0, ((1.0, "Y"), (1.0, "y2"), (1.0, "t"))),
        Mul("z", "m", "X"),
    )),
    # (I + (Y + Y^4)(I + Y + Y^2)) X
    TableForm("h7", 7, (
        Mul("y2", "Y", "Y"),
        Mul("y4", "y2", "y2"),
        Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y4"))),
        Lin("f2", 1.0, ((1.0, "Y"), (1.0, "y2"))),
        Mul("w", "f1", "f2"),
        Mul("t", "w", "X"),
        Lin("z", 0.0, ((1.0, "X"), (1.0, "t"))),
    )),
    # (I + Y^4)(I + Y^2)(I + Y) X  -- the residual trick applied twice
    TableForm("h8", 8, (
        Mul("c0", "Y", "X"),
        Lin("c1", 0.0, ((1.0, "X"), (1.0, "c0"))),
        Residual("q2", "c1"),
        Mul("c2", "q2", "c1"),
        Lin("c3", 0.0, ((1.0, "c1"), (1.0, "c2"))),
        Residual("q4", "c3"),
        Mul("c4", "q4", "c3"),
        Lin("z", 0.0, ((1.0, "c3"), (1.0, "c4"))),
    )),
    # (I + (I + Y^4)(I + Y^2)(Y + Y^2)) X
    TableForm("h9b", 9, (
        Mul("y2", "Y", "Y"),
        Mul("y4", "y2", "y2"),
        Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y2"))),
        Lin("f2", 1.0, ((1.0, "y2"),)),
        Mul("w1", "f2", "f1"),
        Lin("f3", 1.0, ((1.0, "y4"),)),
        Mul("w2", "f3", "w1"),
        Mul("t", "w2", "X"),
        Lin("z", 0.0, ((1.0, "X"), (1.0, "t"))),
    )),
    # (I + Y^5)(I + (Y + Y^2)(I + Y^2)) X
    TableForm("h10b", 10, (
        Mul("y2", "Y", "Y"),
        Lin("f1", 0.0, ((1.0, "Y"), (1.0, "y2"))),
        Lin("f2", 1.0, ((1.0, "y2"),)),
        Mul("w", "f1", "f2"),
        Mul("t0", "w", "X"),
        Lin("u", 0.0, ((1.0, "X"), (1.0, "t0"))),
        Residual("q5", "u"),
        Mul("t1", "q5", "u"),
        Lin("z", 0.0, ((1.0, "u"), (1.0, "t1"))),
    )),
    # (I + Y (I + (Y^2 + Y^4)(I + Y^4))(I + Y)) X
    TableForm("h11b", 11, (
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
    )),
    # (I + (I + (Y^3)^2)((Y^3)^2 + Y^3))(I + Y + Y^2) X  -- nested form
    TableForm("h15b", 15, (
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
    )),
    # (I + (Y + Y^2 + Y^3 + Y^4)(I + Y^4 + Y^8 + Y^12)) X
    TableForm("h17", 17, (
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
    )),
    # (I + (Y + Y^2)(I + Y^2 + Y^4)(I + Y^6 + Y^12)) X
    TableForm("h19", 19, (
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
    )),
)}


# Catalogue of tabulated factorizations, keyed by order.  Rows whose stated
# form is the plain two-level split (or its degree bump) use the generic
# nodes; the folded forms use their explicit programs.
_TABLE_ROWS: dict[int, tuple[tuple[str, FactorPlan], ...]] = {
    2: (("h2", _split_plan(1, 1)),),
    3: (("h3", PrimeWrap(_split_plan(1, 1))),),
    4: (("h4", _split_plan(1, 2)),),
    5: (("h5a", PrimeWrap(_split_plan(1, 2))), ("h5b", _TABLE_FORMS["h5b"])),
    6: (("h6", _split_plan(2, 2)),),
    7: (("h7", _TABLE_FORMS["h7"]),),
    8: (("h8", _TABLE_FORMS["h8"]),),
    9: (("h9a", _split_plan(2, 3)), ("h9b", _TABLE_FORMS["h9b"])),
    10: (("h10a", PrimeWrap(_split_plan(2, 3))), ("h10b", _TABLE_FORMS["h10b"])),
    11: (("h11a", PrimeWrap(_TABLE_FORMS["h10b"])), ("h11b", _TABLE_FORMS["h11b"])),
    12: (("h12", _split_plan(3, 3)),),
    13: (("h13", PrimeWrap(_split_plan(3, 3))),),
    14: (("h14", _split_plan(6, 2)),),
    15: (("h15a", _split_plan(2, 5)), ("h15b", _TABLE_FORMS["h15b"])),
    16: (("h16", _split_plan(3, 4)),),
    17: (("h17", _TABLE_FORMS["h17"]),),
    18: (("h18", _split_plan(5, 3)),),
    19: (("h19", _TABLE_FORMS["h19"]),),
    # The showcase nested plan: a 3x3 split inner sum and the factored
    # quartic as the outer sum, ten products.
    45: (("h45", Split(p=8, w=5, inner=_split_plan(2, 3), outer=_TABLE_FORMS["h5b"])),),
}

TABLE_LABELS: dict[int, tuple[str, ...]] = {
    order: tuple(label for label, _ in rows) for order, rows in _TABLE_ROWS.items()
}

_TABLE_PLANS: Mapping[int, tuple[FactorPlan, ...]] = MappingProxyType({
    order: tuple(plan for _, plan in rows) for order, rows in _TABLE_ROWS.items()
})


def table_plans() -> Mapping[int, tuple[FactorPlan, ...]]:
    """Catalogue of tabulated factorization plans, keyed by order: 2..19
    and 45.

    Built at import and shared by every caller, the plan search included,
    so it is read-only: a mapping proxy of tuples.
    """
    return _TABLE_PLANS


# ---------------------------------------------------------------------------
# Plan search.
# ---------------------------------------------------------------------------


def split_candidates(h: int) -> list[tuple[int, int]]:
    """All (p, w) with w (p + 1) == h, p >= 1, w >= 2, in increasing p."""
    check_int("h", h)
    return [(d - 1, h // d) for d in range(2, h // 2 + 1) if h % d == 0]


@cache
def _best(h: int, budget: int) -> FactorPlan:
    """Minimal-count plan of order h within a nesting budget.

    The candidates are built plans, ranked by ``mmm_poly``, the count of
    their programs; on a tie the first one listed wins: splits in
    increasing p, then the wrap of a prime order, then the table rows.
    Horner is the fallback only when there is no candidate (h == 1 or
    budget 0): every split and wrap lowers to at most ``h - 1`` products,
    Horner's count, so Horner would never win.
    """
    cands: list[FactorPlan] = []
    if budget >= 1:
        pairs = split_candidates(h)
        cands += [
            Split(p=p, w=w, inner=_best(p + 1, budget - 1), outer=_best(w, budget - 1))
            for p, w in pairs
        ]
        if not pairs and h >= 3:  # h is prime
            cands.append(PrimeWrap(_best(h - 1, budget)))
        cands += table_plans().get(h, ())
    if not cands:
        return Horner(h)
    return min(cands, key=lambda plan: plan.mmm_poly)


@int_keyed_cache("h")
def plan_order(h: int) -> FactorPlan:
    """Minimal-count plan for order h (2..64).

    Composite orders search over every divisor pair (p, w) with nested
    sub-plans (including the tabulated forms) down to three nesting levels;
    prime orders wrap the plan for h - 1.  Ties go to the split with the
    smaller p.  Each order is searched once; later calls return the same
    plan object, whose program is compiled on its first run.
    """
    if h < 2:
        raise ValueError("plan_order requires h >= 2")
    if h > MAX_PLAN_ORDER:
        raise ValueError(f"plan_order supports h <= {MAX_PLAN_ORDER}")
    return _best(h, _MAX_NESTING)
