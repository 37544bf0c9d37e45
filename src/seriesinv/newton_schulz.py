"""The high-order iterative inversion family.

All variants share one skeleton: an estimate G of A^-1 with residual
F = I - G A, driven by geometric sums of the residual.  Under exact
arithmetic every residual is an integer power of the splitting residual
B = I - S^-1 A, and each variant's power law is exposed here as an integer
formula (``*_exponent``) so tests can pin the measured matrices against
``B**e``.

Variants:

* classical step - F_k = F_(k-1)^n, so F_k = B^(h n^k);
* composite step - precomputable series T_i with residuals B^(x_i) multiply
  the error once per step: F_k = B^(sum x_i) F_(k-1)^n;
* double step - a second estimate L (same order n) whose residual power
  multiplies the main error every step: F_k = (I - L_k A) F_(k-1)^n, giving
  the much steeper exponent h (k n^(k+1) + n^k);
* additive correction step - two chained estimates Z and G where G is
  corrected additively; its error only picks up one factor of the old
  residual per step (F_k = F_(k-1) L_(k-1)^p), which the double step beats.

Every start and step function runs one lowered program (``*_program``)
through the executor of ``series_toolkit``: ``Mul`` / ``Residual`` / ``Lin``
instructions over named input slots, built once per order, rates or plan
by calling the plan programs the step sums with (the initial series'
split plan, ``plan_order(n)`` for ``ns_step(plan=)``, each composite rate's
``geometric_apply`` plan).  A program states its counted products and its
critical path, and runs as one compiled function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

from .matrix_core import MulCounter, check_int, int_keyed_cache
from .series_toolkit import (
    FactorPlan,
    MatVec,
    Mul,
    Program,
    Residual,
    _Builder,
    _geometric_plan,
    _split_plan,
    run_program,
)
from .splitting import Splitting

__all__ = [
    "CompositeSpec",
    "DoubleNsState",
    "NsState",
    "additive_correction_step",
    "additive_exponents",
    "additive_program",
    "classical_exponent",
    "composite_exponent",
    "composite_program",
    "composite_step",
    "double_exponent",
    "double_ns_step",
    "double_program",
    "double_start_program",
    "estimator_program",
    "initial_double",
    "initial_series",
    "ns_program",
    "ns_step",
    "series_program",
]


@dataclass
class NsState:
    """Snapshot of a single-loop iteration.

    ``estimate`` is G_k, ``residual`` is F_k = I - G_k A.  ``order`` is the
    step order n.  The counter is shared along the run.
    """

    estimate: np.ndarray
    residual: np.ndarray
    step: int
    order: int
    ctr: MulCounter


@dataclass
class DoubleNsState:
    """Snapshot of the two-loop iteration.

    ``accel_estimate`` is the second inverse estimate L_k and
    ``accel_residual`` its residual (I - L_k A), the factor that multiplies
    the main error each step.
    """

    estimate: np.ndarray
    residual: np.ndarray
    accel_estimate: np.ndarray
    accel_residual: np.ndarray
    step: int
    order: int
    ctr: MulCounter


@dataclass(frozen=True)
class CompositeSpec:
    """Expansion rates x_i for the composite step, one per parallel unit,
    given as any iterable of integers and held as a tuple of plain ints."""

    rates: tuple[int, ...]

    def __post_init__(self):
        rates = tuple(self.rates)
        if not rates:
            raise ValueError("composite spec needs at least one rate")
        if not all(isinstance(x, Integral) and type(x) is not bool and x >= 1 for x in rates):
            raise ValueError("rates must be positive integers")
        object.__setattr__(self, "rates", tuple(int(x) for x in rates))


# ---------------------------------------------------------------------------
# Programs.  Each start and step function is one lowered program, built
# once per (order, q, rates, plan) by calling the plan programs it sums
# with, and run by the one executor (``series_toolkit.run_program``).  The
# one matrix A a program reads is the ``a`` its step function is given (the
# splitting's matrix for a start function).
# ---------------------------------------------------------------------------


@cache
def series_program(series: Program) -> Program:
    """Inputs (B, S^-1); outputs (G_0, F_0): G_0 = S_h(B) S^-1 through the
    plan program ``series`` of the initial series, and F_0 = I - G_0 A.
    An empty plan program (order 1) gives (S^-1, B) with no product.
    Built once per plan program, which hashes by identity."""
    bld = _Builder("B", "Sinv")
    name = f"program series start, {series.name}"
    if not series.code:
        return bld.build(name, G=1, F=0)
    (g,) = bld.call(series, 0, 1)
    return bld.build(name, G=g, F=bld.emit(Residual, g))


@cache
def estimator_program(program: Program) -> Program:
    """Inputs those of ``program``, then b; outputs those of ``program``,
    then theta = G b (one counted mvm) of its output G.  Built once per
    program, which hashes by identity."""
    bld = _Builder(*program.inputs, "b")
    outputs = dict(zip(program.output_names, bld.call(program, *range(len(program.inputs)))))
    theta = bld.emit(MatVec, outputs["G"], len(program.inputs))
    return bld.build(f"{program.name}, theta = G b", **outputs, theta=theta)


@int_keyed_cache("order")
def double_start_program(order: int, series: Program) -> Program:
    """Inputs (B, S^-1); outputs (G_0, F_0, L_0, R_0): the series start,
    then L_0 = S_n(F_0) G_0 and R_0 = I - L_0 A."""
    bld = _Builder("B", "Sinv")
    g, f = bld.call(series_program(series), 0, 1)
    lead = bld.horner(f, g, order)
    name = f"program double:n{order} start, {series.name}"
    return bld.build(name, G=g, F=f, L=lead, R=bld.emit(Residual, lead))


def ns_program(order: int, plan: FactorPlan | None = None) -> Program:
    """Inputs (F, G); outputs (G_k, F_k): G_k = S_n(F) G through Horner, or
    through ``plan``, which must have order n, and F_k = I - G_k A.  Built
    once per order, and once per plan program."""
    if plan is not None and plan.order_h != order:
        raise ValueError(f"plan order {plan.order_h} != iteration order {order}")
    return _ns_program(order, None if plan is None else plan.program)


@int_keyed_cache("order")
def _ns_program(order: int, plan: Program | None) -> Program:
    # cached by the plan's program, which hashes by identity
    bld = _Builder("F", "G")
    if plan is None:
        g, name = bld.horner(0, 1, order), f"program ns:n{order} step"
    else:
        (g,), name = bld.call(plan, 0, 1), f"program ns:n{order} step, {plan.name}"
    return bld.build(name, G=g, F=bld.emit(Residual, g))


@int_keyed_cache("order_n")
def composite_program(order_n: int, rates: tuple[int, ...]) -> Program:
    """Inputs (F, G, B, S^-1); outputs (G_k, F_k).  Each unit's T_i runs
    the plan of ``geometric_apply`` on (B, S^-1), then R_i = I - T_i A,
    every residual against the one matrix A; the units are combined in
    order, and G_k = T_comp + R_comp S_n(F) G."""
    bld = _Builder("F", "G", "B", "Sinv")
    series, residuals = [], []
    for rate in rates:
        (t_i,) = bld.call(_geometric_plan(rate).program, 2, 3)
        series.append(t_i)
        residuals.append(bld.emit(Residual, t_i))
    t_comp, r_comp = series[0], residuals[0]
    for t_i, r_i in zip(series[1:], residuals[1:]):
        t_comp = bld.emit(Mul, r_comp, t_i, t_comp)
        r_comp = bld.emit(Mul, r_comp, r_i)
    ns_part = bld.horner(0, 1, order_n)
    g = bld.emit(Mul, r_comp, ns_part, t_comp)
    name = f"program composite:n{order_n}:r{'-'.join(map(str, rates))} step"
    return bld.build(name, G=g, F=bld.emit(Residual, g))


@int_keyed_cache("order")
def double_program(order: int) -> Program:
    """Inputs (L, G, F); outputs (G_k, F_k, L_k, R_k).  The accelerator
    forms Gamma = I - L A, L_k = S_n(Gamma) L and R_k = I - L_k A; the
    main sum, which does not depend on it, forms P = S_n(F) G; then
    G_k = L_k + R_k P and F_k = I - G_k A."""
    bld = _Builder("L", "G", "F")
    gamma = bld.emit(Residual, 0)
    lead = bld.horner(gamma, 0, order)
    accel_res = bld.emit(Residual, lead)
    ns_part = bld.horner(2, 1, order)
    g = bld.emit(Mul, accel_res, ns_part, lead)
    name = f"program double:n{order} step"
    return bld.build(name, G=g, F=bld.emit(Residual, g), L=lead, R=accel_res)


@int_keyed_cache("p")
def additive_program(p: int) -> Program:
    """Inputs (Z, G); outputs (Z_k, G_k): Z_k = S_p(I - Z A) Z and
    G_k = G + (I - G A) Z_k."""
    bld = _Builder("Z", "G")
    z = bld.horner(bld.emit(Residual, 0), 0, p)
    f_prev = bld.emit(Residual, 1)
    return bld.build(f"program additive:p{p} step", Z=z, G=bld.emit(Mul, f_prev, z, 1))


@cache
def _additive_start_program(series: Program) -> Program:
    """Inputs (B, S^-1); outputs (Z_0, G_0, F_0): the series start, its
    G_0 returned as both of the additive scheme's estimates (a copy, not a
    product)."""
    bld = _Builder("B", "Sinv")
    g, f = bld.call(series_program(series), 0, 1)
    return bld.build(f"program additive start, {series.name}", Z=g, G=g, F=f)


# ---------------------------------------------------------------------------
# Start and step functions.
# ---------------------------------------------------------------------------


def _start_series(p: int, w: int, order: int) -> Program:
    """The plan program of the initial series of order w (p + 1), once
    ``p``, ``w`` and ``order`` are checked."""
    for label, value in (("p", p), ("w", w), ("order", order)):
        check_int(label, value)
    if order < 1:
        raise ValueError("order must be >= 1")
    return _split_plan(p, w).program


def initial_series(split: Splitting, p: int, w: int, order: int = 2) -> NsState:
    """Initial estimate G_0 = (I + B + ... + B^(h-1)) S^-1, h = w (p + 1).

    Evaluated through the factored form with B supplied by the splitting,
    then F_0 = I - G_0 A (:func:`series_program`).  For h == 1 this is just
    (S^-1, B) at no multiplication cost.  ``p``, ``w`` and ``order`` must
    be integers (not bool).
    """
    program = series_program(_start_series(p, w, order))
    ctr = MulCounter()
    g, f = run_program(program, [split.residual, split.precond], split.matrix, ctr)
    return NsState(estimate=g, residual=f, step=0, order=order, ctr=ctr)


def ns_step(st: NsState, a: np.ndarray, plan: FactorPlan | None = None) -> NsState:
    """One classical step G_k = (I + F + ... + F^(n-1)) G_(k-1).

    The geometric sum runs through Horner by default, or through ``plan``
    (which must have order n) for a cheaper multiplication count at high
    orders (:func:`ns_program`).  Residual law: F_k = F_(k-1)^n.
    """
    n = st.order
    if a.shape != st.estimate.shape:
        raise ValueError("dimension mismatch between state and matrix")
    g, f = run_program(ns_program(n, plan), [st.residual, st.estimate], a, st.ctr)
    return NsState(estimate=g, residual=f, step=st.step + 1, order=n, ctr=st.ctr)


def composite_step(
    st: NsState,
    a: np.ndarray,
    split: Splitting,
    spec: CompositeSpec,
    order_n: int,
) -> NsState:
    """Composite step: precomputed series push extra residual powers in.

    Each unit contributes T_i = (I + B + ... + B^(x_i - 1)) S^-1 with
    residual I - T_i a = B^(x_i); the T_i are independent of each other and
    of the running state, so they can be computed on parallel units.  The
    step assembles

        G_k = T_comp + R_comp (I + F + ... + F^(n-1)) G_(k-1)

    with T_comp the residual-weighted sum of the T_i and R_comp the product
    of their residuals, giving F_k = B^(sum x_i) F_(k-1)^n.  ``order_n`` may
    be 1, which degenerates to G_k = T_comp + R_comp G_(k-1).  The whole
    step is one program (:func:`composite_program`), on the one matrix ``a``.
    """
    check_int("order_n", order_n)
    if order_n < 1:
        raise ValueError("order_n must be >= 1")
    inputs = [st.residual, st.estimate, split.residual, split.precond]
    g, f = run_program(composite_program(order_n, spec.rates), inputs, a, st.ctr)
    return NsState(estimate=g, residual=f, step=st.step + 1, order=order_n, ctr=st.ctr)


def initial_double(split: Splitting, p: int, w: int, order: int = 2) -> DoubleNsState:
    """Initialize the two-loop iteration.

    The second loop starts from T_0 = G_0 with L_0 = (I + R + ... +
    R^(n-1)) T_0 where R = I - T_0 A; both precomputations are charged to
    the counter (:func:`double_start_program`).
    """
    program = double_start_program(order, _start_series(p, w, order))
    ctr = MulCounter()
    g, f, lead, accel_res = run_program(program, [split.residual, split.precond], split.matrix, ctr)
    return DoubleNsState(
        estimate=g,
        residual=f,
        accel_estimate=lead,
        accel_residual=accel_res,
        step=0,
        order=order,
        ctr=ctr,
    )


def double_ns_step(st: DoubleNsState, a: np.ndarray, executor=None) -> DoubleNsState:
    """One step of the two-loop iteration.

    The accelerator advances L and its residual power; the main sum is
    the geometric sum of the old residual applied to the old estimate
    (:func:`double_program`).  ``executor`` (any concurrent.futures
    executor) gets :func:`run_program` as one task, so the step is bitwise
    the serial one.  Residual law: F_k = (I - L_k A) F_(k-1)^n.
    """
    args = (double_program(st.order), [st.accel_estimate, st.estimate, st.residual], a, st.ctr)
    out = run_program(*args) if executor is None else executor.submit(run_program, *args).result()
    g, f, lead, accel_res = out
    return DoubleNsState(
        estimate=g,
        residual=f,
        accel_estimate=lead,
        accel_residual=accel_res,
        step=st.step + 1,
        order=st.order,
        ctr=st.ctr,
    )


def additive_correction_step(
    z: np.ndarray,
    g: np.ndarray,
    a: np.ndarray,
    p: int,
    ctr: MulCounter,
) -> tuple[np.ndarray, np.ndarray]:
    """The two-estimate comparison scheme with additive correction.

    Z is refined by an order-p geometric sum of its own residual, then G is
    corrected by its residual times the refined Z:

        Z_k = (I + L + ... + L^(p-1)) Z_(k-1),   L = I - Z_(k-1) A
        G_k = G_(k-1) + (I - G_(k-1) A) Z_k

    Error laws: L_k = L_(k-1)^p and F_k = F_(k-1) L_(k-1)^p
    (:func:`additive_program`).
    """
    check_int("p", p)
    if p < 2:
        raise ValueError("order p must be >= 2")
    return run_program(additive_program(p), [z, g], a, ctr)


# ---------------------------------------------------------------------------
# Integer exponent models: F_k = B**e under exact arithmetic.
# ---------------------------------------------------------------------------


def classical_exponent(k: int, n: int, h: int) -> int:
    """Classical law F_k = B^(h n^k)."""
    k, n, h = check_int("k", k), check_int("n", n), check_int("h", h)
    return h * n**k


def double_exponent(k: int, n: int, h: int) -> int:
    """Two-loop law F_k = B^(h (k n^(k+1) + n^k))."""
    k, n, h = check_int("k", k), check_int("n", n), check_int("h", h)
    return h * (k * n ** (k + 1) + n**k)


def composite_exponent(k: int, n: int, h: int, rates: tuple[int, ...]) -> int:
    """Composite law e_k = sum(x_i) + n e_(k-1), e_0 = h, in closed form:
    e_k = h n^k + sum(x_i) (n^k - 1) / (n - 1), or h + k sum(x_i) at
    n = 1; h for k < 1.  The division is exact: n - 1 divides n^k - 1."""
    k, n, h = check_int("k", k), check_int("n", n), check_int("h", h)
    total = sum(check_int("rates", x) for x in rates)
    if k < 1:
        return h
    if n == 1:
        return h + k * total
    return h * n**k + total * (n**k - 1) // (n - 1)


def additive_exponents(k: int, p: int, h: int) -> tuple[int, int]:
    """(e_L, e_F) for the additive scheme, e_L_k = p e_L_(k-1) and
    e_F_k = e_F_(k-1) + p e_L_(k-1) from h and h, in closed form:
    e_L = h p^k and e_F = h + h p (p^k - 1) / (p - 1), or h + h k at
    p = 1; (h, h) for k < 1.  The division is exact."""
    k, p, h = check_int("k", k), check_int("p", p), check_int("h", h)
    if k < 1:
        return h, h
    e_f = h + h * k if p == 1 else h + h * p * (p**k - 1) // (p - 1)
    return h * p**k, e_f
