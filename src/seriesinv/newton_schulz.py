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
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .matrix_core import MulCounter, mat_mul, residual_of, run_branches
from .series_toolkit import FactorPlan, factored_eval, geometric_apply, horner_eval, nested_eval
from .splitting import Splitting

__all__ = [
    "CompositeSpec",
    "DoubleNsState",
    "NsState",
    "additive_correction_step",
    "additive_exponents",
    "classical_exponent",
    "composite_exponent",
    "composite_step",
    "double_exponent",
    "double_ns_step",
    "initial_double",
    "initial_series",
    "ns_step",
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
    """Expansion rates x_i for the composite step, one per parallel unit."""

    rates: tuple[int, ...]

    def __post_init__(self):
        if not self.rates:
            raise ValueError("composite spec needs at least one rate")
        if not all(isinstance(x, Integral) and type(x) is not bool and x >= 1 for x in self.rates):
            raise ValueError("rates must be positive integers")


def initial_series(split: Splitting, p: int, w: int, order: int = 2) -> NsState:
    """Initial estimate G_0 = (I + B + ... + B^(h-1)) S^-1, h = w (p + 1).

    Evaluated through the factored form with B supplied by the splitting.
    For h == 1 this is just (S^-1, B) at no multiplication cost.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    h = w * (p + 1)
    ctr = MulCounter()
    if h == 1:
        g = np.array(split.precond)
        f = np.array(split.residual)
    else:
        g = factored_eval(
            split.residual, split.precond, split.matrix, p, w, ctr, form_y=False
        )
        f = residual_of(g, split.matrix, ctr)
    return NsState(estimate=g, residual=f, step=0, order=order, ctr=ctr)


def ns_step(st: NsState, a: np.ndarray, plan: FactorPlan | None = None) -> NsState:
    """One classical step G_k = (I + F + ... + F^(n-1)) G_(k-1).

    The geometric sum runs through Horner by default, or through ``plan``
    (which must have order n) for a cheaper multiplication count at high
    orders.  Residual law: F_k = F_(k-1)^n.
    """
    n = st.order
    if a.shape != st.estimate.shape:
        raise ValueError("dimension mismatch between state and matrix")
    if plan is None:
        g_new = horner_eval(st.residual, st.estimate, n, st.ctr)
    else:
        if plan.order_h != n:
            raise ValueError(f"plan order {plan.order_h} != iteration order {n}")
        g_new = nested_eval(st.residual, st.estimate, a, plan, st.ctr, form_y=False)
    f_new = residual_of(g_new, a, st.ctr)
    return NsState(estimate=g_new, residual=f_new, step=st.step + 1, order=n, ctr=st.ctr)


def composite_step(
    st: NsState,
    a: np.ndarray,
    split: Splitting,
    spec: CompositeSpec,
    order_n: int,
) -> NsState:
    """Composite step: precomputed series push extra residual powers in.

    Each unit contributes T_i = (I + B + ... + B^(x_i - 1)) S^-1 with
    residual I - T_i A = B^(x_i); the T_i are independent of each other and
    of the running state, so they can be computed on parallel units.  The
    step assembles

        G_k = T_comp + R_comp (I + F + ... + F^(n-1)) G_(k-1)

    with T_comp the residual-weighted sum of the T_i and R_comp the product
    of their residuals, giving F_k = B^(sum x_i) F_(k-1)^n.  ``order_n`` may
    be 1, which degenerates to G_k = T_comp + R_comp G_(k-1).
    """
    if order_n < 1:
        raise ValueError("order_n must be >= 1")
    ctr = st.ctr

    series: list[np.ndarray] = []
    residuals: list[np.ndarray] = []
    for rate in spec.rates:
        t_i = geometric_apply(split.residual, split.precond, rate, split.matrix, ctr)
        series.append(t_i)
        residuals.append(residual_of(t_i, a, ctr))

    t_comp = series[0]
    r_comp = residuals[0]
    for i in range(1, len(series)):
        weighted = mat_mul(r_comp, series[i], ctr)
        weighted += t_comp
        t_comp = weighted
        r_comp = mat_mul(r_comp, residuals[i], ctr)

    ns_part = horner_eval(st.residual, st.estimate, order_n, ctr)
    g_new = mat_mul(r_comp, ns_part, ctr)
    g_new += t_comp
    f_new = residual_of(g_new, a, ctr)
    return NsState(estimate=g_new, residual=f_new, step=st.step + 1, order=order_n, ctr=ctr)


def initial_double(split: Splitting, p: int, w: int, order: int = 2) -> DoubleNsState:
    """Initialize the two-loop iteration.

    The second loop starts from T_0 = G_0 with L_0 = (I + R + ... +
    R^(n-1)) T_0 where R = I - T_0 A; both precomputations are charged to
    the counter.
    """
    base = initial_series(split, p, w, order)
    ctr = base.ctr
    l0 = horner_eval(base.residual, base.estimate, order, ctr)
    accel_res = residual_of(l0, split.matrix, ctr)
    return DoubleNsState(
        estimate=base.estimate,
        residual=base.residual,
        accel_estimate=l0,
        accel_residual=accel_res,
        step=0,
        order=order,
        ctr=ctr,
    )


def double_ns_step(st: DoubleNsState, a: np.ndarray, executor=None) -> DoubleNsState:
    """One step of the two-loop iteration.

    The accelerator branch advances L and its residual power; the main
    branch forms the geometric sum of the old residual applied to the old
    estimate.  The branches share only read-only state, so ``executor``
    (any concurrent.futures executor) may run them simultaneously; results
    are merged in a fixed order and are bitwise identical to the serial
    path.  Residual law: F_k = (I - L_k A) F_(k-1)^n.
    """
    n = st.order

    def accel_branch(ctr: MulCounter):
        gamma = residual_of(st.accel_estimate, a, ctr)
        l_new = horner_eval(gamma, st.accel_estimate, n, ctr)
        return l_new, residual_of(l_new, a, ctr)

    def main_branch(ctr: MulCounter):
        return horner_eval(st.residual, st.estimate, n, ctr)

    (l_new, accel_res), ns_part = run_branches(st.ctr, executor, accel_branch, main_branch)

    g_new = mat_mul(accel_res, ns_part, st.ctr)
    g_new += l_new
    f_new = residual_of(g_new, a, st.ctr)
    return DoubleNsState(
        estimate=g_new,
        residual=f_new,
        accel_estimate=l_new,
        accel_residual=accel_res,
        step=st.step + 1,
        order=n,
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

    Error laws: L_k = L_(k-1)^p and F_k = F_(k-1) L_(k-1)^p.
    """
    if p < 2:
        raise ValueError("order p must be >= 2")
    l_prev = residual_of(z, a, ctr)
    z_new = horner_eval(l_prev, z, p, ctr)
    f_prev = residual_of(g, a, ctr)
    g_new = mat_mul(f_prev, z_new, ctr)
    g_new += g
    return z_new, g_new


# ---------------------------------------------------------------------------
# Integer exponent models: F_k = B**e under exact arithmetic.
# ---------------------------------------------------------------------------


def classical_exponent(k: int, n: int, h: int) -> int:
    """Classical law F_k = B^(h n^k)."""
    return h * n**k


def double_exponent(k: int, n: int, h: int) -> int:
    """Two-loop law F_k = B^(h (k n^(k+1) + n^k))."""
    return h * (k * n ** (k + 1) + n**k)


def composite_exponent(k: int, n: int, h: int, rates: tuple[int, ...]) -> int:
    """Composite law by recursion e_k = sum(x_i) + n e_(k-1), e_0 = h."""
    total = sum(rates)
    e = h
    for _ in range(k):
        e = total + n * e
    return e


def additive_exponents(k: int, p: int, h: int) -> tuple[int, int]:
    """(e_L, e_F) for the additive scheme: e_L doubles-loop at rate p,
    e_F_k = e_F_(k-1) + p e_L_(k-1)."""
    e_l, e_f = h, h
    for _ in range(k):
        e_f = e_f + p * e_l
        e_l = p * e_l
    return e_l, e_f
