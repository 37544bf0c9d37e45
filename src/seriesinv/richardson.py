"""Parameter estimation for A theta = b with an inversion accelerator.

Each step advances the two-loop inversion iteration and applies the
combined weight

    theta_k = theta_(k-1) - [L_k + (I - L_k A) (I + F_k + ... + F_k^(q-1))
              G_k] (A theta_(k-1) - b)

which contracts the mismatch theta_k - theta_star by (I - L_k A) F_k^q, a
pure power of the splitting residual B.  With q == n the cumulative
exponent has a closed form (:func:`cumulative_exponent_closed`), and the
weight admits a recursive evaluation (:func:`richardson_recursive_step`)
that re-derives G_k from the previous step's weight with a single product
and splits the remaining work into two independent parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    MulCounter,
    identity_constant,
    mat_mul,
    mat_vec,
    residual_of,
    run_branches,
)
from .newton_schulz import DoubleNsState, double_ns_step, initial_double
from .series_toolkit import horner_eval
from .splitting import Splitting

__all__ = [
    "RichardsonState",
    "cumulative_exponent",
    "cumulative_exponent_closed",
    "initial_richardson",
    "richardson_recursive_step",
    "richardson_step",
    "step_exponent_general",
]


@dataclass
class RichardsonState:
    """Estimate theta_k plus the embedded inversion state.

    ``omega`` and ``ns_part`` are the recursive form's carry-overs (the
    previous combined weight and the previous geometric sum applied to the
    estimate); they stay None on the direct path and before the first
    recursive step.
    """

    theta: np.ndarray
    inner: DoubleNsState
    q: int
    omega: np.ndarray | None
    ns_part: np.ndarray | None
    step: int
    ctr: MulCounter


def initial_richardson(
    split: Splitting,
    b: np.ndarray,
    p: int = 0,
    w: int = 1,
    order: int = 2,
    q: int | None = None,
) -> RichardsonState:
    """Initialize with theta_0 = L_0 b from the two-loop inversion init."""
    if q is None:
        q = order  # initial_double checks order
    elif q < 1:
        raise ValueError("q must be >= 1")
    inner = initial_double(split, p, w, order)
    theta0 = mat_vec(inner.accel_estimate, b, inner.ctr)
    return RichardsonState(
        theta=theta0, inner=inner, q=q, omega=None, ns_part=None, step=0, ctr=inner.ctr
    )


def richardson_step(st: RichardsonState, a: np.ndarray, b: np.ndarray) -> RichardsonState:
    """Direct form: advance the inversion, build the weight, correct theta."""
    if a.shape[0] != st.theta.shape[0] or b.shape != st.theta.shape:
        raise ValueError("dimension mismatch")
    inner = double_ns_step(st.inner, a)
    sum_fg = horner_eval(inner.residual, inner.estimate, st.q, st.ctr)
    weight = mat_mul(inner.accel_residual, sum_fg, st.ctr)
    weight += inner.accel_estimate
    resid = mat_vec(a, st.theta, st.ctr) - b
    theta = st.theta - mat_vec(weight, resid, st.ctr)
    return RichardsonState(
        theta=theta,
        inner=inner,
        q=st.q,
        omega=None,
        ns_part=None,
        step=st.step + 1,
        ctr=st.ctr,
    )


def _power_sum(gamma: np.ndarray, n: int, ctr: MulCounter) -> np.ndarray:
    """I + gamma + ... + gamma^(n-1) in matrix form (n - 2 products), for
    one matrix or each matrix of a ``(k, n, n)`` stack."""
    acc = np.empty_like(gamma)
    acc[...] = identity_constant(gamma.shape[-1])
    cur = None
    for _ in range(n - 1):
        cur = gamma if cur is None else mat_mul(cur, gamma, ctr)
        acc += cur
    return acc


def richardson_recursive_step(
    st: RichardsonState, a: np.ndarray, b: np.ndarray, executor=None
) -> RichardsonState:
    """Recursive form, valid for q == n only.

    The step reuses the previous residual power as the new inner residual
    (no product), recovers G_k from the previous weight with one product,

        G_k = S (omega_prev - P_prev) + P_prev,
        S = I + R + ... + R^(n-1),  R = previous (I - L A),

    and otherwise mirrors the direct form.  After the shared S, the two
    halves (G_k with its sums, and the L update) are independent;
    ``executor`` runs them concurrently with bitwise-identical results.
    The first call after initialization also has to build the carried
    weight, which is why the per-step saving starts at the second step.
    """
    n = st.inner.order
    if st.q != n:
        raise ValueError("the recursive form requires q == n")
    if a.shape[0] != st.theta.shape[0] or b.shape != st.theta.shape:
        raise ValueError("dimension mismatch")
    prev = st.inner

    if st.omega is None or st.ns_part is None:
        ns_prev = horner_eval(prev.residual, prev.estimate, n, st.ctr)
        omega_prev = mat_mul(prev.accel_residual, ns_prev, st.ctr)
        omega_prev += prev.accel_estimate
    else:
        ns_prev, omega_prev = st.ns_part, st.omega

    # New inner residual: the previous step's residual power, no product.
    gamma = prev.accel_residual
    s_gamma = _power_sum(gamma, n, st.ctr)

    def estimate_part(ctr: MulCounter):
        g_new = mat_mul(s_gamma, omega_prev - ns_prev, ctr)
        g_new += ns_prev
        f_new = residual_of(g_new, a, ctr)
        ns_new = horner_eval(f_new, g_new, n, ctr)
        return g_new, f_new, ns_new

    def accel_part(ctr: MulCounter):
        l_new = mat_mul(s_gamma, prev.accel_estimate, ctr)
        return l_new, residual_of(l_new, a, ctr)

    (g_new, f_new, ns_new), (l_new, accel_res) = run_branches(
        st.ctr, executor, estimate_part, accel_part
    )

    omega_new = mat_mul(accel_res, ns_new, st.ctr)
    omega_new += l_new
    resid = mat_vec(a, st.theta, st.ctr) - b
    theta = st.theta - mat_vec(omega_new, resid, st.ctr)
    inner_new = DoubleNsState(
        estimate=g_new,
        residual=f_new,
        accel_estimate=l_new,
        accel_residual=accel_res,
        step=prev.step + 1,
        order=n,
        ctr=st.ctr,
    )
    return RichardsonState(
        theta=theta,
        inner=inner_new,
        q=st.q,
        omega=omega_new,
        ns_part=ns_new,
        step=st.step + 1,
        ctr=st.ctr,
    )


# ---------------------------------------------------------------------------
# Transient models: the mismatch contracts by B**e_k at step k.
# ---------------------------------------------------------------------------


def step_exponent_general(k: int, n: int, h: int, q: int) -> int:
    """Step-k mismatch exponent for general Neumann order q."""
    return h * ((k * n ** (k + 1) + n**k) * q + n ** (k + 1))


def cumulative_exponent(k: int, n: int, h: int, q: int | None = None) -> int:
    """Sum of per-step exponents over steps 1..k; ``q`` defaults to n."""
    q = n if q is None else q
    return sum(step_exponent_general(j, n, h, q) for j in range(1, k + 1))


def cumulative_exponent_closed(k: int, n: int, h: int) -> int:
    """Closed form of the cumulative exponent for q == n, n >= 2.

    The division by (n - 1)^2 must be exact in integer arithmetic; a
    non-zero remainder means the formula was fed invalid arguments.
    """
    if n < 2:
        raise ValueError("closed form requires n >= 2")
    if k < 1 or h < 1:
        raise ValueError("requires k >= 1 and h >= 1")
    num = h * n * n * (k * n ** (k + 2) - (k - 1) * n ** (k + 1) - 2 * n**k - n + 2)
    quo, rem = divmod(num, (n - 1) ** 2)
    if rem:
        raise ArithmeticError(f"closed form not divisible: {num} / {(n - 1) ** 2}")
    return quo
