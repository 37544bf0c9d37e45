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

Like the inversion steps, each start and step function runs one lowered
program: the two-loop programs of ``newton_schulz`` spliced in, then the
weight's products and the theta update, whose ``MatVec`` instructions are
the counted matrix-vector products and whose ``Sub`` instructions the free
vector differences.  The recursive step's first call runs its own program,
which builds the carried weight before the common part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix_core import MulCounter, check_int
from .newton_schulz import DoubleNsState, _check_start, double_program, double_start_program
from .series_toolkit import MatVec, Mul, Program, Residual, Sub, _Builder, run_program
from .splitting import Splitting

__all__ = [
    "RichardsonState",
    "cumulative_exponent",
    "cumulative_exponent_closed",
    "initial_richardson",
    "recursive_program",
    "richardson_program",
    "richardson_recursive_step",
    "richardson_start_program",
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


# ---------------------------------------------------------------------------
# Programs: each start and step function is one lowered program, built once
# per (order, q) by splicing the two-loop programs of ``newton_schulz``.
# ---------------------------------------------------------------------------


def _theta_update(bld: _Builder, weight: int, theta: int, rhs: int) -> int:
    """theta - W (A theta - b): two counted mvm and two vector differences."""
    resid = bld.emit(Sub, bld.emit(MatVec, None, theta), rhs)
    return bld.emit(Sub, theta, bld.emit(MatVec, weight, resid))


@lru_cache(maxsize=128)
def richardson_start_program(p: int, w: int, order: int) -> Program:
    """Inputs (B, S^-1, b); outputs (G_0, F_0, L_0, R_0, theta_0): the
    two-loop start, then theta_0 = L_0 b."""
    bld = _Builder("B", "Sinv", "b")
    g, f, lead, accel_res = bld.call(double_start_program(p, w, order), 0, 1)
    return bld.build(g, f, lead, accel_res, bld.emit(MatVec, lead, 2))


@lru_cache(maxsize=128)
def richardson_program(order: int, q: int) -> Program:
    """Inputs (L, G, F, theta, b); outputs (G_k, F_k, L_k, R_k, theta_k):
    the two-loop step, the weight W = L_k + R_k S_q(F_k) G_k and
    theta_k = theta - W (A theta - b)."""
    bld = _Builder("L", "G", "F", "theta", "b")
    g, f, lead, accel_res = bld.call(double_program(order), 0, 1, 2)
    weight = bld.emit(Mul, accel_res, bld.horner(f, g, q), lead)
    return bld.build(g, f, lead, accel_res, _theta_update(bld, weight, 3, 4))


@lru_cache(maxsize=128)
def recursive_program(order: int, first: bool) -> Program:
    """The recursive step.  Later steps: inputs (L, R, Omega, P, theta, b),
    the carried weight Omega and sum P; the first step: inputs (L, R, G, F,
    theta, b), from which it builds P = S_n(F) G and Omega = L + R P first.
    Outputs (G_k, F_k, L_k, R_k, Omega_k, P_k, theta_k).

    After the shared S = I + R + ... + R^(n-1), two independent branches:
    G_k = S (Omega - P) + P, F_k = I - G_k A and P_k = S_n(F_k) G_k; and
    L_k = S L, R_k = I - L_k A.  The join forms Omega_k = L_k + R_k P_k and
    the theta update."""
    if first:
        bld = _Builder("L", "R", "G", "F", "theta", "b")
        ns_prev = bld.horner(3, 2, order)
        omega_prev = bld.emit(Mul, 1, ns_prev, 0)
        outs = bld.call(recursive_program(order, False), 0, 1, omega_prev, ns_prev, 4, 5)
        return bld.build(*outs)
    bld = _Builder("L", "R", "Omega", "P", "theta", "b")
    s_gamma = bld.power_sum(1, order)
    bld.cut()
    g = bld.emit(Mul, s_gamma, bld.emit(Sub, 2, 3), 3)
    f = bld.emit(Residual, g)
    ns_new = bld.horner(f, g, order)
    bld.cut()
    lead = bld.emit(Mul, s_gamma, 0)
    accel_res = bld.emit(Residual, lead)
    bld.cut()
    omega = bld.emit(Mul, accel_res, ns_new, lead)
    return bld.build(g, f, lead, accel_res, omega, ns_new, _theta_update(bld, omega, 4, 5))


# ---------------------------------------------------------------------------
# Start and step functions.
# ---------------------------------------------------------------------------


def initial_richardson(
    split: Splitting,
    b: np.ndarray,
    p: int = 0,
    w: int = 1,
    order: int = 2,
    q: int | None = None,
) -> RichardsonState:
    """Initialize with theta_0 = L_0 b from the two-loop inversion init
    (:func:`richardson_start_program`).  ``q``, like ``p``, ``w`` and
    ``order``, must be an integer (not bool)."""
    if q is None:
        q = order  # checked with order below
    else:
        check_int("q", q)
        if q < 1:
            raise ValueError("q must be >= 1")
    _check_start(p, w, order)
    if split.matrix.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {split.matrix.shape} @ {b.shape}")
    ctr = MulCounter()
    g, f, lead, accel_res, theta0 = run_program(
        richardson_start_program(p, w, order),
        [split.residual, split.precond, b],
        split.matrix,
        ctr,
    )
    inner = DoubleNsState(g, f, lead, accel_res, step=0, order=order, ctr=ctr)
    return RichardsonState(
        theta=theta0, inner=inner, q=q, omega=None, ns_part=None, step=0, ctr=ctr
    )


def _check_step(st: RichardsonState, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != st.theta.shape[0] or b.shape != st.theta.shape:
        raise ValueError("dimension mismatch")


def richardson_step(st: RichardsonState, a: np.ndarray, b: np.ndarray) -> RichardsonState:
    """Direct form: advance the inversion, build the weight, correct theta
    (:func:`richardson_program`)."""
    _check_step(st, a, b)
    prev = st.inner
    inputs = [prev.accel_estimate, prev.estimate, prev.residual, st.theta, b]
    g, f, lead, accel_res, theta = run_program(
        richardson_program(prev.order, st.q), inputs, a, st.ctr
    )
    inner = DoubleNsState(g, f, lead, accel_res, step=prev.step + 1, order=prev.order, ctr=st.ctr)
    return RichardsonState(
        theta=theta,
        inner=inner,
        q=st.q,
        omega=None,
        ns_part=None,
        step=st.step + 1,
        ctr=st.ctr,
    )


def richardson_recursive_step(
    st: RichardsonState, a: np.ndarray, b: np.ndarray, executor=None
) -> RichardsonState:
    """Recursive form, valid for q == n only (:func:`recursive_program`).

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
    _check_step(st, a, b)
    prev = st.inner
    if st.omega is None or st.ns_part is None:
        program = recursive_program(n, True)
        inputs = [prev.accel_estimate, prev.accel_residual, prev.estimate, prev.residual]
    else:
        program = recursive_program(n, False)
        inputs = [prev.accel_estimate, prev.accel_residual, st.omega, st.ns_part]
    inputs += [st.theta, b]
    g, f, lead, accel_res, omega, ns_part, theta = run_program(
        program, inputs, a, st.ctr, executor
    )
    inner = DoubleNsState(g, f, lead, accel_res, step=prev.step + 1, order=n, ctr=st.ctr)
    return RichardsonState(
        theta=theta,
        inner=inner,
        q=st.q,
        omega=omega,
        ns_part=ns_part,
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
