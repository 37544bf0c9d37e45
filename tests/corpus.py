"""Shared random test-matrix builders and oracle helpers.

The exponent-law tests compare measured residuals against mat_pow(B, e)
with e up to a few thousand, so the corpora control rho(B) tightly: the
comparison is only meaningful while ||B**e|| sits well above float noise.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from seriesinv import fro_norm, inf_norm, square_matrix
from seriesinv.harness import CHECK_MAX_ORDER, CHECK_REL_TOL, MethodSpec, series_params
from seriesinv.matrix_core import (
    MulCounter,
    fro_norms,
    identity_constant,
    mat_mul,
    residual_of,
    subtract_from_identity,
)
from seriesinv.series_toolkit import (
    TABLE_LABELS,
    Mul,
    Residual,
    _Builder,
    factored_mmm,
    nested_eval,
    plan_order,
    run_program,
    table_plans,
)
from seriesinv.splitting import split_scalar


def random_spd(dim, rng, shift=0.5):
    """Generic well-conditioned SPD matrix."""
    m = rng.standard_normal((dim, dim))
    return square_matrix(m @ m.T / dim + shift * np.eye(dim))


def random_sdd(dim, rng, margin=0.2):
    """Generic symmetric strictly diagonally dominant matrix (positive diag)."""
    off = rng.uniform(0.2, 1.0, (dim, dim))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    row = off.sum(axis=1)
    diag = row / (1.0 - margin)
    return square_matrix(np.diag(diag) - off)


def sdd_system(dim, rho, rng, jitter=0.0):
    """SDD matrix whose diagonal splitting has rho(B) ~= rho (exact for
    jitter == 0).

    Built as A = D - W with W symmetric positive and every row sum balanced
    to rho (symmetric Sinkhorn-style scaling), so the Perron root of W is
    exactly rho.  A diagonal jitter makes B = S^-1 W slightly nonsymmetric
    and perturbs rho downward by at most the jitter.
    """
    w = rng.uniform(0.5, 1.5, (dim, dim))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    for _ in range(200):
        scale = np.sqrt(w.sum(axis=1) / rho)
        w = w / np.outer(scale, scale)
    diag = 1.0 + jitter * rng.uniform(0.0, 1.0, dim)
    return square_matrix(np.diag(diag) - w)


@dataclass(frozen=True, eq=False)
class DiagonalSplit:
    """A read-only splitting record: the step functions read only these
    three fields of a splitting."""

    matrix: np.ndarray
    precond: np.ndarray
    residual: np.ndarray


def diagonal_split(a):
    """The splitting S = diag(A).  Its residual B = I - S^-1 A is
    nonsymmetric unless diag(A) is constant, and rho(B) < 1 when A is
    strictly diagonally dominant with a positive diagonal, as the
    ``random_sdd`` and ``sdd_system`` matrices are."""
    d = np.diag(a)
    precond = identity_constant(a.shape[-1]) * (1.0 / d)
    residual = subtract_from_identity(a / d[:, None])
    for arr in (precond, residual):
        arr.flags.writeable = False
    return DiagonalSplit(a, precond, residual)


def step_exponent_qn(k, n, h):
    """Step-k mismatch exponent for q == n, the paper's closed form of
    ``step_exponent_general(k, n, h, n)``."""
    return h * (k * n ** (k + 2) + 2 * n ** (k + 1))


def parse_mmm_surface(text):
    """The rows of ``emit_mmm_surface``'s CSV as ``(p, w, h, mmm)``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "p,w,h,mmm":
        raise ValueError("missing or unexpected CSV header")
    return [tuple(int(tok) for tok in ln.split(",")) for ln in lines[1:]]


def parse_exponent_surface(text):
    """The rows of ``emit_exponent_surface``'s CSV as ``(n, k, exponent_new,
    exponent_baseline, rho_pow_new, rho_pow_baseline)``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = "n,k,exponent_new,exponent_baseline,rho_pow_new,rho_pow_baseline"
    if not lines or lines[0] != header:
        raise ValueError("missing or unexpected CSV header")
    out = []
    for ln in lines[1:]:
        n, k, e_new, e_base, r_new, r_base = ln.split(",")
        out.append(
            (int(n), int(k), int(e_new), float(e_base), float(r_new), float(r_base))
        )
    return out


def contractive_scalar_system(dim, rho, rng):
    """(A, eps) such that split_scalar(A, eps) yields a symmetric residual
    B with spectral radius exactly rho and alpha == 1."""
    for _ in range(100):
        m = rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(m)
        eigs = rng.uniform(-0.6 * rho, 0.6 * rho, dim)
        eigs[0] = rho
        b = (q * eigs) @ q.T
        b = (b + b.T) / 2.0
        a = np.eye(dim) - b
        eps = 1.0 - inf_norm(a) / 2.0
        if eps > 1e-6:
            return square_matrix(a), float(eps)
    raise RuntimeError("could not build a contractive system")


def mat_pow(a, e):
    """``a**e`` by binary exponentiation, ``a**0 == I``.

    Deliberately uncounted: the oracle the closed-form residual exponents
    are checked against, not an algorithm under test.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    result = np.eye(a.shape[0])
    base = np.array(a)
    while e > 0:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def assert_power_law(f_mat, b_mat, exponent, rel=1e-8):
    """Check F == B**exponent with the underflow guard.

    While ||B**e||_F stays above 1e-250 the comparison is relative at
    ``rel``; below that the model is unfalsifiable in floats and the check
    degrades to plain convergence of F.
    """
    target = mat_pow(b_mat, exponent)
    scale = fro_norm(target)
    if scale < 1e-250:
        assert fro_norm(f_mat) <= 1e-200
    else:
        assert fro_norm(f_mat - target) <= rel * scale


def text_file_oracle(values, comment=None):
    """The bytes ``save_matrix`` / ``save_vector`` must write: the former
    writer, one ``format(x, ".17g")`` per numpy scalar, a matrix row or one
    vector value per line."""
    out = [f"# {line}\n" for line in comment.splitlines()] if comment else []
    out.append(f"{len(values)}\n")
    for row in values:
        if values.ndim == 2:
            out.append(" ".join(format(x, ".17g") for x in row) + "\n")
        else:
            out.append(format(row, ".17g") + "\n")
    return "".join(out).encode("utf-8")


def power_iteration_oracle(a, tol=1e-12, max_iter=10000, seed=0):
    """The plain power iteration ``spectral_radius`` must match bit for bit:
    a fresh ``a @ x`` and ``np.linalg.norm`` per step.  Returns the estimate,
    or ``("cap", best, message)`` where ``spectral_radius`` raises."""
    dim = a.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    restarts = 0
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    prev = None
    streak = 0
    for _ in range(max_iter):
        y = a @ x
        est = float(np.linalg.norm(y))
        if est == 0.0:
            if not np.any(a):
                return 0.0
            restarts += 1
            if restarts > 3:
                return 0.0
            x = rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            prev = None
            streak = 0
            continue
        best = est
        if prev is not None and abs(est - prev) <= tol * est:
            streak += 1
            if streak >= 3:
                return est
        else:
            streak = 0
        prev = est
        x = y / est
    message = (
        f"power iteration did not converge within {max_iter} iterations "
        f"(best estimate {best:.6e})"
    )
    return ("cap", best, message)


def horner_iterates(y, x, h, ctr):
    """Every Horner iterate ``[S_1 X, ..., S_h X]`` from one pass of
    ``h - 1`` products, entry ``i`` bitwise equal to ``horner_eval(y, x,
    i + 1)``: the references of the per-instance verify-tables oracle."""
    sums = [x]
    for _ in range(h - 1):
        z = mat_mul(y, sums[-1], ctr)
        z += x
        sums.append(z)
    return sums


def power_sum(gamma, n, ctr):
    """``I + gamma + ... + gamma^(n-1)`` (n - 2 products) through the
    power-sum sub-program that opens the recursive Richardson step, run by
    the executor on one matrix or a ``(k, n, n)`` stack."""
    bld = _Builder("R")
    program = bld.build(bld.power_sum(0, n))
    return run_program(program, [gamma], gamma, ctr)[0]


def plan_oracle(program, y, x, a, ctr):
    """The dict-register interpreter the slot executor must match bit for
    bit and count for count: registers kept by key, an ``isinstance``
    dispatch per instruction, and every ``Lin`` formed as ``const * I``
    plus a ``coef * reg`` temporary per term.  Runs a lowered program (Y
    in slot 0, X in slot 1); for the empty program it returns X itself."""
    env = {0: y, 1: x}
    dst = 1
    for ins in program:
        dst = ins.dst
        if isinstance(ins, Mul):
            z = mat_mul(env[ins.lhs], env[ins.rhs], ctr)
            if ins.add is not None:
                z += env[ins.add]
        elif isinstance(ins, Residual):
            z = residual_of(env[ins.src], a, ctr)
        else:
            eye = identity_constant(x.shape[-1])
            z = np.multiply(eye, ins.const, out=np.empty_like(x))
            for coef, reg in ins.terms:
                z += coef * env[reg]
        env[dst] = z
        for reg in ins.drop:
            del env[reg]
    return env[dst]


def per_plan_toolkit_check(instances=50, dim=5, seed=0):
    """The check ``toolkit_check`` ran before it shared one Y and one run per
    distinct program: every catalogue plan re-forms Y through
    ``nested_eval(form_y=True)`` on the whole stack, is counted at
    ``instances * mmm_cost``, and is checked against one advancing Horner
    sum.  Its ``(ok, lines)`` is the report ``toolkit_check`` must print."""
    rng = np.random.default_rng(seed)
    catalogue = table_plans()
    plans = [
        (f"table:{label}", plan)
        for order in sorted(catalogue)
        for label, plan in zip(TABLE_LABELS[order], catalogue[order])
    ]
    plans += [(f"plan:{h}", plan_order(h)) for h in range(2, CHECK_MAX_ORDER + 1)]
    m = rng.standard_normal((instances, dim, dim))
    split = split_scalar(m @ np.swapaxes(m, -1, -2) / dim + 0.5 * np.eye(dim))
    x, y, a = split.precond, split.residual, split.matrix
    ref, ref_order = x, 1
    worst = {}
    count_ok = True
    for name, plan in sorted(plans, key=lambda named: named[1].order_h):
        while ref_order < plan.order_h:
            ref = y @ ref
            ref += x
            ref_order += 1
            ref_norms = np.maximum(fro_norms(ref), 1e-300)
        ctr = MulCounter()
        z = nested_eval(None, x, a, plan, ctr, form_y=True)
        if ctr.mmm != instances * plan.mmm_cost:
            count_ok = False
        z -= ref
        worst[name] = float((fro_norms(z) / ref_norms).max())
    ok = count_ok and all(v <= CHECK_REL_TOL for v in worst.values())
    lines = []
    for name, plan in plans:
        status = "ok" if worst[name] <= CHECK_REL_TOL else "FAIL"
        lines.append(
            f"{name:<12} order={plan.order_h:<3} mmm={plan.mmm_cost:<3} "
            f"max_rel_err={worst[name]:.3e} {status}"
        )
    if not count_ok:
        lines.append("FAIL: a counter delta disagreed with its plan's mmm cost")
    return ok, lines


# ---------------------------------------------------------------------------
# Counts and critical paths of the start and step functions, written from
# each function's definition: the oracle the lowered programs' static
# counts and a real run's counter deltas are checked against.
# ---------------------------------------------------------------------------


# Every (kind, order, h, q, rates) a benchmark workload runs, as listed in
# bench/workloads.py (solve and report methods of harmonic-6, spd-512 and
# plan-catalogue).
BENCH_SPECS = (
    MethodSpec("double", 3, 16),
    MethodSpec("richardson", 3, 16, q=3),
    MethodSpec("richardson-recursive", 3, 16, q=3),
    MethodSpec("ns", 3, 16),
    MethodSpec("composite", 3, 16, rates=(5, 7)),
    MethodSpec("sri", 3, 16),
    MethodSpec("ns-estimator", 3, 16),
    MethodSpec("double", 2, 4),
    MethodSpec("richardson-recursive", 2, 4, q=2),
    MethodSpec("composite", 2, 4, rates=(17, 45)),
    MethodSpec("ns", 7, 5),
    MethodSpec("ns", 11, 1),
    MethodSpec("composite", 2, 1, rates=(17, 45)),
    MethodSpec("richardson-recursive", 3, 1, q=3),
    MethodSpec("composite", 2, 5, rates=(7, 15)),
    MethodSpec("sri", 3, 9),
)


def start_counts(m):
    """(mmm, mvm) of the start function: the two-level initial series (no
    product for h = 1), then L_0 = S_n(F_0) G_0 and I - L_0 A for the
    two-loop kinds, and theta_0 = L_0 b for the Richardson kinds."""
    mmm = 0 if m.h == 1 else factored_mmm(*series_params(m.h))
    if m.kind in ("double", "richardson", "richardson-recursive"):
        mmm += m.order
    return mmm, 1 if m.kind in ("richardson", "richardson-recursive") else 0


def step_counts(m, k):
    """(mmm, mvm) of step ``k >= 1``."""
    n = m.order
    if m.kind in ("ns", "ns-estimator"):
        return n, 0  # n - 1 Horner products and the new residual
    if m.kind == "double":
        return 2 * n + 2, 0  # accelerator 1 + (n - 1) + 1, main n - 1, join 2
    if m.kind == "composite":
        units = sum((plan_order(x).mmm_poly if x > 1 else 0) + 1 for x in m.rates)
        return units + 2 * (len(m.rates) - 1) + (n - 1) + 2, 0
    if m.kind == "sri":
        return n + 2, 0  # two residuals and p - 1 Horner products, one join
    if m.kind == "richardson":
        q = n if m.q is None else m.q
        return 2 * n + 2 + q, 2  # the double step, q - 1 for S_q, one weight
    if m.kind == "richardson-recursive":
        return (3 * n + 2 if k == 1 else 2 * n + 2), 2
    raise ValueError(m.kind)


def step_depth(m, k):
    """The critical path of step ``k >= 1`` in products, for the kinds whose
    chain is plain: the longest run of dependent products."""
    n = m.order
    if m.kind in ("ns", "ns-estimator"):
        return n
    if m.kind == "double":
        # I - L A, n - 1 Horner, I - L_k A, the join, I - G_k A; at n = 1
        # S_1(Gamma) L is L itself, so the path skips I - L A
        return n + 3 if n > 1 else 3
    if m.kind == "sri":
        return n + 1
    if m.kind == "richardson":
        q = n if m.q is None else m.q
        return n + q + 3
    if m.kind == "richardson-recursive":
        return 2 * n + 2 if k == 1 else 2 * n
    raise ValueError(m.kind)


# ---------------------------------------------------------------------------
# Exact operands: 1 x 1 arrays whose entry is a polynomial in b, with
# B = b, A = 1 - b and S^-1 = 1.  Every start and step function runs on them
# unchanged, and every residual (or estimation mismatch) comes out as an
# exact power of b while the coefficients stay small integers.
# ---------------------------------------------------------------------------


POLY_B = Polynomial([0.0, 1.0])


def poly_array(*entries):
    """The polynomials as a 1-D object array: a vector, or with
    ``.reshape(1, 1)`` a 1 x 1 matrix."""
    out = np.empty(len(entries), dtype=object)
    out[:] = list(entries)
    return out


def poly_split():
    """The splitting record of the exact operands: A = 1 - b, S^-1 = 1,
    B = b, each a 1 x 1 object array."""
    a, precond, residual = (
        poly_array(p).reshape(1, 1) for p in (1 - POLY_B, Polynomial([1.0]), POLY_B)
    )
    return DiagonalSplit(a, precond, residual)


def b_power(e):
    """b**e, for any e >= 0 (``**`` stops at degree 100)."""
    return Polynomial.basis(e)


def poly_equal(p, q):
    """Coefficient for coefficient, trailing zeros trimmed."""
    return np.array_equal(p.trim().coef, q.trim().coef)
