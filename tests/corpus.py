"""Shared random test-matrix builders and oracle helpers.

The exponent-law tests compare measured residuals against mat_pow(B, e)
with e up to a few thousand, so the corpora control rho(B) tightly: the
comparison is only meaningful while ||B**e|| sits well above float noise.
"""

from dataclasses import dataclass

import numpy as np

from seriesinv import fro_norm, inf_norm, square_matrix
from seriesinv.harness import CHECK_MAX_ORDER, CHECK_REL_TOL
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
    nested_eval,
    plan_order,
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
