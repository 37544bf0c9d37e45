"""Shared random test-matrix builders and oracle helpers.

The exponent-law tests compare measured residuals against mat_pow(B, e)
with e up to a few thousand, so the corpora control rho(B) tightly: the
comparison is only meaningful while ||B**e|| sits well above float noise.
"""

from dataclasses import dataclass, replace
from math import copysign

import numpy as np
from numpy.polynomial import Polynomial

from seriesinv import fro_norm, inf_norm, square_matrix
from seriesinv.harness import CHECK_MAX_ORDER, CHECK_REL_TOL, MethodSpec, series_params
from seriesinv.matrix_core import (
    DOT_MAX_DIM,
    MulCounter,
    fro_norms,
    identity_constant,
    mat_mul,
    residual_of,
    subtract_from_identity,
)
from seriesinv.series_toolkit import (
    TABLE_LABELS,
    Horner,
    Lin,
    MatVec,
    Mul,
    PrimeWrap,
    Residual,
    Split,
    TableForm,
    _Builder,
    _drops,
    factored_mmm,
    nested_eval,
    plan_order,
    run_program,
    table_plans,
)
from seriesinv.richardson import step_exponent_general
from seriesinv.splitting import NotSPDError, split_scalar


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


@dataclass(frozen=True, eq=False)
class ReferenceSplit:
    matrix: np.ndarray
    alpha: np.ndarray
    precond: np.ndarray
    residual: np.ndarray


def reference_split_scalar(a, eps=None):
    """``split_scalar`` as it was before clean inputs were decided in one
    pass over A, kept as its oracle: a fresh finite copy, the symmetry
    tolerance test unless A equals A^T bit for bit, the overflow guard, the
    eps check, the Cholesky test and the checks and formulas of the
    ``Splitting`` constructor, each in that order, with each message."""
    a = np.array(a, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    n = a.shape[-1]
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
    bits = a.view(np.int64)
    exact = (bits == bits.swapaxes(-1, -2)).all()
    if not exact:
        unit = np.ldexp(a, -np.frexp(top)[1])
        skew = unit - unit.swapaxes(-1, -2)
        if (fro_norms(skew) > 1e-10 * fro_norms(unit)).any():
            raise ValueError("matrix must be symmetric")
    if (top >= 2.0**1023 / n).any():
        with np.errstate(over="ignore"):
            a = (a + a.swapaxes(-1, -2)) / 2.0
            rows = np.abs(a).sum(axis=-1)
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if not np.isfinite(rows).all():
            raise ValueError("matrix entries too large: ||A||_inf overflows")
    elif not exact:
        a = (a + a.swapaxes(-1, -2)) / 2.0
    norm = np.abs(a).sum(axis=-1).max(axis=-1)
    if eps is None:
        eps = 1e-3 * norm
    elif not np.logical_and(0.0 < eps, eps <= np.finfo(np.float64).max / 2.0).all():
        bad = ~np.logical_and(0.0 < eps, eps < np.inf)
        if bad.any():
            raise ValueError(f"eps must be positive and finite, got {np.extract(bad, eps)[0]}")
        with np.errstate(over="ignore"):
            bad = np.isinf(norm / 2.0 + eps)
        if bad.any():
            eps = np.extract(bad, np.broadcast_to(eps, bad.shape))[0]
            raise ValueError(f"eps too large: ||A||_inf / 2 + eps overflows, got {eps}")
    try:
        lower = np.linalg.cholesky(a.swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        raise NotSPDError("matrix is not positive definite") from None
    if not ((lower.diagonal(axis1=-2, axis2=-1).min(axis=-1) ** 2 > 1e-12 * norm).all()):
        raise NotSPDError("matrix is not positive definite")
    alpha = np.array(norm / 2.0 + eps, dtype=np.float64)
    if not ((alpha > 2.0**-1024) & (alpha < np.inf)).all():
        if ((alpha > 0.0) & (alpha < np.inf)).all():
            raise ValueError("S^-1 overflows: matrix entries must be finite")
        raise ValueError("alpha must hold one positive, finite value per matrix")
    precond = np.eye(n) * (1.0 / alpha)[..., None, None]
    residual = np.eye(n) - a / alpha[..., None, None]
    return ReferenceSplit(a, alpha, precond, residual)


def step_exponent_qn(k, n, h):
    """Step-k mismatch exponent for q == n, the paper's closed form of
    ``step_exponent_general(k, n, h, n)``."""
    return h * (k * n ** (k + 2) + 2 * n ** (k + 1))


# The transient laws in their loop and sum forms, computed on plain ints:
# the oracles of the package's closed forms.


def composite_exponent_loop(k, n, h, rates):
    """The composite law by its recursion e_k = sum(x_i) + n e_(k-1),
    e_0 = h."""
    e, n, total = int(h), int(n), sum(map(int, rates))
    for _ in range(int(k)):
        e = total + n * e
    return e


def additive_exponents_loop(k, p, h):
    """(e_L, e_F) of the additive scheme by its recursion: e_L_k =
    p e_L_(k-1) and e_F_k = e_F_(k-1) + p e_L_(k-1), both h at k = 0."""
    p = int(p)
    e_l = e_f = int(h)
    for _ in range(int(k)):
        e_f += p * e_l
        e_l *= p
    return e_l, e_f


def cumulative_exponent_sum(k, n, h, q=None):
    """The Richardson law as the sum of its per-step exponents over steps
    1..k, ``q`` n if None."""
    q = n if q is None else q
    return sum(step_exponent_general(j, int(n), int(h), int(q)) for j in range(1, int(k) + 1))


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
    ``h - 1`` products, entry ``i`` bitwise equal to ``nested_eval(y, x, a,
    Horner(i + 1), ctr, form_y=False)``: the Horner references of the
    tests and of the per-instance verify-tables oracle."""
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
    program = bld.build(f"power-sum:n{n}", S=bld.power_sum(0, n))
    return run_program(program, [gamma], gamma, ctr)[0]


def reference_execute(code, regs, a, ctr, outputs=None):
    """The interpreter every lowered program ran through before programs
    were compiled, kept as the reference the compiled code must match bit
    for bit and count for count: run ``code`` on the register list
    ``regs`` (the slots before the code's first one) and return it,
    extended by one slot per instruction.  Given the program's
    ``outputs``, each slot an instruction reads for the last time
    (``_drops``) is set to None once it has run; without, every register
    is kept.

    One dispatch on each instruction's class; each product through
    ``ndarray.dot`` on ``(n, n)`` operands with 2 <= n <= ``DOT_MAX_DIM``
    and ``np.matmul`` on all others, picked once per call from A; the
    products added to the counter once the code has run, one per n x n
    product.  A ``Lin`` is ``const * I`` plus each ``coef * reg`` in
    turn, fused: a coefficient of 1.0 adds its register without a
    multiply, and a constant of 1.0 or +0.0 starts from the first term
    (``I + t`` or ``t + 0.0``) instead of from a scaled identity.
    """
    small = a.ndim == 2 and 1 < a.shape[1] <= DOT_MAX_DIM
    mul = np.ndarray.dot if small else np.matmul
    eye = identity_constant(a.shape[-1])
    products = vectors = 0
    drops = _drops(code, outputs) if outputs is not None else [()] * len(code)
    for ins, drop in zip(code, drops):
        if isinstance(ins, Mul):
            z = mul(regs[ins.lhs], regs[ins.rhs])
            products += 1
            if ins.add is not None:
                z += regs[ins.add]
        elif isinstance(ins, Residual):
            z = mul(regs[ins.src], a)
            products += 1
            np.subtract(eye, z, out=z)
        elif isinstance(ins, Lin):
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
        elif isinstance(ins, MatVec):
            z = np.matmul(a if ins.mat is None else regs[ins.mat], regs[ins.vec])
            vectors += 1
        else:
            z = np.subtract(regs[ins.lhs], regs[ins.rhs])
        regs.append(z)
        for slot in drop:
            regs[slot] = None
    ctr.mmm += products if a.ndim == 2 else products * len(a)
    ctr.mvm += vectors
    return regs


def reference_run(program, inputs, a, ctr):
    """``run_program``'s serial run through :func:`reference_execute`: the
    outputs in order, an output that is an input or repeats an earlier
    output copied."""
    regs = reference_execute(program.code, list(inputs), a, ctr, program.outputs)
    return [
        np.array(regs[out]) if out < len(inputs) or out in program.outputs[:i] else regs[out]
        for i, out in enumerate(program.outputs)
    ]


def reference_plan(plan, y, x, a, ctr):
    """A plan's program on Y and X through :func:`reference_execute`: its
    last register, a copy of X for the empty program."""
    program = plan.program
    if not program.code:
        return np.array(x)
    return reference_execute(program.code, [y, x], a, ctr, program.outputs)[-1]


def reference_lowering(plan):
    """(code, order, mmm) of a plan as the recursive tree walker lowers
    it: the whole tree inlined into one program, from the nodes' fields
    alone, never reading a child's program."""
    bld = _Builder("Y", "X")
    result, order = _walk(bld, plan, 0, 1)
    code = bld.build("reference", Z=result).code
    mmm = sum(isinstance(ins, (Mul, Residual)) for ins in code)
    return code, order, mmm


def _walk(bld, node, y, x):
    """Append ``node`` applied to X at slot ``x`` with Y at slot ``y``;
    returns (result slot, order)."""
    if isinstance(node, Horner):
        z = x
        for _ in range(node.order - 1):
            z = bld.emit(Mul, y, z, x)
        return z, node.order
    if isinstance(node, Split):
        u = x
        if node.p >= 1:
            u, order = _walk(bld, node.inner, y, x)
            assert order == node.p + 1
        if node.w >= 2:
            q = y if node.p == 0 else bld.emit(Residual, u)
            u, order = _walk(bld, node.outer, q, u)
            assert order == node.w
        return u, node.w * (node.p + 1)
    if isinstance(node, PrimeWrap):
        z, order = _walk(bld, node.inner, y, x)
        return bld.emit(Mul, y, z, x), order + 1
    assert isinstance(node, TableForm)
    # the form's register names renamed to slots: each read to the slot
    # its name was last written to
    env = {"Y": y, "X": x}
    z = x
    for ins in node.code:
        z = len(bld.inputs) + len(bld.code)
        bld.code.append(replace(ins.renamed(env.get), dst=z))
        env[ins.dst] = z
    return z, node.order


def entry_coefs(entry):
    """An object array's entry as float coefficients: a polynomial's, or a
    plain float (a ``Lin`` with no terms writes const * I as floats)."""
    return np.atleast_1d(getattr(entry, "coef", entry)).astype(float)


def same_bits(got, want):
    """Equal shape and dtype, and bit for bit, signed zeros included; for
    object arrays, entry by entry, type and coefficients."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if got.dtype != object:
        return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    return all(
        type(g) is type(w) and same_bits(entry_coefs(g), entry_coefs(w))
        for g, w in zip(got.ravel(), want.ravel())
    )


def signed_zero_matrix(rng, shape):
    """Random entries of either sign, about a third of them +0.0 or -0.0."""
    m = rng.standard_normal(shape) / shape[-1]
    zeros = rng.random(shape) < 0.35
    m[zeros] = np.copysign(0.0, rng.standard_normal(shape))[zeros]
    return m


def hand_plans():
    """Lowered forms no catalogue plan has: every fused and general ``Lin``
    start (constants +0.0, -0.0, 1.0, -1.0, 2.0; coefficients 1.0, 0.5,
    -1.0; no terms at all), a chain of them, and the empty program."""
    term_sets = (
        (),
        ((1.0, "X"),),
        ((-1.0, "X"),),
        ((0.5, "Y"), (-1.0, "X")),
        ((-1.0, "X"), (1.0, "Y"), (0.5, "X")),
    )
    plans = [
        (f"lin:{const}:{i}", TableForm("lin", 1, (Lin("z", const, terms),)))
        for const in (0.0, -0.0, 1.0, -1.0, 2.0)
        for i, terms in enumerate(term_sets)
    ]
    chain = (
        Mul("y2", "Y", "Y"),
        Lin("f", -1.0, ((0.5, "Y"), (-1.0, "y2"))),
        Lin("g", 2.0, ((1.0, "f"), (0.5, "X"))),
        Lin("h", 0.0, ((-1.0, "g"), (1.0, "Y"))),
        Lin("k", 1.0, ((0.5, "h"),)),
        Residual("q", "k"),
        Lin("m", -0.0, ((1.0, "q"), (1.0, "X"))),
        Mul("z", "m", "X", "X"),
    )
    plans.append(("chain", TableForm("chain", 3, chain)))
    return plans + [("horner:1", Horner(1))]


def plan_oracle(program, y, x, a, ctr):
    """The dict-register interpreter the slot executor must match bit for
    bit and count for count: registers kept by key, an ``isinstance``
    dispatch per instruction, and every ``Lin`` formed as ``const * I``
    plus a ``coef * reg`` temporary per term.  Runs a lowered program (Y
    in slot 0, X in slot 1), whose result is its last register; for the
    empty program it returns X itself."""
    env = {0: y, 1: x}
    dst = 1
    drops = _drops(program, (program[-1].dst,) if program else ())
    for ins, drop in zip(program, drops):
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
        for reg in drop:
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
    two-loop kinds, theta_0 = L_0 b for the Richardson kinds and
    theta_0 = G_0 b for the estimator."""
    mmm = 0 if m.h == 1 else factored_mmm(*series_params(m.h))
    if m.kind in ("double", "richardson", "richardson-recursive"):
        mmm += m.order
    return mmm, 1 if m.kind in ("richardson", "richardson-recursive", "ns-estimator") else 0


def step_counts(m, k):
    """(mmm, mvm) of step ``k >= 1``."""
    n = m.order
    if m.kind in ("ns", "ns-estimator"):
        # n - 1 Horner products and the new residual; the estimator's theta = G b
        return n, 1 if m.kind == "ns-estimator" else 0
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
