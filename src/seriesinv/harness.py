"""Benchmark harness: fixtures, comparison runs, and CSV emission.

The harness owns everything around the algorithms: the ill-conditioned
harmonic-regressor fixture, per-step comparison records with predicted
bounds, the cost-surface and exponent-surface tables behind the CLI's
``surfaces`` subcommand, and the table-catalogue verification used by
``verify-tables``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from math import cos, pi, sin

import numpy as np

from .matrix_core import (
    MulCounter,
    fro_norm,
    mat_vec,
    spectral_radius,
    SpectralRadiusError,
    square_matrix,
    vector,
)
from .newton_schulz import (
    CompositeSpec,
    additive_correction_step,
    additive_exponents,
    classical_exponent,
    composite_exponent,
    composite_step,
    double_exponent,
    double_ns_step,
    initial_double,
    initial_series,
    ns_step,
)
from .richardson import (
    cumulative_exponent,
    cumulative_exponent_closed,
    initial_richardson,
    richardson_recursive_step,
    richardson_step,
)
from .series_toolkit import (
    TABLE_LABELS,
    factored_mmm,
    horner_iterates,
    nested_eval,
    plan_order,
    split_candidates,
    table_plans,
)
from .splitting import is_positive_definite, split_scalar

__all__ = [
    "CSV_HEADER",
    "HarmonicRegressorSpec",
    "MethodSpec",
    "RunRecord",
    "condition_number",
    "emit_exponent_surface",
    "emit_mmm_surface",
    "gen_harmonic_matrix",
    "parse_exponent_surface",
    "parse_mmm_surface",
    "parse_run_records",
    "records_to_csv",
    "run_comparison",
    "series_params",
    "toolkit_check",
]

INVERSION_KINDS = ("ns", "double", "composite", "sri")
ESTIMATOR_KINDS = ("ns-estimator", "richardson", "richardson-recursive")
DIVERGENCE_FACTOR = 1e3


# ---------------------------------------------------------------------------
# Harmonic-regressor fixture.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicRegressorSpec:
    """Sinusoidal regressor: cos/sin pairs at fixed frequencies.

    The information matrix sum(phi(t) phi(t)^T) over t = 1..num_samples is
    SPD and grows ill-conditioned as the frequencies crowd together.
    """

    frequencies: tuple[float, ...]
    num_samples: int
    theta_star: tuple[float, ...]
    bias: bool = False

    @classmethod
    def default(cls) -> "HarmonicRegressorSpec":
        # 80 samples of three crowded frequencies: condition number just
        # above 1e4, the ill-conditioned regime the comparisons target.
        return cls(
            frequencies=(0.10, 0.11, 0.12),
            num_samples=80,
            theta_star=(1.0, -1.0, 0.5, -0.5, 0.25, -0.25),
        )


def gen_harmonic_matrix(
    spec: HarmonicRegressorSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (A, b, theta_star) with A = sum(phi phi^T), b = A theta_star.

    Raises if frequencies repeat or alias (the matrix would be singular) or
    if the dimensions are inconsistent.
    """
    freqs = spec.frequencies
    if not freqs:
        raise ValueError("need at least one frequency")
    if any(not (0.0 < w_ < pi) for w_ in freqs):
        raise ValueError("frequencies must lie strictly inside (0, pi)")
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be distinct")
    dim = 2 * len(freqs) + (1 if spec.bias else 0)
    theta = vector(spec.theta_star)
    if theta.size != dim:
        raise ValueError(f"theta_star must have length {dim}, got {theta.size}")
    if spec.num_samples < dim:
        raise ValueError("need at least as many samples as parameters")

    rows = []
    for t in range(1, spec.num_samples + 1):
        row = []
        for w_ in freqs:
            row.append(cos(w_ * t))
            row.append(sin(w_ * t))
        if spec.bias:
            row.append(1.0)
        rows.append(row)
    phi = np.array(rows, dtype=np.float64)
    a = phi.T @ phi
    a = (a + a.T) / 2.0
    if not is_positive_definite(a):
        raise ValueError(
            "information matrix is numerically singular; frequencies too "
            "close or aliasing for this sample count"
        )
    a = square_matrix(a)
    return a, vector(a @ theta), theta


def condition_number(a: np.ndarray) -> float:
    """Two-norm condition number (reported, never asserted)."""
    return float(np.linalg.cond(a, 2))


# ---------------------------------------------------------------------------
# Comparison runs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    """One method in a comparison run.

    ``kind`` is one of ns | double | composite | sri (inversion error is
    tracked) or ns-estimator | richardson | richardson-recursive (the
    parameter mismatch is tracked).  ``order`` is n (or p for sri), ``h``
    the initial series order; ``q`` defaults to the order for the
    Richardson kinds; ``rates`` feeds the composite kind.
    """

    kind: str
    order: int = 2
    h: int = 1
    q: int | None = None
    rates: tuple[int, ...] = ()
    label: str | None = None

    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "composite":
            tag = "-".join(str(x) for x in self.rates)
            return f"composite:n{self.order}:h{self.h}:r{tag}"
        if self.kind == "sri":
            return f"sri:p{self.order}:h{self.h}"
        if self.kind in ("richardson", "richardson-recursive"):
            q = self.order if self.q is None else self.q
            return f"{self.kind}:n{self.order}:q{q}:h{self.h}"
        return f"{self.kind}:n{self.order}:h{self.h}"


@dataclass
class RunRecord:
    """One (method, step) measurement.

    ``diverged`` flags runaway error growth; it is not a CSV column, the
    flagged record simply stays in the run.
    """

    method: str
    k: int
    error_norm: float
    predicted_bound: float
    exponent: int
    mmm_cum: int
    wall_ns: int
    diverged: bool = field(default=False, compare=False)


def series_params(h: int) -> tuple[int, int]:
    """A (p, w) factorization of the initial series order with minimal cost."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if h == 1:
        return 0, 1
    best = (h - 1, 1)
    for p, w in split_candidates(h):
        if factored_mmm(p, w) < factored_mmm(*best):
            best = (p, w)
    return best


_RHO_MAX_ITER = 20000


def _measure_rho(split) -> float:
    """rho(B) by power iteration; when that does not converge, warns and
    returns the best estimate, which may understate rho and so make every
    predicted bound too tight."""
    try:
        return spectral_radius(split.residual, tol=1e-10, max_iter=_RHO_MAX_ITER)
    except SpectralRadiusError as exc:
        warnings.warn(
            f"spectral radius: power iteration did not converge within "
            f"{_RHO_MAX_ITER} iterations; predicted bounds use the best "
            f"estimate {exc.best_estimate:.9g}",
            RuntimeWarning,
        )
        return exc.best_estimate


def _inversion_states(method: MethodSpec, split, a, steps):
    """Yield (k, residual_norm, mmm) for an inversion-kind method."""
    p, w = series_params(method.h)
    n = method.order
    if method.kind == "ns":
        st = initial_series(split, p, w, order=n)
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for _ in range(steps):
            st = ns_step(st, a)
            yield st.step, fro_norm(st.residual), st.ctr.mmm
    elif method.kind == "double":
        st = initial_double(split, p, w, order=n)
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for _ in range(steps):
            st = double_ns_step(st, a)
            yield st.step, fro_norm(st.residual), st.ctr.mmm
    elif method.kind == "composite":
        if not method.rates:
            raise ValueError("composite method needs rates")
        spec = CompositeSpec(rates=method.rates)
        st = initial_series(split, p, w, order=n)
        yield 0, fro_norm(st.residual), st.ctr.mmm
        for _ in range(steps):
            st = composite_step(st, a, split, spec, order_n=n)
            yield st.step, fro_norm(st.residual), st.ctr.mmm
    elif method.kind == "sri":
        st = initial_series(split, p, w, order=n)
        z = g = st.estimate
        ctr = st.ctr
        eye = np.eye(a.shape[0])
        yield 0, fro_norm(st.residual), ctr.mmm
        for k in range(1, steps + 1):
            z, g = additive_correction_step(z, g, a, n, ctr)
            # residual recomputed for measurement only; stays off the counter
            yield k, fro_norm(eye - g @ a), ctr.mmm
    else:
        raise ValueError(f"unknown inversion kind {method.kind!r}")


def _estimator_states(method: MethodSpec, split, a, b, theta_star, steps):
    """Yield (k, mismatch_norm, mmm) for an estimator-kind method."""
    p, w = series_params(method.h)
    n = method.order
    if method.kind == "ns-estimator":
        st = initial_series(split, p, w, order=n)
        theta = mat_vec(st.estimate, b, st.ctr)
        yield 0, float(np.linalg.norm(theta - theta_star)), st.ctr.mmm
        for _ in range(steps):
            st = ns_step(st, a)
            theta = mat_vec(st.estimate, b, st.ctr)
            yield st.step, float(np.linalg.norm(theta - theta_star)), st.ctr.mmm
    elif method.kind in ("richardson", "richardson-recursive"):
        st = initial_richardson(split, b, p, w, order=n, q=method.q)
        yield 0, float(np.linalg.norm(st.theta - theta_star)), st.ctr.mmm
        stepper = (
            richardson_step if method.kind == "richardson" else richardson_recursive_step
        )
        for _ in range(steps):
            st = stepper(st, a, b)
            yield st.step, float(np.linalg.norm(st.theta - theta_star)), st.ctr.mmm
    else:
        raise ValueError(f"unknown estimator kind {method.kind!r}")


def _predicted_exponent(method: MethodSpec, k: int) -> int:
    n, h = method.order, method.h
    if method.kind in ("ns", "ns-estimator"):
        return classical_exponent(k, n, h)
    if method.kind == "double":
        return double_exponent(k, n, h)
    if method.kind == "composite":
        return composite_exponent(k, n, h, method.rates)
    if method.kind == "sri":
        return additive_exponents(k, n, h)[1]
    if method.kind in ("richardson", "richardson-recursive"):
        q = n if method.q is None else method.q
        return cumulative_exponent(k, n, h, q)
    raise ValueError(f"unknown kind {method.kind!r}")


def _run_method(method: MethodSpec, split, a, b, theta_star, steps, rho, timer):
    started = timer()
    name = method.name()
    if method.kind in INVERSION_KINDS:
        states = _inversion_states(method, split, a, steps)
    else:
        states = _estimator_states(method, split, a, b, theta_star, steps)
    records = []
    err0 = None
    e0 = _predicted_exponent(method, 0)
    for k, err, mmm in states:
        if err0 is None:
            err0 = err
        exponent = _predicted_exponent(method, k)
        bound = rho ** (exponent - e0) * err0
        records.append(
            RunRecord(
                method=name,
                k=k,
                error_norm=err,
                predicted_bound=bound,
                exponent=exponent,
                mmm_cum=mmm,
                wall_ns=int(timer() - started),
                diverged=bool(err > DIVERGENCE_FACTOR * max(err0, 1e-300)),
            )
        )
    return records


def run_comparison(
    a: np.ndarray,
    b: np.ndarray,
    theta_star: np.ndarray,
    methods: list[MethodSpec],
    steps: int,
    *,
    eps: float | None = None,
    timer=None,
    executor=None,
) -> list[RunRecord]:
    """Run every method for ``steps`` steps on the same scalar splitting.

    ``timer`` (default ``time.perf_counter_ns``) is injectable so runs can
    be made byte-deterministic.  Methods are independent; with ``executor``
    they run concurrently and the merged records are identical to a serial
    run (sorted by method name, then step).
    """
    a = square_matrix(a)
    b = vector(b)
    theta_star = vector(theta_star)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if timer is None:
        timer = time.perf_counter_ns
    split = split_scalar(a, eps)
    rho = _measure_rho(split)

    if executor is None:
        chunks = [
            _run_method(m, split, a, b, theta_star, steps, rho, timer) for m in methods
        ]
    else:
        futures = [
            executor.submit(_run_method, m, split, a, b, theta_star, steps, rho, timer)
            for m in methods
        ]
        chunks = [f.result() for f in futures]
    merged = [rec for chunk in chunks for rec in chunk]
    merged.sort(key=lambda r: (r.method, r.k))
    return merged


# ---------------------------------------------------------------------------
# CSV emission.  Floats use 17 significant digits so parsing round-trips.
# ---------------------------------------------------------------------------

CSV_HEADER = "method,k,error_norm,predicted_bound,exponent,mmm_cum,wall_ns"


def records_to_csv(records: list[RunRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.method},{r.k},{r.error_norm:.16e},{r.predicted_bound:.16e},"
            f"{r.exponent},{r.mmm_cum},{r.wall_ns}"
        )
    return "\n".join(lines) + "\n"


def parse_run_records(text: str) -> list[RunRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 7:
            raise ValueError(f"bad record line: {ln!r}")
        records.append(
            RunRecord(
                method=parts[0],
                k=int(parts[1]),
                error_norm=float(parts[2]),
                predicted_bound=float(parts[3]),
                exponent=int(parts[4]),
                mmm_cum=int(parts[5]),
                wall_ns=int(parts[6]),
            )
        )
    return records


def emit_mmm_surface(p_range=range(1, 8), w_range=range(1, 7)) -> str:
    """Cost-surface table: order h = w (p + 1) versus count p + w + 1.

    Reproduces the plotted surfaces, i.e. the plain two-level formula on
    the grid; the w == 1 executions actually skip the outer residual and
    cost p + 1, which :func:`factored_mmm` accounts for.
    """
    lines = ["p,w,h,mmm"]
    for p in p_range:
        for w in w_range:
            lines.append(f"{p},{w},{w * (p + 1)},{p + w + 1}")
    return "\n".join(lines) + "\n"


def parse_mmm_surface(text: str) -> list[tuple[int, int, int, int]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "p,w,h,mmm":
        raise ValueError("missing or unexpected CSV header")
    return [tuple(int(tok) for tok in ln.split(",")) for ln in lines[1:]]


_EXP_HEADER = "n,k,exponent_new,exponent_baseline,rho_pow_new,rho_pow_baseline"


def emit_exponent_surface(
    kind: str,
    n_range=range(2, 7),
    k_range=range(1, 9),
    h: int = 1,
    rho: float = 0.99,
) -> str:
    """Exponent surfaces for the inversion ("fig2") or estimation ("fig3")
    comparisons: this package's exponent next to the earlier single-loop
    baseline quoted for reference."""
    if kind not in ("fig2", "fig3"):
        raise ValueError("kind must be 'fig2' or 'fig3'")
    lines = [_EXP_HEADER]
    for n in n_range:
        if n < 2:
            raise ValueError("exponent surfaces need n >= 2")
        for k in k_range:
            if kind == "fig2":
                e_new = double_exponent(k, n, h)
                e_base = float(h * (k + 1) * n**k)
            else:
                e_new = cumulative_exponent_closed(k, n, h)
                e_base = 2.0 * h * (
                    (n ** (k + 3) - n**4) / (n - 1) ** 3
                    - (k - 1) * (n**3 / (n - 1) ** 2 + k / (2 * (n - 1)))
                    + k * (n + 2)
                )
            lines.append(
                f"{n},{k},{e_new},{e_base:.16e},{rho**e_new:.16e},{rho**e_base:.16e}"
            )
    return "\n".join(lines) + "\n"


def parse_exponent_surface(text: str) -> list[tuple[int, int, int, float, float, float]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _EXP_HEADER:
        raise ValueError("missing or unexpected CSV header")
    out = []
    for ln in lines[1:]:
        n, k, e_new, e_base, r_new, r_base = ln.split(",")
        out.append(
            (int(n), int(k), int(e_new), float(e_base), float(r_new), float(r_base))
        )
    return out


# ---------------------------------------------------------------------------
# Catalogue verification (CLI `verify-tables`).
# ---------------------------------------------------------------------------


def toolkit_check(
    instances: int = 50,
    dim: int = 5,
    seed: int = 0,
    max_order: int = 45,
    rel_tol: float = 1e-9,
) -> tuple[bool, list[str]]:
    """Check every catalogued plan against the Horner reference.

    Each plan from the table catalogue and from :func:`plan_order` (orders
    2..max_order) is executed on random SPD-derived instances; its result
    must match the straight Horner sum to ``rel_tol`` (relative Frobenius)
    and its counter delta must equal the predicted count exactly.  Returns
    (all_ok, report_lines).
    """
    rng = np.random.default_rng(seed)
    catalogue = table_plans()
    plans = [
        (f"table:{label}", plan)
        for order in sorted(catalogue)
        for label, plan in zip(TABLE_LABELS[order], catalogue[order])
    ]
    plans += [(f"plan:{h}", plan_order(h)) for h in range(2, max_order + 1)]

    max_ref_order = max(plan.order_h for _, plan in plans)
    worst: dict[str, float] = {name: 0.0 for name, _ in plans}
    count_ok = True
    for _ in range(instances):
        m = rng.standard_normal((dim, dim))
        a = square_matrix(m @ m.T / dim + 0.5 * np.eye(dim))
        split = split_scalar(a)
        x, y = split.precond, split.residual
        # refs[h - 1] is the order-h Horner sum, all from one pass.
        refs = horner_iterates(y, x, max_ref_order, MulCounter())
        ref_norms = [max(fro_norm(ref), 1e-300) for ref in refs]
        for name, plan in plans:
            ctr = MulCounter()
            z = nested_eval(y, x, a, plan, ctr, form_y=True)
            if ctr.mmm != plan.mmm_cost:
                count_ok = False
            rel = fro_norm(z - refs[plan.order_h - 1]) / ref_norms[plan.order_h - 1]
            worst[name] = max(worst[name], rel)

    ok = count_ok and all(v <= rel_tol for v in worst.values())
    lines = []
    for name, plan in plans:
        status = "ok" if worst[name] <= rel_tol else "FAIL"
        lines.append(
            f"{name:<12} order={plan.order_h:<3} mmm={plan.mmm_cost:<3} "
            f"max_rel_err={worst[name]:.3e} {status}"
        )
    if not count_ok:
        lines.append("FAIL: a counter delta disagreed with its plan's mmm cost")
    return ok, lines
