"""Benchmark harness: fixtures, comparison runs, and CSV emission.

The harness owns everything around the algorithms: the ill-conditioned
harmonic-regressor fixture, per-step comparison records with predicted
bounds, the cost-surface and exponent-surface tables behind the CLI's
``surfaces`` subcommand, and the table-catalogue verification used by
``verify-tables``.

The method kinds are one table, :data:`METHODS`: each row names its
start, first-step and later-step programs, and the one run loop
(:func:`_run_method`) runs them itself, over named slots, on one counter.
"""

from __future__ import annotations

import re
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cache
from math import cos, inf, isfinite, pi, sin

import numpy as np

from .matrix_core import (
    MulCounter,
    check_int,
    fro_norm,
    int_keyed_cache,
    residual_of,
    spectral_radius,
    SpectralRadiusError,
    square_matrix,
    vector,
)
from .newton_schulz import (
    CompositeSpec,
    _additive_start_program,
    additive_exponents,
    additive_program,
    classical_exponent,
    composite_exponent,
    composite_program,
    double_exponent,
    double_program,
    double_start_program,
    estimator_program,
    ns_program,
    series_program,
)
from .richardson import (
    cumulative_exponent,
    cumulative_exponent_closed,
    recursive_program,
    richardson_program,
    richardson_start_program,
)
from .series_toolkit import (
    TABLE_LABELS,
    Program,
    _split_plan,
    factored_mmm,
    nested_eval,
    plan_order,
    run_program,
    split_candidates,
    table_plans,
)
from .splitting import is_positive_definite, split_scalar

__all__ = [
    "CSV_HEADER",
    "METHODS",
    "HarmonicRegressorSpec",
    "MethodSpec",
    "RunRecord",
    "condition_number",
    "emit_exponent_surface",
    "emit_mmm_surface",
    "gen_harmonic_matrix",
    "method_programs",
    "parse_run_records",
    "records_to_csv",
    "run_comparison",
    "series_params",
    "toolkit_check",
]

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

    Raises if frequencies repeat or alias (the matrix would be singular),
    if ``num_samples`` is not an integer or if the dimensions are
    inconsistent.
    """
    check_int("num_samples", spec.num_samples)
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

    ``kind`` is a key of :data:`METHODS`, the one list of method kinds.
    ``order`` is n (or p for sri), ``h`` the initial series order; ``q``
    (Richardson kinds only, at least 1) is set to the order if not given;
    ``rates`` feeds the composite kind, which needs them.  A spec is
    checked against its table row when it is built, so a bad one fails
    before any matrix work, and then holds its numbers as plain ints.
    """

    kind: str
    order: int = 2
    h: int = 1
    q: int | None = None
    rates: tuple[int, ...] = ()

    def __post_init__(self):
        row = METHODS.get(self.kind)
        if row is None:
            raise ValueError(
                f"unknown method kind {self.kind!r}; expected one of {', '.join(METHODS)}"
            )
        order, h = check_int("order", self.order), check_int("h", self.h)
        q = self.q if self.q is None else check_int("q", self.q)
        if order < row.min_order:
            raise ValueError(f"method {self.kind} requires order >= {row.min_order}")
        if h < 1:
            raise ValueError("initial series order h must be >= 1")
        rates = ()
        if row.takes_rates:
            rates = CompositeSpec(self.rates).rates
        elif self.rates:
            raise ValueError(f"method {self.kind} takes no rates")
        if q is not None and not row.takes_q:
            raise ValueError(f"method {self.kind} takes no q")
        if q is not None and q < 1:
            raise ValueError("q must be >= 1")
        q = order if q is None and row.takes_q else q
        if row.q_is_order and q != order:
            raise ValueError(f"method {self.kind} requires q == order")
        for label, value in (("order", order), ("h", h), ("q", q), ("rates", rates)):
            object.__setattr__(self, label, value)

    def name(self) -> str:
        return METHODS[self.kind].name.format(
            kind=self.kind,
            order=self.order,
            h=self.h,
            q=self.q,
            rates="-".join(str(x) for x in self.rates),
        )


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


@int_keyed_cache("h")
def series_params(h: int) -> tuple[int, int]:
    """A (p, w) factorization of the initial series order with minimal cost;
    computed once per order."""
    if h < 1:
        raise ValueError("h must be >= 1")
    # min keeps the first of equally cheap candidates, so (h - 1, 1) wins ties.
    return min([(h - 1, 1)] + split_candidates(h), key=lambda pw: factored_mmm(*pw))


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


@dataclass(frozen=True)
class MethodKind:
    """One row of :data:`METHODS`.

    ``command`` is ``invert`` (error ||I - G A||_F) or ``solve`` (error
    ||theta - theta*||; every program of a solve row outputs theta).
    ``programs(method, series)`` is the row's one description of the
    method: its start, first-step and later-step programs (see
    :func:`method_programs`), given the plan program of the initial
    series, ``series``, which the run loop runs over named slots;
    ``exponent(method, k)`` is the predicted power of rho;
    ``name`` is formatted with the spec's kind, order, h, q and rates;
    ``min_order`` is the smallest order the step program accepts.
    """

    command: str
    programs: Callable
    exponent: Callable
    name: str
    min_order: int = 1
    takes_q: bool = False
    q_is_order: bool = False
    takes_rates: bool = False


# Keyed by kind; the CLI lists each command's kinds in this order.
METHODS: dict[str, MethodKind] = {
    "ns": MethodKind(
        "invert",
        lambda m, series: (series_program(series), ns_program(m.order), ns_program(m.order)),
        lambda m, k: classical_exponent(k, m.order, m.h), "{kind}:n{order}:h{h}",
    ),
    "double": MethodKind(
        "invert",
        lambda m, series: (
            double_start_program(m.order, series), double_program(m.order), double_program(m.order)
        ),
        lambda m, k: double_exponent(k, m.order, m.h), "{kind}:n{order}:h{h}",
    ),
    "composite": MethodKind(
        "invert",
        lambda m, series: (
            series_program(series),
            composite_program(m.order, m.rates),
            composite_program(m.order, m.rates),
        ),
        lambda m, k: composite_exponent(k, m.order, m.h, m.rates),
        "{kind}:n{order}:h{h}:r{rates}",
        takes_rates=True,
    ),
    "sri": MethodKind(
        "invert",
        lambda m, series: (
            _additive_start_program(series), additive_program(m.order), additive_program(m.order)
        ),
        lambda m, k: additive_exponents(k, m.order, m.h)[1], "{kind}:p{order}:h{h}",
        min_order=2,
    ),
    "richardson": MethodKind(
        "solve",
        lambda m, series: (
            richardson_start_program(m.order, series),
            richardson_program(m.order, m.q),
            richardson_program(m.order, m.q),
        ),
        lambda m, k: cumulative_exponent(k, m.order, m.h, m.q),
        "{kind}:n{order}:q{q}:h{h}",
        takes_q=True,
    ),
    "richardson-recursive": MethodKind(
        "solve",
        lambda m, series: (
            richardson_start_program(m.order, series),
            recursive_program(m.order, True),
            recursive_program(m.order, False),
        ),
        lambda m, k: cumulative_exponent(k, m.order, m.h, m.q),
        "{kind}:n{order}:q{q}:h{h}",
        takes_q=True, q_is_order=True,
    ),
    "ns-estimator": MethodKind(
        "solve",
        lambda m, series: (
            estimator_program(series_program(series)),
            estimator_program(ns_program(m.order)),
            estimator_program(ns_program(m.order)),
        ),
        lambda m, k: classical_exponent(k, m.order, m.h), "{kind}:n{order}:h{h}",
    ),
}


def method_programs(method: MethodSpec) -> tuple[Program, Program, Program]:
    """The lowered programs a run of ``method`` executes, as
    :func:`run_comparison` gets them: its start, its first step and every
    later step (the first step differs only for ``richardson-recursive``,
    which builds its carried weight there).  Each program's ``mmm``,
    ``mvm`` and ``depth`` are the counts one run adds and its critical path
    in products."""
    return METHODS[method.kind].programs(method, _split_plan(*series_params(method.h)).program)


def _error(slots, a, theta_star) -> float:
    """||theta - theta*|| where the program output theta (every solve
    kind), else ||F||_F, F = I - G A formed off the counter where the
    program output no F (sri's steps: the additive scheme never forms it)."""
    if "theta" in slots:
        return float(np.linalg.norm(slots["theta"] - theta_star))
    f = slots.get("F")
    if f is None:
        f = residual_of(slots["G"], a, MulCounter())
    return fro_norm(f)


def _run_method(method: MethodSpec, split, b, theta_star, steps, rho, timer):
    """Run the method's programs in turn on one counter.  The run's state
    is a set of named slots: the splitting's ``B`` and ``Sinv``, the
    caller's ``b``, and the outputs of the program run last; each program
    reads its inputs from them by name, and each record's error is read
    from them (:func:`_error`)."""
    started = timer()
    row = METHODS[method.kind]
    name = method.name()
    start, first, later = method_programs(method)
    given = {"B": split.residual, "Sinv": split.precond, "b": b}
    ctr = MulCounter()
    e0 = row.exponent(method, 0)
    records = []
    slots = given
    for k in range(steps + 1):
        program = start if k == 0 else first if k == 1 else later
        outputs = run_program(program, [slots[key] for key in program.inputs], split.matrix, ctr)
        slots = given | dict(zip(program.output_names, outputs))
        err = _error(slots, split.matrix, theta_star)
        if k == 0:
            err0 = err
        exponent = row.exponent(method, k)
        records.append(
            RunRecord(
                method=name,
                k=k,
                error_norm=err,
                predicted_bound=_rho_power(rho, exponent - e0) * err0,
                exponent=exponent,
                mmm_cum=ctr.mmm,
                wall_ns=int(timer() - started),
                diverged=bool(err > DIVERGENCE_FACTOR * max(err0, 1e-300)),
            )
        )
    return records


def run_comparison(
    a: np.ndarray,
    b: np.ndarray,
    theta_star: np.ndarray | None,
    methods: list[MethodSpec],
    steps: int,
    *,
    eps: float | None = None,
    timer=None,
    executor=None,
) -> list[RunRecord]:
    """Run every method for ``steps`` steps (an integer >= 0) on the same
    scalar splitting, and every step on its symmetrized A.  ``b`` and
    ``theta_star`` must have A's dimension; a length that does not is
    rejected before any matrix work.  With ``theta_star=None`` the
    reference is a dense solve of ``A theta = b``, run only once the
    splitting has accepted A.

    ``timer`` (default ``time.perf_counter_ns``) is injectable so runs can
    be made byte-deterministic.  Methods are independent; with ``executor``
    they run concurrently and the merged records are identical to a serial
    run (sorted by method name, then step).
    """
    check_int("steps", steps)
    b = vector(b)
    if theta_star is not None:
        theta_star = vector(theta_star)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    a = square_matrix(a)
    for label, v in (("b", b), ("theta_star", theta_star)):
        if v is not None and v.size != a.shape[0]:
            raise ValueError(
                f"{label} has {v.size} entries, expected {a.shape[0]} to match A"
            )
    if timer is None:
        timer = time.perf_counter_ns
    split = split_scalar(a, eps)
    if theta_star is None:
        theta_star = vector(np.linalg.solve(a, b))
    rho = _measure_rho(split)

    if executor is None:
        chunks = [
            _run_method(m, split, b, theta_star, steps, rho, timer) for m in methods
        ]
    else:
        futures = [
            executor.submit(_run_method, m, split, b, theta_star, steps, rho, timer)
            for m in methods
        ]
        chunks = [f.result() for f in futures]
    merged = [rec for chunk in chunks for rec in chunk]
    merged.sort(key=lambda r: (r.method, r.k))
    return merged


# ---------------------------------------------------------------------------
# CSV emission.  Floats use 17 significant digits so parsing round-trips.
# Exponents go through Decimal, which has no limit on the digits it converts
# (int's is 4300); a token other than plain digits goes to int() to judge.
# ---------------------------------------------------------------------------

CSV_HEADER = "method,k,error_norm,predicted_bound,exponent,mmm_cum,wall_ns"
_DIGITS = re.compile(r"-?[0-9]+")


def records_to_csv(records: list[RunRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.method},{r.k},{r.error_norm:.16e},{r.predicted_bound:.16e},"
            f"{Decimal(r.exponent)},{r.mmm_cum},{r.wall_ns}"
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
                exponent=int(Decimal(parts[4]) if _DIGITS.fullmatch(parts[4]) else parts[4]),
                mmm_cum=int(parts[5]),
                wall_ns=int(parts[6]),
            )
        )
    return records


def emit_mmm_surface() -> str:
    """Cost-surface table: order h = w (p + 1) versus count p + w + 1.

    Reproduces the plotted surfaces, i.e. the plain two-level formula on
    the grid p = 1..7, w = 1..6; the w == 1 executions actually skip the
    outer residual and cost p + 1, which :func:`factored_mmm` accounts for.
    """
    lines = ["p,w,h,mmm"]
    for p in range(1, 8):
        for w in range(1, 7):
            lines.append(f"{p},{w},{w * (p + 1)},{p + w + 1}")
    return "\n".join(lines) + "\n"


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
    if not n_range or not k_range:
        raise ValueError("exponent surfaces need at least one n and one k")
    # plain ints: the baselines of numpy integers would overflow
    h = check_int("h", h)
    if h < 1:
        raise ValueError("h must be >= 1")
    if not (isfinite(rho) and rho >= 0.0):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    lines = ["n,k,exponent_new,exponent_baseline,rho_pow_new,rho_pow_baseline"]
    for n in n_range:
        n = check_int("n", n)
        if n < 2:
            raise ValueError("exponent surfaces need n >= 2")
        for k in k_range:
            k = check_int("k", k)
            try:
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
            except OverflowError:
                # A baseline exponent out of float range: its limit.
                e_base = inf
            lines.append(
                f"{n},{k},{e_new},{e_base:.16e},"
                f"{_rho_power(rho, e_new):.16e},{_rho_power(rho, e_base):.16e}"
            )
    return "\n".join(lines) + "\n"


def _rho_power(rho: float, exponent) -> float:
    """``rho**exponent``, or its limit ``rho**inf`` (inf for rho > 1) where
    the power is out of float range."""
    try:
        return rho**exponent
    except OverflowError:
        return rho**inf


# ---------------------------------------------------------------------------
# Catalogue verification (CLI `verify-tables`).
# ---------------------------------------------------------------------------


# The plan_order orders verify-tables checks (from 2), and the relative
# Frobenius error it allows against the Horner sum.
CHECK_MAX_ORDER = 45
CHECK_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class _CheckLayout:
    """What :func:`toolkit_check` derives from the plan set alone.

    ``runs`` has one plan per distinct (order, code), in order of h; each
    report line has its fixed ``heads`` part and the run it reads,
    ``row_of``.
    """

    runs: tuple
    heads: tuple[str, ...]
    row_of: tuple[int, ...]


@cache
def _check_layout() -> _CheckLayout:
    """The layout of the plans :func:`table_plans` and :func:`plan_order`
    return, built once per process: both return the same objects for the
    life of the process.  Threads that race on the first call each build
    an equal layout."""
    catalogue = table_plans()
    named = [
        (f"table:{label}", plan)
        for order in sorted(catalogue)
        for label, plan in zip(TABLE_LABELS[order], catalogue[order])
    ]
    named += [(f"plan:{h}", plan_order(h)) for h in range(2, CHECK_MAX_ORDER + 1)]
    # One run per distinct (order, code), in order of h; the code, not the
    # Program, which compares by identity.
    runs: dict = {}
    row_of = {}
    for name, plan in sorted(named, key=lambda item: item[1].order_h):
        row_of[name] = runs.setdefault((plan.order_h, plan.program.code), (len(runs), plan))[0]
    return _CheckLayout(
        runs=tuple(plan for _, plan in runs.values()),
        heads=tuple(
            f"{name:<12} order={plan.order_h:<3} mmm={plan.mmm_cost:<3} " for name, plan in named
        ),
        row_of=tuple(row_of[name] for name, _ in named),
    )


def toolkit_check(instances: int = 50, dim: int = 5, seed: int = 0) -> tuple[bool, list[str]]:
    """Check every catalogued plan against the Horner reference.

    Each plan from the table catalogue and from :func:`plan_order` (orders
    2..``CHECK_MAX_ORDER``) is executed on random SPD-derived instances;
    its result must match the straight Horner sum to ``CHECK_REL_TOL``
    (relative Frobenius) on every instance and its counter delta must equal
    the predicted count exactly.  The instances are drawn as one
    ``(instances, dim, dim)`` stack and split in one call, so the splitting,
    the Horner sum and each plan run once over all of them.  Y = I - X A is
    formed once (one product per instance) for every plan, and plans that
    lower to the same code at the same order share one run, which must
    move the counter by its ``mmm_poly`` per instance; each plan still
    reports its own line and its ``mmm_cost``.  Which plans share a run,
    and each line's fixed part, are worked out on the first check and kept
    for the process (see :func:`_check_layout`).  ``instances``, ``dim``
    and ``seed`` must be integers, ``instances`` and ``dim`` at least 1 and
    ``seed`` at least 0.  Returns (all_ok, report_lines).
    """
    for label, value in (("instances", instances), ("dim", dim), ("seed", seed)):
        check_int(label, value)
    if instances < 1:
        raise ValueError("instances must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    layout = _check_layout()

    m = rng.standard_normal((instances, dim, dim))
    split = split_scalar(m @ np.swapaxes(m, -1, -2) / dim + 0.5 * np.eye(dim))
    x, b, a = split.precond, split.residual, split.matrix
    ctr = MulCounter()
    y = residual_of(x, a, ctr)
    count_ok = ctr.mmm == instances
    # The runs go in order of h while one Horner sum of every instance
    # advances, z = B z + X; each run's squared error norms are kept, its
    # result dropped.  The square roots are taken once, at the end, each
    # bitwise what fro_norms gives.
    err_sq = np.empty((len(layout.runs), instances))
    ref_sq = np.empty((CHECK_MAX_ORDER + 1, instances))
    ref, ref_order = x, 1
    for row, plan in enumerate(layout.runs):
        while ref_order < plan.order_h:
            ref = b @ ref
            ref += x
            ref_order += 1
            np.add.reduce(ref * ref, axis=(-2, -1), out=ref_sq[ref_order])
        before = ctr.mmm
        z = nested_eval(y, x, a, plan, ctr, form_y=False)
        if ctr.mmm - before != instances * plan.mmm_poly:
            count_ok = False
        z -= ref
        np.add.reduce(np.square(z, out=z), axis=(-2, -1), out=err_sq[row])
    ref_norms = np.sqrt(ref_sq[[plan.order_h for plan in layout.runs]])
    worst = (np.sqrt(err_sq) / np.maximum(ref_norms, 1e-300)).max(axis=1).tolist()

    ok = count_ok and all(v <= CHECK_REL_TOL for v in worst)
    tails = [f"max_rel_err={err:.3e} {'ok' if err <= CHECK_REL_TOL else 'FAIL'}" for err in worst]
    lines = [head + tails[row] for head, row in zip(layout.heads, layout.row_of)]
    if not count_ok:
        lines.append("FAIL: a counter delta disagreed with its plan's mmm cost")
    return ok, lines
