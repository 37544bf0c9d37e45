"""Traced run: layer probes and the per-layer metrics derived from spans.

In a traced run every op records spans around the package calls it makes
(see :mod:`workloads`).  After each op a probe block, with the same op id
but outside the op's own span, calls the remaining public functions of each
module directly on the op's input, so that every per-layer number comes from
a span around one benchmark call: the GEMM, the splitting checks, ``rho``
against an ``eigvalsh`` reference, one step of every iteration kind, the
serial and 2-worker executor paths (checked bitwise), the harness and CLI
I/O, and the ``numpy`` baselines.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from seriesinv.harness import (
    HarmonicRegressorSpec,
    condition_number,
    gen_harmonic_matrix,
    parse_run_records,
    records_to_csv,
    run_comparison,
    series_params,
    toolkit_check,
)
from seriesinv.matrix_core import (
    MulCounter,
    SpectralRadiusError,
    load_matrix,
    load_vector,
    mat_mul,
    spectral_radius,
    square_matrix,
)
from seriesinv.newton_schulz import (
    CompositeSpec,
    additive_correction_step,
    composite_step,
    double_ns_step,
    initial_double,
    initial_series,
    ns_step,
)
from seriesinv.richardson import (
    initial_richardson,
    richardson_recursive_step,
    richardson_step,
)
from seriesinv.series_toolkit import (
    TABLE_LABELS,
    factored_eval,
    factored_mmm,
    geometric_apply,
    nested_eval,
    plan_order,
    table_plans,
)
from seriesinv.splitting import is_positive_definite, split_scalar

from tracing import layer_times
from workloads import INVERSION_KINDS, Problem, ReportFiles, Workload, op_rng

GEMM_REPEATS = 3
EPS = float(np.finfo(np.float64).eps)

# Per-layer time metric stem -> the span names it aggregates.
LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "matrix_core.gemm": ("matrix_core.mat_mul",),
    "matrix_core.spectral_radius": ("matrix_core.spectral_radius",),
    "matrix_core.load_matrix": ("matrix_core.load_matrix",),
    "matrix_core.save_matrix": ("matrix_core.save_matrix",),
    "splitting.split_scalar": ("splitting.split_scalar",),
    "splitting.is_positive_definite": ("splitting.is_positive_definite",),
    "series_toolkit.plan_search": ("series_toolkit.plan_order",),
    "series_toolkit.nested_eval": ("series_toolkit.nested_eval",),
    "series_toolkit.geometric_apply": ("series_toolkit.geometric_apply",),
    "series_toolkit.factored_eval": ("series_toolkit.factored_eval",),
    "newton_schulz.init": ("newton_schulz.initial_double", "newton_schulz.initial_series"),
    "newton_schulz.double_step": ("newton_schulz.double_ns_step",),
    "newton_schulz.double_step_executor": ("newton_schulz.double_ns_step[executor]",),
    "newton_schulz.ns_step": ("newton_schulz.ns_step",),
    "newton_schulz.composite_step": ("newton_schulz.composite_step",),
    "newton_schulz.additive_step": ("newton_schulz.additive_correction_step",),
    "richardson.init": ("richardson.initial_richardson",),
    "richardson.step": ("richardson.richardson_step",),
    "richardson.recursive_step": ("richardson.richardson_recursive_step",),
    "richardson.recursive_step_executor": ("richardson.richardson_recursive_step[executor]",),
    "harness.run_comparison": ("harness.run_comparison",),
    "harness.run_comparison_executor": ("harness.run_comparison[executor]",),
    "harness.records_to_csv": ("harness.records_to_csv",),
    "harness.gen_harmonic": ("harness.gen_harmonic_matrix",),
    "harness.toolkit_check": ("harness.toolkit_check",),
    "cli.main": ("cli.main",),
    "reference.numpy_inv": ("reference.numpy_inv",),
    "reference.numpy_solve": ("reference.numpy_solve",),
    "reference.eigvalsh": ("reference.eigvalsh",),
}
NS_STEPS = (
    "newton_schulz.double_ns_step",
    "newton_schulz.ns_step",
    "newton_schulz.composite_step",
)
RICHARDSON_STEPS = ("richardson.richardson_step", "richardson.richardson_recursive_step")

# Per-layer metrics that are not span times: name -> unit.
DERIVED_UNITS = {
    "matrix_core.gemm_gflops": "GFLOP/s",
    "matrix_core.gemm_flop_per_byte_computed": "flop/byte",
    "matrix_core.spectral_radius_converged_ratio": "ratio",
    "matrix_core.rho_rel_err": "ratio",
    "series_toolkit.mmm_mismatch": "count",
    "newton_schulz.mmm_per_step": "count",
    "newton_schulz.steps_to_tol": "count",
    "newton_schulz.gemm_share_computed": "ratio",
    "richardson.mvm_per_step": "count",
    "richardson.steps_to_tol": "count",
    "harness.bound_violations": "count",
    "cli.io_share_computed": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    names = {}
    for stem in LAYER_SPANS:
        names[f"{stem}_s"] = "s"
        names[f"{stem}_calls"] = "count"
        names[f"{stem}_self_s"] = "s"
    names.update(DERIVED_UNITS)
    return names


@dataclass
class ProbeTally:
    """Facts the probes gather beside the spans."""

    rho_converged: list[bool] = field(default_factory=list)
    rho_rel_err: list[float] = field(default_factory=list)
    mmm_mismatch: int = 0
    bound_violations: int = 0
    io_share: list[float] = field(default_factory=list)
    steps_ns: list[int] = field(default_factory=list)
    steps_richardson: list[int] = field(default_factory=list)
    solve_untraced_s: list[float] = field(default_factory=list)
    solve_traced_s: list[float] = field(default_factory=list)


def _count_check(tally: ProbeTally, problems: list[str], what: str, got: int, want: int):
    if got != want:
        tally.mmm_mismatch += 1
        problems.append(f"{what}: counted mmm {got}, predicted {want}")


def _same_state(x, y, fields: tuple[str, ...]) -> bool:
    return all(np.array_equal(getattr(x, f), getattr(y, f)) for f in fields) and (
        x.ctr.mmm,
        x.ctr.mvm,
    ) == (y.ctr.mmm, y.ctr.mvm)


def probe_setup(tr) -> None:
    tr.set_op("setup-probe")
    spec = HarmonicRegressorSpec.default()
    tr.call("harness.gen_harmonic_matrix", None, gen_harmonic_matrix, spec)


def probe_solve(prob: Problem, m, tr, pool, tally: ProbeTally) -> list[str]:
    """Direct calls into every layer a solve op passes through, plus one
    step of each iteration kind and the executor paths."""
    problems: list[str] = []
    a, b = prob.a, prob.b
    n = m.order
    tr.call("splitting.is_positive_definite", None, is_positive_definite, a)
    split = tr.call("splitting.split_scalar", None, split_scalar, a)
    ctr = MulCounter()
    for _ in range(GEMM_REPEATS):
        tr.call("matrix_core.mat_mul", ctr, mat_mul, split.residual, split.residual, ctr)

    p, w = series_params(m.h)
    if m.h > 1:
        ctr = MulCounter()
        tr.call(
            "series_toolkit.factored_eval", ctr, factored_eval,
            split.residual, split.precond, a, p, w, ctr, form_y=False,
        )
        _count_check(tally, problems, "factored_eval", ctr.mmm, factored_mmm(p, w) - 1)
    for rate in m.rates or (max(m.h, 2),):
        ctr = MulCounter()
        tr.call(
            "series_toolkit.geometric_apply", ctr, geometric_apply,
            split.residual, split.precond, rate, a, ctr,
        )
        want = plan_order(rate).mmm_poly
        _count_check(tally, problems, f"geometric_apply({rate})", ctr.mmm, want)

    init = lambda: tr.call("newton_schulz.initial_series", None, initial_series, split, p, w, n)
    st = init()
    tr.call("newton_schulz.ns_step", st.ctr, ns_step, st, a)
    st = init()
    tr.call(
        "newton_schulz.composite_step", st.ctr, composite_step,
        st, a, split, CompositeSpec(rates=m.rates or (2, 3)), n,
    )
    st = init()
    tr.call(
        "newton_schulz.additive_correction_step", st.ctr, additive_correction_step,
        st.estimate, st.estimate, a, max(n, 2), st.ctr,
    )

    d0 = tr.call("newton_schulz.initial_double", None, initial_double, split, p, w, n)
    c1, c2 = d0.ctr.copy(), d0.ctr.copy()
    serial = tr.call("newton_schulz.double_ns_step", c1, double_ns_step, replace(d0, ctr=c1), a)
    par = tr.call(
        "newton_schulz.double_ns_step[executor]", c2, double_ns_step,
        replace(d0, ctr=c2), a, executor=pool,
    )
    if not _same_state(serial, par, ("estimate", "residual", "accel_estimate", "accel_residual")):
        problems.append("double_ns_step with an executor differs from the serial step")

    r0 = tr.call("richardson.initial_richardson", None, initial_richardson, split, b, p, w, n, n)

    def copy(st):
        c = st.ctr.copy()
        return replace(st, ctr=c, inner=replace(st.inner, ctr=c))

    r = copy(r0)
    tr.call("richardson.richardson_step", r.ctr, richardson_step, r, a, b)
    r, rp = copy(r0), copy(r0)
    serial = tr.call(
        "richardson.richardson_recursive_step", r.ctr, richardson_recursive_step, r, a, b
    )
    par = tr.call(
        "richardson.richardson_recursive_step[executor]", rp.ctr, richardson_recursive_step,
        rp, a, b, executor=pool,
    )
    if not _same_state(serial, par, ("theta", "omega", "ns_part")):
        problems.append("richardson_recursive_step with an executor differs from the serial step")

    tr.call("reference.numpy_inv", None, np.linalg.inv, a)
    tr.call("reference.numpy_solve", None, np.linalg.solve, a, b)
    return problems


def exact_rho(split, tr) -> float:
    """rho(I - S^-1 A) from eigvalsh of the similar symmetric matrix
    I - S^-1/2 A S^-1/2 (S^-1 is diagonal for both splittings)."""
    d = np.diag(split.precond)
    if np.count_nonzero(split.precond - np.diag(d)):
        raise ValueError("preconditioner is not diagonal")
    root = np.sqrt(d)
    sym = np.eye(d.size) - root[:, None] * split.matrix * root[None, :]
    return float(np.max(np.abs(tr.call("reference.eigvalsh", None, np.linalg.eigvalsh, sym))))


def probe_report(
    files: ReportFiles, m, workload: Workload, tr, pool, tally: ProbeTally, cli_seconds: float
) -> list[str]:
    """Direct calls into the layers the CLI report path runs: file loading,
    splitting, rho as the harness measures it, the multi-method comparison
    serial and with 2 workers, and CSV emission."""
    problems: list[str] = []
    load_sid = tr.open("probe.load")
    a = tr.call("matrix_core.load_matrix", None, load_matrix, files.matrix)
    b = tr.call("matrix_core.load_vector", None, load_vector, files.rhs)
    theta = tr.call("matrix_core.load_vector", None, load_vector, files.theta)
    tr.close(load_sid)

    split = tr.call("splitting.split_scalar", None, split_scalar, a)
    # The arguments harness.run_comparison measures rho with.
    try:
        rho = tr.call(
            "matrix_core.spectral_radius", None, spectral_radius, split.residual,
            tol=1e-10, max_iter=20000,
        )
        tally.rho_converged.append(True)
    except SpectralRadiusError as exc:
        rho = exc.best_estimate
        tally.rho_converged.append(False)
    exact = exact_rho(split, tr)
    tally.rho_rel_err.append(abs(rho - exact) / exact)

    methods = list(workload.report_methods)
    steps = workload.report_steps
    records = tr.call("harness.run_comparison", None, run_comparison, a, b, theta, methods, steps)
    par = tr.call(
        "harness.run_comparison[executor]", None, run_comparison, a, b, theta, methods, steps,
        executor=pool,
    )
    strip = lambda recs: [(r.method, r.k, r.error_norm, r.predicted_bound, r.mmm_cum) for r in recs]
    if strip(records) != strip(par):
        problems.append("run_comparison with an executor differs from the serial run")

    mine = [r for r in records if r.method == m.name()]
    csv_sid = tr.open("probe.csv")
    text = tr.call("harness.records_to_csv", None, records_to_csv, mine)
    tr.close(csv_sid)
    io_s = tr.spans[load_sid].seconds + tr.spans[csv_sid].seconds
    tally.io_share.append(io_s / cli_seconds)
    if records_to_csv(parse_run_records(text)) != text:
        problems.append("CSV does not round-trip through parse_run_records")

    cond = tr.call("harness.condition_number", None, condition_number, a)
    kinds = {spec.name(): spec.kind for spec in methods}
    for r in records:
        scale = np.sqrt(a.shape[0]) if kinds[r.method] in INVERSION_KINDS else np.linalg.norm(theta)
        if r.error_norm > r.predicted_bound + cond * EPS * scale:
            tally.bound_violations += 1
    return problems


def probe_verify(seed: int, instances: int, index: int, tr, tally: ProbeTally) -> list[str]:
    """toolkit_check called directly, and every catalogue plan run once
    through nested_eval with its count checked."""
    problems: list[str] = []
    ok, _ = tr.call("harness.toolkit_check", None, toolkit_check, instances, 5, seed)
    if not ok:
        problems.append("toolkit_check reported a failure")
    rng = op_rng(seed, "probe", index)
    mat = rng.standard_normal((5, 5))
    a = square_matrix(mat @ mat.T / 5 + 0.5 * np.eye(5))
    split = split_scalar(a)
    catalogue = table_plans()
    plans = [
        (label, plan)
        for order in sorted(catalogue)
        for label, plan in zip(TABLE_LABELS[order], catalogue[order])
    ]
    plans += [(f"plan:{h}", plan_order(h)) for h in range(2, 46)]
    for label, plan in plans:
        ctr = MulCounter()
        tr.call(
            "series_toolkit.nested_eval", ctr, nested_eval,
            split.residual, split.precond, a, plan, ctr, form_y=True,
        )
        _count_check(tally, problems, f"nested_eval {label}", ctr.mmm, plan.mmm_cost)
    return problems


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(spans, tally: ProbeTally, dim: int) -> dict[str, float]:
    values: dict[str, float] = {}
    for stem, names in LAYER_SPANS.items():
        if stem == "series_toolkit.plan_search":
            # One cold search over 2..64 at set-up: report its total.
            lt = layer_times(spans, names, op="setup")
            values[f"{stem}_s"] = lt.total_s
            values[f"{stem}_self_s"] = lt.total_self_s
        else:
            lt = layer_times(spans, names)
            values[f"{stem}_s"] = lt.median_s
            values[f"{stem}_self_s"] = lt.median_self_s
        values[f"{stem}_calls"] = lt.calls

    gemm_s = values["matrix_core.gemm_s"]
    flops = 2.0 * dim**3
    values["matrix_core.gemm_gflops"] = flops / gemm_s * 1e-9 if gemm_s else 0.0
    # Computed from array sizes: two operands read, one result written.
    values["matrix_core.gemm_flop_per_byte_computed"] = flops / (3 * 8 * dim * dim)
    values["matrix_core.spectral_radius_converged_ratio"] = (
        sum(tally.rho_converged) / len(tally.rho_converged) if tally.rho_converged else 0.0
    )
    values["matrix_core.rho_rel_err"] = _median(tally.rho_rel_err)
    values["series_toolkit.mmm_mismatch"] = tally.mmm_mismatch

    # Steps taken inside solve ops (children of an op.solve span).
    solve_ops = {s.id for s in spans if s.name == "op.solve"}
    in_solve = [s for s in spans if s.parent in solve_ops]
    ns_steps = [s for s in in_solve if s.name in NS_STEPS]
    values["newton_schulz.mmm_per_step"] = _median([s.mmm for s in ns_steps])
    values["newton_schulz.steps_to_tol"] = _median(tally.steps_ns)
    step_time = sum(s.seconds for s in ns_steps)
    values["newton_schulz.gemm_share_computed"] = (
        sum(s.mmm for s in ns_steps) * gemm_s / step_time if step_time else 0.0
    )
    rich_steps = [s for s in in_solve if s.name in RICHARDSON_STEPS]
    values["richardson.mvm_per_step"] = _median([s.mvm for s in rich_steps])
    values["richardson.steps_to_tol"] = _median(tally.steps_richardson)
    values["harness.bound_violations"] = tally.bound_violations
    values["cli.io_share_computed"] = _median(tally.io_share)
    untraced = _median(tally.solve_untraced_s)
    values["trace.overhead_ratio"] = _median(tally.solve_traced_s) / untraced if untraced else 0.0
    values["trace.spans"] = len(spans)
    return values

