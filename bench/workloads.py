"""Workloads, seeded inputs and the three ops of the seriesinv benchmark.

Ops (the units an end-to-end timing measures):

* ``solve``  - the library path: ``split_scalar``, an initial state, then
  steps until ``||I - G A||_F <= 1e-10`` (inversion) or
  ``||theta - theta*|| / ||theta*|| <= 1e-10`` (estimation), with a step cap.
  It never calls ``spectral_radius``.
* ``report`` - the CLI path: ``seriesinv invert|solve`` run in-process
  through ``cli.main`` on matrix/rhs/theta files written at set-up, writing
  a CSV.
* ``verify`` - one ``seriesinv verify-tables`` pass at dim 5 with a seed
  drawn from the workload seed.  plan-catalogue runs the CLI default of 50
  instances; the other workloads run 5, so that an op they carry only to
  report every metric does not crowd out their own ops.

Every op input is drawn from ``op_rng(seed, kind, index)``, so the same
seed gives the same inputs and op ``i`` of a kind always sees the same one.
Every workload runs all three ops; its cycle fixes how often each runs, so
the op mix, and with it ``mmm_per_op`` and ``ops_per_s``, does not depend
on timing.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from seriesinv import cli
from seriesinv.harness import (
    HarmonicRegressorSpec,
    MethodSpec,
    gen_harmonic_matrix,
    parse_run_records,
    records_to_csv,
    series_params,
)
from seriesinv.matrix_core import save_matrix, save_vector, square_matrix, vector
from seriesinv.newton_schulz import (
    CompositeSpec,
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
    MAX_PLAN_ORDER,
    TABLE_LABELS,
    factored_mmm,
    plan_order,
    table_plans,
)
from seriesinv.splitting import split_scalar

TOL = 1e-10
STEP_CAP = 20
INVERSION_KINDS = ("ns", "double", "composite", "sri")
KIND_CODES = {"solve": 1, "report": 2, "verify": 3, "probe": 4}
# verify-tables checks every catalogue table plus plan_order(2..45).
VERIFY_PLAN_LINES = sum(len(labels) for labels in TABLE_LABELS.values()) + 44


def op_rng(seed: int, kind: str, index: int) -> np.random.Generator:
    """The generator behind input ``index`` of op kind ``kind``."""
    return np.random.default_rng([seed, KIND_CODES[kind], index])


def verify_seed(seed: int, index: int) -> int:
    return int(op_rng(seed, "verify", index).integers(2**31))


@dataclass(frozen=True)
class Problem:
    a: np.ndarray
    b: np.ndarray
    theta: np.ndarray


def harmonic_problem(rng: np.random.Generator, tr) -> Problem:
    """Three crowded frequencies around the paper's fixture: a base in
    [0.08, 0.14], spacings 0.01 +- 0.002, 80 samples, random theta*."""
    base = rng.uniform(0.08, 0.14)
    gaps = rng.uniform(0.008, 0.012, size=2)
    spec = HarmonicRegressorSpec(
        frequencies=(base, base + gaps[0], base + gaps[0] + gaps[1]),
        num_samples=80,
        theta_star=tuple(rng.standard_normal(6)),
    )
    a, b, theta = tr.call("harness.gen_harmonic_matrix", None, gen_harmonic_matrix, spec)
    return Problem(a, b, theta)


def spd_family(dim: int) -> Callable[[np.random.Generator, object], Problem]:
    """Random SPD matrices ``m m^T / dim + 0.5 I`` with a random theta*."""

    def make(rng: np.random.Generator, tr) -> Problem:
        m = rng.standard_normal((dim, dim))
        a = square_matrix(m @ m.T / dim + 0.5 * np.eye(dim))
        theta = vector(rng.standard_normal(dim))
        return Problem(a, vector(a @ theta), theta)

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    make_problem: Callable[[np.random.Generator, object], Problem]
    solve_methods: tuple[MethodSpec, ...]
    report_methods: tuple[MethodSpec, ...]
    report_steps: int
    report_files: int
    cycle: tuple[str, ...]
    verify_instances: int
    # Tail percentile per op: a high percentile with at least ten samples
    # beyond it at the 30-second run length, at most p90 so that it stays
    # clear of the rare stalls whose number varies from run to run.  Where an
    # op gets fewer than twenty samples no percentile above the median has
    # ten beyond it; the tail is then p75 (the second highest of five), as
    # the maximum of so few moves by a fifth between runs of the same code.
    tail_percentiles: dict[str, float]
    # Op kind -> the speed gauge (see :mod:`speed`) its times are corrected
    # by: the reference that matches what the op spends its time on.
    gauges: dict[str, str]

    def slots(self) -> list[tuple[str, str]]:
        """Every (op kind, method) pair the workload runs."""
        return [("solve", m.name()) for m in self.solve_methods] + [
            ("report", m.name()) for m in self.report_methods
        ]


def _m(kind: str, order: int, h: int, q: int | None = None, rates=()) -> MethodSpec:
    return MethodSpec(kind=kind, order=order, h=h, q=q, rates=tuple(rates))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="harmonic-6",
            why="dim-6 harmonic fixtures: GEMMs cost microseconds, so per-call "
            "Python work in validation, steps and dispatch dominates",
            dim=6,
            make_problem=harmonic_problem,
            solve_methods=(
                _m("double", 3, 16),
                _m("richardson", 3, 16, q=3),
                _m("richardson-recursive", 3, 16, q=3),
            ),
            report_methods=(
                _m("ns", 3, 16),
                _m("double", 3, 16),
                _m("composite", 3, 16, rates=(5, 7)),
                _m("sri", 3, 16),
                _m("richardson", 3, 16, q=3),
                _m("richardson-recursive", 3, 16, q=3),
                _m("ns-estimator", 3, 16),
            ),
            report_steps=5,
            report_files=256,
            cycle=("solve",) * 60 + ("report",) * 7 + ("verify",),
            verify_instances=5,
            tail_percentiles={"solve": 90.0, "report": 90.0, "verify": 70.0},
            gauges={"solve": "python", "report": "python", "verify": "python"},
        ),
        Workload(
            name="spd-512",
            why="random SPD n=512: GEMMs and 2 MB temporaries dominate solve; "
            "the Python Cholesky and the capped power iteration dominate report",
            dim=512,
            make_problem=spd_family(512),
            solve_methods=(
                _m("double", 2, 4),
                _m("richardson-recursive", 2, 4, q=2),
                _m("composite", 2, 4, rates=(17, 45)),
            ),
            # One report method: a cycle holds one report, so rotating
            # methods would make the report mix depend on the cycle count.
            report_methods=(_m("double", 2, 4),),
            report_steps=4,
            report_files=2,
            cycle=("solve",) * 6 + ("report",) + ("verify",) * 6,
            verify_instances=5,
            tail_percentiles={"solve": 55.0, "report": 75.0, "verify": 55.0},
            gauges={"solve": "blas", "report": "blas", "verify": "python"},
        ),
        Workload(
            name="plan-catalogue",
            why="verify-tables at dim 5 runs every plan node kind (Horner, Split, "
            "PrimeWrap, TableForm, plan_order search) while splitting does little",
            dim=5,
            make_problem=spd_family(5),
            solve_methods=(
                _m("ns", 7, 5),
                _m("ns", 11, 1),
                _m("composite", 2, 1, rates=(17, 45)),
                _m("richardson-recursive", 3, 1, q=3),
            ),
            report_methods=(
                _m("composite", 2, 5, rates=(7, 15)),
                _m("sri", 3, 9),
            ),
            report_steps=5,
            report_files=128,
            cycle=("verify",) + ("solve",) * 4 + ("report",) * 2,
            verify_instances=50,
            tail_percentiles={"solve": 90.0, "report": 89.0, "verify": 78.0},
            gauges={"solve": "python", "report": "python", "verify": "python"},
        ),
    )
}


# ---------------------------------------------------------------------------
# Predicted counts.  Initial series and geometric sums take their counts from
# the package (factored_mmm, plan_order(...).mmm_poly); the per-step counts
# of each step function are pinned here.
# ---------------------------------------------------------------------------


def init_counts(m: MethodSpec) -> tuple[int, int]:
    """(mmm, mvm) of the initial state, record k = 0."""
    base = 0 if m.h == 1 else factored_mmm(*series_params(m.h))
    if m.kind == "double":
        return base + m.order, 0
    if m.kind in ("richardson", "richardson-recursive"):
        return base + m.order, 1
    if m.kind == "ns-estimator":
        return base, 1
    return base, 0


def _geometric_mmm(rate: int) -> int:
    return 0 if rate == 1 else plan_order(rate).mmm_poly


def step_counts(m: MethodSpec, k: int, planned: bool = False) -> tuple[int, int]:
    """(mmm, mvm) of step ``k >= 1``.  ``planned`` selects the ns step that
    evaluates its sum through ``plan_order(n)`` instead of Horner."""
    n = m.order
    if m.kind in ("ns", "ns-estimator"):
        mmm = plan_order(n).mmm_poly + 1 if planned else n
        return mmm, 1 if m.kind == "ns-estimator" else 0
    if m.kind == "double":
        return 2 * n + 2, 0
    if m.kind == "composite":
        units = sum(_geometric_mmm(r) + 1 for r in m.rates) + 2 * (len(m.rates) - 1)
        return units + (n - 1) + 2, 0
    if m.kind == "sri":
        return n + 2, 0
    if m.kind == "richardson":
        q = n if m.q is None else m.q
        return 2 * n + 2 + q, 2
    if m.kind == "richardson-recursive":
        return (3 * n + 2 if k == 1 else 2 * n + 2), 2
    raise ValueError(f"unknown method kind {m.kind!r}")


def predicted_counts(m: MethodSpec, steps: int, planned: bool = False) -> tuple[int, int]:
    mmm, mvm = init_counts(m)
    for k in range(1, steps + 1):
        dm, dv = step_counts(m, k, planned)
        mmm, mvm = mmm + dm, mvm + dv
    return mmm, mvm


# ---------------------------------------------------------------------------
# Ops.  Each returns an OpResult; ``problems`` lists every way the output
# was wrong, and an op with problems counts as failed.
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    kind: str
    method: str
    seconds: float
    mmm: int | None
    problems: list[str]
    steps: int | None = None
    # perf_counter() when the op started.
    start: float = 0.0


def _timed(tr, kind: str, fn, *args):
    """Run ``fn`` as op ``kind``; returns (seconds, result)."""
    sid = tr.open(f"op.{kind}")
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        seconds = time.perf_counter() - t0
        tr.close(sid)
    return seconds, out


def _solve_body(prob: Problem, m: MethodSpec, tr):
    a, b = prob.a, prob.b
    split = tr.call("splitting.split_scalar", None, split_scalar, a)
    p, w = series_params(m.h)
    n = m.order
    if m.kind in ("richardson", "richardson-recursive"):
        stepper = richardson_step if m.kind == "richardson" else richardson_recursive_step
        name = f"richardson.{stepper.__name__}"
        st = tr.call(
            "richardson.initial_richardson", None, initial_richardson, split, b, p, w, n, m.q
        )
        ref = float(np.linalg.norm(prob.theta))
        while np.linalg.norm(st.theta - prob.theta) > TOL * ref and st.step < STEP_CAP:
            st = tr.call(name, st.ctr, stepper, st, a, b)
        return st.theta, st.step, st.ctr
    if m.kind == "double":
        st = tr.call("newton_schulz.initial_double", None, initial_double, split, p, w, n)
        step = lambda s: tr.call("newton_schulz.double_ns_step", s.ctr, double_ns_step, s, a)
    elif m.kind == "ns":
        st = tr.call("newton_schulz.initial_series", None, initial_series, split, p, w, n)
        plan = plan_order(n)
        step = lambda s: tr.call("newton_schulz.ns_step", s.ctr, ns_step, s, a, plan)
    elif m.kind == "composite":
        st = tr.call("newton_schulz.initial_series", None, initial_series, split, p, w, n)
        spec = CompositeSpec(rates=m.rates)
        step = lambda s: tr.call(
            "newton_schulz.composite_step", s.ctr, composite_step, s, a, split, spec, n
        )
    else:
        raise ValueError(f"no solve op for method kind {m.kind!r}")
    while np.linalg.norm(st.residual) > TOL and st.step < STEP_CAP:
        st = step(st)
    return st.estimate, st.step, st.ctr


def solve_op(prob: Problem, m: MethodSpec, tr) -> OpResult:
    seconds, (estimate, steps, ctr) = _timed(tr, "solve", _solve_body, prob, m, tr)
    problems = []
    if m.kind in INVERSION_KINDS:
        err = float(np.linalg.norm(np.eye(prob.a.shape[0]) - estimate @ prob.a))
        if not err <= TOL:
            problems.append(f"||I - G A||_F = {err:.3e} after {steps} steps")
    else:
        err = float(np.linalg.norm(estimate - prob.theta) / np.linalg.norm(prob.theta))
        if not err <= TOL:
            problems.append(f"relative theta error {err:.3e} after {steps} steps")
    want = predicted_counts(m, steps, planned=m.kind == "ns")
    if (ctr.mmm, ctr.mvm) != want:
        problems.append(f"counted (mmm, mvm) = {(ctr.mmm, ctr.mvm)}, predicted {want}")
    return OpResult("solve", m.name(), seconds, ctr.mmm, problems, steps)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@dataclass(frozen=True)
class ReportFiles:
    matrix: str
    rhs: str
    theta: str


def write_report_files(workload: Workload, seed: int, workdir: Path, tr) -> list[ReportFiles]:
    files = []
    for i in range(workload.report_files):
        prob = workload.make_problem(op_rng(seed, "report", i), tr)
        stem = workdir / f"input-{i}"
        paths = ReportFiles(f"{stem}.mat", f"{stem}.rhs", f"{stem}.theta")
        tr.call("matrix_core.save_matrix", None, save_matrix, paths.matrix, prob.a)
        tr.call("matrix_core.save_vector", None, save_vector, paths.rhs, prob.b)
        tr.call("matrix_core.save_vector", None, save_vector, paths.theta, prob.theta)
        files.append(paths)
    return files


def set_up(workload: Workload, seed: int, workdir: Path, tr) -> list[ReportFiles]:
    """Everything before the first timed op: the lazy plan search and
    catalogue build, then the report input files."""
    tr.set_op("setup")
    for h in range(2, MAX_PLAN_ORDER + 1):
        tr.call("series_toolkit.plan_order", None, plan_order, h)
    tr.call("series_toolkit.table_plans", None, table_plans)
    return write_report_files(workload, seed, workdir, tr)


def report_argv(m: MethodSpec, files: ReportFiles, steps: int, csv_path: str) -> list[str]:
    common = ["--method", m.kind, "--order", str(m.order), "--h", str(m.h)]
    common += ["--steps", str(steps), "--csv", csv_path]
    if m.kind in INVERSION_KINDS:
        argv = ["invert", "--matrix", files.matrix] + common
        if m.rates:
            argv += ["--rates", ",".join(str(r) for r in m.rates)]
        return argv
    argv = ["solve", "--matrix", files.matrix, "--rhs", files.rhs, "--theta-star", files.theta]
    argv += common
    if m.q is not None:
        argv += ["--q", str(m.q)]
    return argv


def check_report_csv(text: str, m: MethodSpec, steps: int) -> tuple[list[str], int | None]:
    """Problems with a report CSV, and its final counted mmm."""
    try:
        records = parse_run_records(text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"], None
    problems = []
    if records_to_csv(records) != text:
        problems.append("CSV does not round-trip through parse_run_records")
    if [r.k for r in records] != list(range(steps + 1)):
        problems.append(f"CSV steps {[r.k for r in records]}, expected 0..{steps}")
    for r in records:
        if r.method != m.name():
            problems.append(f"CSV method {r.method!r}, expected {m.name()!r}")
        want = predicted_counts(m, r.k)[0]
        if r.mmm_cum != want:
            problems.append(f"k={r.k}: counted mmm {r.mmm_cum}, predicted {want}")
        if not np.isfinite(r.error_norm):
            problems.append(f"k={r.k}: non-finite error")
    return problems, records[-1].mmm_cum if records else None


def report_op(files: ReportFiles, m: MethodSpec, steps: int, csv_path: Path, tr) -> OpResult:
    if csv_path.exists():
        csv_path.unlink()
    argv = report_argv(m, files, steps, str(csv_path))
    seconds, (rc, output) = _timed(
        tr, "report", lambda: tr.call("cli.main", None, run_cli, argv)
    )
    if rc != 0:
        return OpResult("report", m.name(), seconds, None, [f"exit {rc}: {output.strip()}"])
    problems, mmm = check_report_csv(csv_path.read_text(encoding="utf-8"), m, steps)
    return OpResult("report", m.name(), seconds, mmm, problems)


def check_verify_output(rc: int, output: str) -> list[str]:
    lines = output.splitlines()
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}")
    if not lines or lines[-1] != "PASS":
        problems.append("last line is not PASS")
    bad = [ln for ln in lines if "FAIL" in ln]
    if bad:
        problems.append(f"FAIL lines: {bad[:3]}")
    if len(lines) != VERIFY_PLAN_LINES + 1:
        problems.append(f"{len(lines) - 1} plan lines, expected {VERIFY_PLAN_LINES}")
    return problems


def verify_op(seed: int, instances: int, tr) -> OpResult:
    argv = ["verify-tables", "--instances", str(instances), "--seed", str(seed)]
    seconds, (rc, output) = _timed(
        tr, "verify", lambda: tr.call("cli.main[verify-tables]", None, run_cli, argv)
    )
    return OpResult("verify", "verify-tables", seconds, None, check_verify_output(rc, output))
