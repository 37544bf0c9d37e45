"""The closed loop: one client running ops in turn, and the metrics it yields."""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from pathlib import Path

import layers
import speed
import tracing
from workloads import (
    OpResult,
    Workload,
    op_rng,
    report_op,
    set_up,
    solve_op,
    verify_op,
    verify_seed,
)

OPS = ("solve", "report", "verify")


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    s = sorted(samples)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


class Client:
    """Runs ops one after another and keeps their results.

    ``probes`` is ``(executor, tally)`` in a traced run: each op is then
    followed by its layer probe, and each solve is also run untraced on the
    same input to measure the tracing overhead.  ``gauges`` (a
    :class:`speed.Gauges`) are read between ops at short intervals, so that
    the end-to-end times can be corrected for the host's speed.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, tracer, probes=None,
                 gauges: speed.Gauges | None = None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tr = tracer
        self.probes = probes
        self.gauges = gauges
        self.files = set_up(workload, seed, workdir, tracer)
        self.next_index = {kind: 0 for kind in OPS}
        self.results: list[OpResult] = []

    def run_op(self, kind: str) -> None:
        i = self.next_index[kind]
        self.next_index[kind] += 1
        self.tr.set_op(f"{kind}-{i}")
        if self.gauges is not None:
            self.gauges.maybe_read()
        start = time.perf_counter()
        try:
            result = getattr(self, f"_{kind}")(i)
        except Exception:
            result = OpResult(kind, "?", 0.0, None, [traceback.format_exc(limit=4)])
        result.start = start
        self.results.append(result)

    def _probe(self, name: str, fn, *args) -> list[str]:
        sid = self.tr.open(f"probe.{name}")
        try:
            return fn(*args)
        finally:
            self.tr.close(sid)

    def _solve(self, i: int) -> OpResult:
        wl = self.workload
        prob = wl.make_problem(op_rng(self.seed, "solve", i), self.tr)
        m = wl.solve_methods[i % len(wl.solve_methods)]
        if self.probes is None:
            return solve_op(prob, m, self.tr)
        pool, tally = self.probes
        # Alternate which of the pair runs first, so neither side always
        # finds the caches warm.
        untraced = lambda: solve_op(prob, m, tracing.NullTracer())
        plain = untraced() if i % 2 == 0 else None
        result = solve_op(prob, m, self.tr)
        plain = plain or untraced()
        tally.solve_untraced_s.append(plain.seconds)
        tally.solve_traced_s.append(result.seconds)
        steps = tally.steps_richardson if m.kind.startswith("richardson") else tally.steps_ns
        steps.append(result.steps)
        result.problems += self._probe("solve", layers.probe_solve, prob, m, self.tr, pool, tally)
        return result

    def _report(self, i: int) -> OpResult:
        wl = self.workload
        files = self.files[i % len(self.files)]
        m = wl.report_methods[i % len(wl.report_methods)]
        result = report_op(files, m, wl.report_steps, self.workdir / "report.csv", self.tr)
        if self.probes is not None:
            pool, tally = self.probes
            result.problems += self._probe(
                "report", layers.probe_report, files, m, wl, self.tr, pool, tally, result.seconds
            )
        return result

    def _verify(self, i: int) -> OpResult:
        seed = verify_seed(self.seed, i)
        instances = self.workload.verify_instances
        result = verify_op(seed, instances, self.tr)
        if self.probes is not None:
            result.problems += self._probe(
                "verify", layers.probe_verify, seed, instances, i, self.tr, self.probes[1]
            )
        return result

    def measure(self, seconds: float) -> None:
        """Whole cycles; a cycle starts only if, at the mean cycle time so
        far, it ends within ``seconds``.  At least one cycle runs."""
        start = time.perf_counter()
        cycles = 0
        while True:
            for kind in self.workload.cycle:
                self.run_op(kind)
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles > seconds:
                if self.gauges is not None:
                    self.gauges.read()
                return

    def failures(self) -> list[OpResult]:
        return [r for r in self.results if r.problems]


def corrected_seconds(client: Client, r: OpResult) -> float:
    """The op's wall time in seconds on the reference machine of the gauge
    its workload names for its kind."""
    gauge = client.gauges[client.workload.gauges[r.kind]]
    return r.seconds * gauge.scale(r.start, r.start + r.seconds)


def end_to_end(client: Client, setup: list[float]) -> dict[str, dict]:
    """Every end-to-end metric, each with its unit and sample count; failed
    ops count in ``fail_ratio`` and in no timing.  Times are corrected for
    the host's speed (see :mod:`speed`); ``setup`` is corrected already."""
    ok = [r for r in client.results if not r.problems]
    seconds = {id(r): corrected_seconds(client, r) for r in ok}
    metrics: dict[str, dict] = {}
    for kind in OPS:
        xs = [seconds[id(r)] for r in ok if r.kind == kind]
        tail_pct = client.workload.tail_percentiles[kind]
        for name, pct in ((f"{kind}_s_p50", 50.0), (f"{kind}_s_tail", tail_pct)):
            value = (statistics.median(xs) if pct == 50.0 else percentile(xs, pct)) if xs else 0.0
            metrics[name] = {
                "value": value,
                "unit": "s",
                "samples": len(xs),
                "percentile": pct,
                "beyond": sum(x > value for x in xs),
            }
    busy = sum(seconds.values())
    metrics["ops_per_s"] = {
        "value": len(ok) / busy if busy else 0.0,
        "unit": "1/s",
        "samples": len(ok),
    }
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "samples": 1}
    # Mean over the workload's (op, method) slots of each slot's median
    # count: exact, and independent of how many ops the run fitted in.
    per_slot = []
    for kind, method in client.workload.slots():
        counts = [r.mmm for r in ok if r.kind == kind and r.method == method]
        if counts:
            per_slot.append(statistics.median_low(counts))
    metrics["mmm_per_op"] = {
        "value": sum(per_slot) / len(per_slot) if per_slot else 0.0,
        "unit": "count",
        "samples": len(per_slot),
    }
    attempted = len(client.results)
    metrics["fail_ratio"] = {
        "value": (attempted - len(ok)) / attempted if attempted else 0.0,
        "unit": "ratio",
        "samples": attempted,
    }
    return metrics


def per_layer(client: Client, tracer, tally) -> dict[str, dict]:
    values = layers.per_layer_metrics(tracer.spans, tally, client.workload.dim)
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in layers.per_layer_names().items()
    }
