"""seriesinv benchmark: a closed loop of solve, report and verify ops.

Usage, from the root of the repository:

    python3 bench/run.py --workload harmonic-6 --seed 1 --seconds 30 --trace 0

One process, one client: each op starts only after the previous one has
returned, and each gets a fresh input drawn from ``--seed``.  The workload's
op cycle repeats until ``--seconds`` would be exceeded.  Every op's output is
checked; an op that raises, exits non-zero, writes a CSV that does not
round-trip, misses its tolerance, prints FAIL or counts a product the
prediction did not is counted as failed.  Wall time is never a failure.

End-to-end times are corrected for the host's speed by the gauges of
:mod:`speed`, read between ops; the raw wall times go to the run record.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
cycle with spans around every package call plus the layer probes of
:mod:`layers`, and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it show every metric with its
unit and sample count.  A fuller record (environment, tail percentiles,
raw op times, failures) goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``
and, for traced runs, the spans to ``bench/out/spans_<workload>_seed<seed>.jsonl``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads.  One thread keeps the numbers
# steady on a small shared machine, and 2 executor workers x 1 thread stay
# within nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import platform
import shutil
import statistics
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
# Gauge readings taken before and after each set-up probe.
SETUP_READINGS = 5
# The package comes from this checkout's src; the benchmark's own modules
# from its directory.
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def check_package() -> None:
    """Fail unless seriesinv imports from this checkout's ``src``."""
    src = ROOT / "src"
    try:
        import seriesinv
    except ImportError as exc:
        raise SystemExit(f"error: cannot import seriesinv from {src}: {exc}")
    if Path(seriesinv.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: seriesinv was imported from {seriesinv.__file__}, not {src}")


# CPUs this process may run on, taken before an untraced run pins itself.
NPROC = len(os.sched_getaffinity(0))


def executor_workers() -> int:
    return max(1, min(2, NPROC // BLAS_THREADS))


def pin_to_current_cpu() -> int:
    """Keep this process, and the set-up probes it starts, on the CPU it is
    on now, so that the speed gauges read the CPU the ops run on; the vCPUs
    of a shared host run at different speeds at the same moment."""
    cpu = ctypes.CDLL(None).sched_getcpu()
    if cpu not in os.sched_getaffinity(0):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _blas_runtime_threads() -> int | None:
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(pinned_cpu: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = _read("/proc/cpuinfo") or ""
    models = [ln.split(":", 1)[1].strip() for ln in cpu.splitlines() if ln.startswith("model name")]
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": NPROC,
        "pinned_cpu": pinned_cpu,
        "cpu_model": models[0] if models else None,
        "caches": caches,
        "executor_workers": executor_workers(),
    }


def setup_samples(workload: str, seed: int, gauge) -> list[float]:
    """Seconds from process start to ready-for-the-first-op, for fresh
    processes doing the full set-up: import, input files, plan search.
    Each is corrected for the host's speed by gauge readings taken just
    before and just after it."""
    samples = []
    for k in range(SETUP_PROBES):
        for _ in range(SETUP_READINGS):
            gauge.read()
        workdir = OUT_DIR / f"setup-{workload}-{seed}-{os.getpid()}-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--setup-only", str(workdir)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        shutil.rmtree(workdir, ignore_errors=True)
        if rc != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
        for _ in range(SETUP_READINGS):
            gauge.read()
        samples.append((t1 - t0) * gauge.recent_scale(2 * SETUP_READINGS))
    return samples


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds < 0:
        ap.error("--seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    check_package()
    import speed
    import tracing
    from client import Client, end_to_end, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True, exist_ok=True)
        Client(workload, args.seed, workdir, tracing.NullTracer())
        print("ready", flush=True)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    # The traced run keeps every CPU: its executor probes use two workers.
    pinned_cpu = None if args.trace else pin_to_current_cpu()
    gauges = speed.Gauges(workload.gauges.values())
    setup_gauge = speed.Gauge("python")
    setup = setup_samples(workload.name, args.seed, setup_gauge) if not args.trace else []
    workdir = OUT_DIR / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            import layers

            tracer = tracing.Tracer()
            tally = layers.ProbeTally()
            with ThreadPoolExecutor(max_workers=executor_workers()) as pool:
                client = Client(workload, args.seed, workdir, tracer, probes=(pool, tally))
                layers.probe_setup(tracer)
                client.measure(args.seconds)
            metrics = per_layer(client, tracer, tally)
            tracer.write(OUT_DIR / f"spans_{workload.name}_seed{args.seed}.jsonl")
        else:
            client = Client(workload, args.seed, workdir, tracing.NullTracer(), gauges=gauges)
            client.measure(args.seconds)
            metrics = end_to_end(client, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r.kind, r.method, r.problems) for r in client.failures()]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(pinned_cpu),
        "attempted": len(client.results),
        "failed": len(failures),
        "metrics": metrics,
        "op_wall_seconds": {
            kind: [r.seconds for r in client.results if r.kind == kind and not r.problems]
            for kind in ("solve", "report", "verify")
        },
        "setup_seconds": setup,
        "gauge_seconds": {
            "setup": setup_gauge.seconds,
            **{g.name: g.seconds for g in gauges.by_name.values()},
        },
        "failures": failures[:20],
    }
    result_path = OUT_DIR / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for kind, method, problems in failures[:5]:
        print(f"FAILED {kind} {method}: {problems}", file=sys.stderr)
    env = record["environment"]
    facts = " ".join(f"{k}={v}" for k, v in env.items() if k != "caches")
    print(f"# {workload.name} seed={args.seed} {facts}")
    print(f"# caches: {env['caches']}")
    for g in gauges.by_name.values():
        print(f"# gauge {g.name}: {len(g.seconds)} readings, median {statistics.median(g.seconds):.6g} s,"
              f" nominal {g.nominal_s:g} s")
    print(f"# end-to-end times are corrected to the gauges' nominal speed: {workload.gauges}")
    for name, m in metrics.items():
        extra = ""
        if "samples" in m:
            extra = f"  n={m['samples']}"
        if "percentile" in m:
            extra += f"  p{m['percentile']:g} ({m['beyond']} beyond)"
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}{extra}")
    shown = [name for name in metrics if name != "fail_ratio"]
    print(json.dumps({
        "correct": not failures,
        "attempted": len(client.results),
        "failed": len(failures),
        "metrics": {name: {k: metrics[name][k] for k in ("value", "unit")} for name in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
