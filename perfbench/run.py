"""Benchmark for liebeq: seeded workloads run through the public API.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; liebeq is imported from ``src/``.
Workloads (see workloads.py): ``verify-sweep``, ``identity-sweep`` and
``interval-solve``.  The seed fixes every input; the op batch is generated
before timing, one warm-up pass at the workload's largest size runs first,
and the batch is then repeated while another repetition still fits into
``--seconds`` (judged by the longest so far; at least one always runs).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time of
several fresh ``python -c "import liebeq.cli"`` processes), and ``wall_s`` and
``cpu_s``, the batch's wall and process CPU time with each op taken at its
fastest repetition in the run.  Best-of repetitions rather than medians: on a
shared 2-core host the same code runs up to 1.6 times slower from one stretch
of seconds to the next, and interference only ever adds time, so each op's
fastest repetition is the figure that repeats best from run to run.  The p50
and p90 of each op's fastest latency are printed on the report line only:
the op latencies are spread so thinly around those ranks that the seed alone
moves them by a quarter.  ``--trace 1``
alternates untraced and traced batches and prints the per-layer metrics of
spans.py, the ``-X importtime`` split of the import, the verdict counts and
``trace.overhead_s`` (traced minus untraced ``wall_s``); its spans are
written to ``.bench_out/`` when the run ends.

Each op's result is checked.  Failed ops are listed with their inputs on the
line before the result; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5
IMPORTED = {"liebeq": "setup.import.liebeq_s",
            "scipy.interpolate": "setup.import.scipy_interpolate_s",
            "scipy.optimize": "setup.import.scipy_optimize_s"}
_IMPORTTIME = re.compile(r"^import time:\s+\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn_import(extra: list) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *extra, "-c", "import liebeq.cli"],
                          cwd=ROOT, env=_spawn_env(), capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import liebeq.cli failed in a fresh process:\n{proc.stderr}")
    return proc


def setup_seconds() -> float:
    """Median wall time from a fresh interpreter to ``import liebeq.cli`` done."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        _spawn_import([])
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_split() -> dict:
    """Median cumulative ``-X importtime`` seconds of liebeq and the scipy
    subpackages it pulls in, each over fresh processes (0 when not imported)."""
    samples = {metric: [] for metric in IMPORTED.values()}
    for _ in range(SETUP_SPAWNS):
        seen = {}
        for line in _spawn_import(["-X", "importtime"]).stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in IMPORTED:
                seen[IMPORTED[m.group(2)]] = int(m.group(1)) * 1e-6
        for metric, values in samples.items():
            values.append(seen.get(metric, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process (Linux only)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def environment() -> dict:
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def run_batch(ops: list, recorder=None) -> dict:
    """Run every op once; return each op's wall and CPU time and outcome."""
    from workloads import Outcome

    results, latencies, cpus = [], [], []
    for op in ops:
        t0, c0 = perf_counter(), process_time()
        span = recorder.open(spans.OP) if recorder else None
        try:
            results.append((op.call(), None))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            results.append((None, f"{type(exc).__name__}: {exc}"))
        if recorder:
            recorder.close(span)
        latencies.append(perf_counter() - t0)
        cpus.append(process_time() - c0)
    outcomes = [op.check(result) if error is None else Outcome(False, False, error)
                for op, (result, error) in zip(ops, results)]
    return {"latencies": latencies, "cpus": cpus, "outcomes": outcomes}


def repeat(seconds: float, step) -> list:
    """Call ``step`` while another call, as long as the longest so far, still
    ends within ``seconds`` of the start; at least once.  Returns the results."""
    results, longest, start = [], 0.0, perf_counter()
    while not results or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        results.append(step())
        longest = max(longest, perf_counter() - t0)
    return results


def fastest(batches: list, key: str = "latencies") -> float:
    """Batch time with each op at its fastest repetition among ``batches``."""
    return sum(min(times) for times in zip(*(b[key] for b in batches)))


def traced_batch(ops: list) -> tuple:
    recorder = spans.Recorder()
    installed = spans.Installed(recorder)
    try:
        batch = run_batch(ops, recorder)
    finally:
        installed.remove()
    return batch, recorder


def _summarize(ops: list, batches: list) -> tuple:
    """(correct, failed op listing, verdict metrics) over every batch run."""
    failed, wrong, violations = [], False, 0
    for i, op in enumerate(ops):
        outs = [b["outcomes"][i] for b in batches]
        wrong = wrong or any(o.wrong for o in outs)
        violations += outs[0].bound_violations
        if not all(o.passed for o in outs) or len({o.label for o in outs}) > 1:
            failed.append({"kind": op.kind, **op.inputs,
                           "outcome": " | ".join(sorted({o.label for o in outs})),
                           "wrong": any(o.wrong for o in outs)})
    verdicts = {"fail_ratio": len(failed) / len(ops), "bound_violations": violations}
    return not wrong, failed, verdicts


def _write_spans(path: Path, recorders: list) -> None:
    arrays = {f"batch{i}_{k}": v for i, rec in enumerate(recorders)
              for k, v in rec.arrays().items()}
    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(path, **arrays)


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics(args.trace)

    if not (SRC / "liebeq" / "__init__.py").is_file():
        raise BenchError(f"no liebeq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import liebeq
    if Path(liebeq.__file__).resolve().parent != (SRC / "liebeq").resolve():
        raise BenchError(f"liebeq imported from {liebeq.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    generate, warmup = WORKLOADS[args.workload]
    ops = generate(np.random.default_rng(args.seed))
    run_batch(warmup())

    metrics, report = {}, {"workload": args.workload, "seed": args.seed}
    if args.trace == 0:
        metrics["setup_s"] = setup_seconds()
        batches = repeat(args.seconds, lambda: run_batch(ops))
        metrics["wall_s"] = fastest(batches)
        metrics["cpu_s"] = fastest(batches, "cpus")
        best = [min(lat) for lat in zip(*(b["latencies"] for b in batches))]
        report["op_latencies"] = {"ops": len(best), "p50_s": statistics.median(best),
                                  "p90_s": statistics.quantiles(best, n=10)[-1]}
    else:
        metrics.update(import_split())
        pairs = repeat(args.seconds, lambda: (run_batch(ops), *traced_batch(ops)))
        batches = [b for plain, traced, _ in pairs for b in (plain, traced)]
        recorders = [recorder for _, _, recorder in pairs]
        layers = [spans.layer_metrics(recorder) for recorder in recorders]
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        metrics["trace.overhead_s"] = (fastest([traced for _, traced, _ in pairs])
                                       - fastest([plain for plain, _, _ in pairs]))
        _write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz", recorders)

    correct, failed, verdicts = _summarize(ops, batches)
    if args.trace == 1:
        metrics.update(verdicts)
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    report.update(batches=len(batches), environment=environment(), failed_ops=failed)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": declared[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
