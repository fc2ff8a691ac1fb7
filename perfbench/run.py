"""Block-level benchmark of littlebit: compress, decode and prefill of one
Llama2-7B block, end to end (untraced) and per module (traced).

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs per process, with one caller in a closed loop. The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The lines before it give the environment stamp and each
figure by name with its unit. ``--workload all`` runs every workload in
its own process and prints all of their figures.

A traced run first measures untraced for ``--seconds``, then runs a fixed
number of operations with a span around every call into the public
functions of the tensor, dualsvid, bitpack, layer, qat and cli modules,
and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("compress", "decode", "prefill")
SETUP_REPEATS = 5
# Operations in the traced phase: fixed, so that every span count repeats
# exactly for a given seed.
TRACE_OPS = {"compress": 7, "decode": 64, "prefill": 4}
RUN_TIMEOUT_S = 180

# BLAS reads its thread count when numpy loads it, so it is fixed here,
# before numpy is imported, at the CPUs this process may run on.
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("LITTLEBIT_THREADS", None)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be
    asked (no OpenBLAS, or not on Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def env_stamp() -> dict:
    import numpy as np
    import littlebit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"kernel_backend": littlebit.kernel_backend(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": blas_threads_in_effect(),
            "blas_threads_requested": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def run_phase(work, first: int, seconds=None, count=None, recorder=None):
    """Closed loop of operations numbered from *first*: *count* of them, or
    as many as fit in *seconds* once the workload has a full measurement.
    Returns the wall time of each in ns."""
    op_ns = []
    deadline = time.perf_counter_ns() + int((seconds or 0) * 1e9)
    i = first
    while True:
        if recorder is not None:
            recorder.run_id = i
        t0 = time.perf_counter_ns()
        result = work.op(i)
        t1 = time.perf_counter_ns()
        op_ns.append(t1 - t0)
        work.keep(i, result)
        i += 1
        if count is not None:
            if len(op_ns) >= count:
                return op_ns
        elif t1 >= deadline and work.full(len(op_ns)):
            return op_ns


def run_workload(args) -> int:
    import workloads
    import tracing

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    stamp = env_stamp()
    print("env " + json.dumps(stamp))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        work = workloads.make(args.workload, args.seed, workdir)
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            work.setup()
            setup_s.append(time.perf_counter() - t0)
        op_ns = run_phase(work, 0, seconds=args.seconds)
        peak_rss = workloads.peak_rss_mb()
        traced_ns = []
        if args.trace:
            recorder = tracing.SpanRecorder()
            with tracing.installed(recorder):
                traced_ns = run_phase(work, len(op_ns),
                                      count=TRACE_OPS[args.workload],
                                      recorder=recorder)
        failed = work.check()
        figures = work.figures(0, op_ns)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_ms = work.pass_ms(0, op_ns)
    for name, (value, unit) in figures.items():
        print(f"figure {args.workload} {name} {value!r} {unit}")
    if args.trace:
        values = {}
        for name, agg in tracing.summarize(recorder.spans).items():
            for field, v in agg.items():
                values[f"{name}.{field}"] = v
        traced = range(len(op_ns), len(op_ns) + len(traced_ns))
        values.update({k: v for k, (v, _) in work.layer_metrics(traced).items()})
        values.update({k: v for k, (v, _) in figures.items()})
        values["trace.overhead_ms"] = (work.pass_ms(len(op_ns), traced_ns)
                                       - pass_ms)
        recorder.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                       {"workload": args.workload, "seed": args.seed,
                        "env": stamp})
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "block_pass_ms": pass_ms, "peak_rss_mb": peak_rss}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"metric {args.workload} {name} {m['value']!r} {m['unit']}")
    attempted = len(op_ns) + len(traced_ns)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; relays their lines and ends with
    one JSON object whose metrics are named workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "littlebit" / "__init__.py").is_file():
        print(f"error: no littlebit package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # The package is imported from this checkout's sources, not from any
    # installed copy, and only after the BLAS threads are fixed.
    sys.path.insert(0, str(src))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
