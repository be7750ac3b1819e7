"""Benchmark entry point for flowmaplab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for S seconds in this one process, checks
the program's outputs, and prints one JSON object as the last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import os
import sys
import time

_T_IMPORT = time.perf_counter()
# One process carries all load; BLAS gets at most the cores this process may use.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
OVERHEAD_PAIRS = 3


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def env_record() -> dict:
    import numpy as np
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"blas_threads": BLAS_THREADS, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "numpy": np.__version__, "python": sys.version.split()[0],
            "cpus": os.cpu_count()}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a sample (numpy's default method)."""
    import numpy as np
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def timed_rounds(wl, seconds: float, first: int = 0):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds, i = [], first
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < t_end:
        rounds.append(wl.run_round(i))
        i += 1
    return rounds


def end_to_end(rounds, setup_s: float) -> dict:
    lat = [v for r in rounds for v in r.op_ms]
    op_s = sum(r.op_s for r in rounds)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "op_ms_p50": {"value": quantile(lat, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": quantile(lat, 0.9), "unit": "ms"},
        "items_per_s": {"value": sum(r.items for r in rounds) / op_s, "unit": "1/s"},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "flowmaplab" / "__init__.py").is_file():
        return fail(f"flowmaplab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))

    import flowmaplab
    if Path(flowmaplab.__file__).resolve().parent != (SRC / "flowmaplab").resolve():
        return fail(f"imported flowmaplab from {flowmaplab.__file__}, not from {SRC}")
    import tracer
    import workloads
    import_s = time.perf_counter() - _T_IMPORT
    if args.workload not in workloads.NAMES:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")

    wl = workloads.make(args.workload, args.seed, OUT)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    trace_file = None
    if args.trace:
        tr = tracer.Tracer()
        t0 = time.perf_counter()
        rounds, overheads = [], []
        # the first round, untraced then traced, a few times: the median
        # difference is the tracing overhead of one round
        for rep in range(OVERHEAD_PAIRS):
            untraced = wl.run_round(0)
            tr.install()
            try:
                if rep == 0 and wl.op_kind == "request":
                    wl.setup()  # traced once: checkpoint save/load and input generation
                rounds.append(wl.run_round(0))
            finally:
                tr.uninstall()
            overheads.append(rounds[-1].op_s - untraced.op_s)
        tr.install()
        try:
            rounds += timed_rounds(wl, args.seconds - (time.perf_counter() - t0), 1)
        finally:
            tr.uninstall()
        overhead_s = statistics.median(overheads)
        phases = getattr(wl, "phases", None)
        metrics_raw = tracer.layer_metrics(tr.table(), wl.op_kind, phases,
                                           checkpoint_mb=wl.checkpoint_mb, overhead_s=overhead_s)
        metrics = {k: {"value": v, "unit": tracer.PER_LAYER_UNITS[k]}
                   for k, v in metrics_raw.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}.npz"
        tr.save(trace_file)
    else:
        rounds = timed_rounds(wl, args.seconds)
        metrics = end_to_end(rounds, setup_s)

    errors = wl.check()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "setup_runs_s": setups,
              "import_s": import_s, "env": env_record(), "errors": errors[:50],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "trace_file": None if trace_file is None else str(trace_file.relative_to(ROOT)),
              "correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"BLAS threads {env['blas_threads']}, {env['blas']}, numpy {env['numpy']}")
    for e in errors[:20]:
        print(f"# CHECK FAILED: {e}")
    for k, v in metrics.items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
