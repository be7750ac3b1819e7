"""Print the minor page faults and wall time of each training step kind.

    python3 tools/step_faults.py --task gaussian2d --setting lsd \
        --fm 1 --cfg 1 --dpre 1 --adv 6 --seed 0

Runs one `train` in this process, with BLAS pinned to one thread, the
given step counts and every other `PhasePlan` field at its default.
`train` draws one batch per step, so `task.sample` is wrapped to stamp
`ru_minflt` and `perf_counter` at each call; the stamps are the step
boundaries, as in perfbench's stamped tasks, and the last step ends when
`train` returns.
Prints one JSON line, per step kind (fm, fmsd, cfg, dpre, adv, in the
order `train` runs them): the number of steps, the median faults and ms per
step, and each step's faults and ms.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flowmaplab.runtime import PhasePlan, make_task, train  # noqa: E402

KINDS = (("fm", "fm_steps"), ("fmsd", "fmsd_steps"), ("cfg", "cfg_steps"),
         ("dpre", "d_pretrain_steps"), ("adv", "adv_steps"))


def step_faults(task_name: str, plan: PhasePlan, seed: int) -> dict:
    """Per step kind: {"n", "faults_p50", "ms_p50", "faults", "ms"}."""
    task = make_task(task_name)
    stamps: list[tuple[int, float]] = []
    draw = task.sample

    def stamped(*args, **kwargs):
        stamps.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
                       time.perf_counter()))
        return draw(*args, **kwargs)

    task.sample = stamped
    train(plan, task, seed=seed)
    stamps.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()))
    steps = [(f1 - f0, (t1 - t0) * 1e3) for (f0, t0), (f1, t1) in zip(stamps, stamps[1:])]
    out, i = {}, 0
    for kind, field in KINDS:
        n = getattr(plan, field)
        faults, ms = [f for f, _ in steps[i:i + n]], [m for _, m in steps[i:i + n]]
        i += n
        if n:
            out[kind] = {"n": n, "faults_p50": statistics.median(faults),
                         "ms_p50": round(statistics.median(ms), 3),
                         "faults": faults, "ms": [round(m, 3) for m in ms]}
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--task", choices=("gaussian2d", "texture_sr"), default="gaussian2d")
    p.add_argument("--setting", default="lsd")
    p.add_argument("--seed", type=int, default=0)
    for kind, field in KINDS:
        p.add_argument(f"--{kind}", type=int, default=0, dest=field,
                       help=f"{field} (default 0)")
    args = p.parse_args(argv)
    plan = PhasePlan(setting=args.setting, **{field: getattr(args, field) for _, field in KINDS})
    print(json.dumps(step_faults(args.task, plan, args.seed)), flush=True)


if __name__ == "__main__":
    main()
