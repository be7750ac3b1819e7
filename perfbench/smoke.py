"""Smoke run and negative checks for the benchmark.

    python3 perfbench/smoke.py

Runs one round of every workload and requires its correctness checks to
pass, then breaks one program output at a time (a perturbed JVP target, a
restored image off by 1e-6, an oracle velocity off by 1e-6, ...) and
requires the same checks to reject it.  Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from flowmaplab import autodiff as ad  # noqa: E402
from flowmaplab import losses, oracle  # noqa: E402
from flowmaplab import runtime as rt  # noqa: E402

SEED = 3


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` inside the block."""
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def scaled_tensor(fn, rel):
    def wrong(*a, **k):
        out = fn(*a, **k)
        return ad.Tensor(out.data * (1.0 + rel))
    return wrong


def nan_row(train):
    def wrong(*a, **k):
        res = train(*a, **k)
        res.metrics_rows[-1][4] = "nan"
        return res
    return wrong


def one_pixel(sample):
    def wrong(model, x1, cfg):
        traj = sample(model, x1, cfg)
        traj[-1] = traj[-1].copy()
        traj[-1][0, 0] += 1e-6
        return traj
    return wrong


def extra_eval(sample):
    def wrong(model, x1, cfg):
        with ad.no_grad():
            model(x1, 0.0, 1.0, cfg.cond)
        return sample(model, x1, cfg)
    return wrong


def extra_eval_target(fn):
    def wrong(setting, model, *a, **k):
        with ad.no_grad():
            model(a[0], 0.0, 1.0, 0)
        return fn(setting, model, *a, **k)
    return wrong


def grads_scaled(grad):
    def wrong(loss, params):
        return {k: v * (1.0 + 1e-5) for k, v in grad(loss, params).items()}
    return wrong


def velocity_off(v):
    return lambda task, x, t: v(task, x, t) + 1e-6


def wrong_failure(check):
    def wrong(setting, task, probes, *a, **k):
        if probes[0][1] == 0.0 and setting == "lsd":
            raise ValueError("some other fault")
        return check(setting, task, probes, *a, **k)
    return wrong


def main() -> int:
    out_dir = HERE / "out"
    bad = 0
    built = {}
    t_all = time.perf_counter()
    for name in workloads.NAMES:
        t0 = time.perf_counter()
        wl = workloads.make(name, SEED, out_dir)
        wl.setup()
        r = wl.run_round(0)
        errs = wl.check()
        built[name] = wl
        ok = not errs and r.attempted > 0
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: 1 round, {r.attempted} ops, {r.failed} failed, "
              f"checks {'pass' if not errs else errs[:3]} ({time.perf_counter() - t0:.1f} s)")

    g, sr = built["train-gauss2d-jvp"], built["train-sr-shortcut"]
    rs, orc = built["sr-restore"], built["oracle-identities"]
    # (description, workload, patch, rerun a round before checking)
    cases = [
        ("non-finite logged loss", g, (rt, "train", nan_row), True),
        ("lsd/esd JVP target perturbed by 1e-5", g,
         (losses, "sd_target", lambda f: scaled_tensor(f, 1e-5)), False),
        ("guidance target perturbed by 1e-5", g,
         (losses, "cfg_sd_target", lambda f: scaled_tensor(f, 1e-5)), False),
        ("guidance target with one more evaluation", g,
         (losses, "cfg_sd_target", extra_eval_target), False),
        ("reverse-mode gradients scaled by 1 + 1e-5", g, (ad, "grad", grads_scaled), False),
        ("ssd target perturbed by 1e-9", sr,
         (losses, "sd_target", lambda f: scaled_tensor(f, 1e-9)), False),
        ("ssd guidance target with one more evaluation", sr,
         (losses, "cfg_sd_target", extra_eval_target), False),
        ("restored image off by 1e-6 in one pixel", rs, (rt, "sample", one_pixel), True),
        ("restore request with K + 1 evaluations", rs, (rt, "sample", extra_eval), True),
        ("oracle velocity off by 1e-6", orc, (oracle, "gaussian_velocity", velocity_off), False),
        ("end-interval probe failing for another reason", orc,
         (oracle, "check_identity", wrong_failure), True),
    ]
    for desc, wl, (owner, attr, make), rerun in cases:
        wl.errors = []
        with patched(owner, attr, make):
            if rerun:
                wl.run_round(0)
            errs = wl.check()
        wl.errors = []
        if isinstance(wl, workloads.RestoreWorkload):
            wl.kept.clear()
        ok = bool(errs)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {wl.name}: {desc} -> "
              f"{errs[0] if errs else 'NOT DETECTED'}")

    # checks fed a wrong value directly
    import checks
    direct = [
        ("texture batch outside [-1, 1]", checks.check_batch_ranges(-1.0, 1.001, 0.1, 1.0, 5, 3, 5, 3)),
        ("s_down below 0.1", checks.check_batch_ranges(-1.0, 1.0, 0.09, 1.0, 5, 3, 5, 3)),
        ("a phase drew no negatives", checks.check_batch_ranges(-1.0, 1.0, 0.1, 1.0, 5, 2, 5, 3)),
        ("a checkpoint tensor with one bit flipped",
         checks.check_roundtrip({"a": np.array([1.0, 2.0])}, {"a": np.array([1.0, np.nextafter(2.0, 3.0)])})),
        ("identity residual above tolerance", checks.check_probe("p", "semigroup", 2e-5, None, False)),
        ("a seeded probe failing", checks.check_probe("p", "lsd", None, "t outside [0, 1]", False)),
        ("logged steps short of the plan", checks.check_rows([["0", "fm", "1.0", "", "1.0"]], ["fm", "fm"])),
    ]
    for desc, errs in direct:
        ok = bool(errs)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} checks: {desc} -> {errs[0] if errs else 'NOT DETECTED'}")
    print(f"{'all cases behave' if not bad else f'{bad} case(s) misbehave'} "
          f"({time.perf_counter() - t_all:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
