"""Command-line entry points.

Subcommands: train, sample, eval, oracle-check, gen-data.  Configuration
files are ini-style key=value sections read with configparser.  Exit codes:
0 success, 1 usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import pathlib
import sys

import numpy as np

from . import __version__
from .data import DegradeOpts, dump_corpus, save_pgm
from .nets import COND_NAMES
from .oracle import IDENTITIES, check_identity
from .runtime import (GAUSSIAN_2D, PhasePlan, SamplerConfig, TextureSRTask, TrainAbort,
                      evaluate_gaussian, evaluate_sr, load_model, make_task, sample,
                      save_result, train)
from .schedule import GridConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; remap to the documented code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config not found: {path}")
    return cp


# configparser getter for each scalar PhasePlan field, by its annotation
_GETTERS = {"int": "getint", "float": "getfloat", "bool": "getboolean"}
_SCALAR_FIELDS = {f.name: _GETTERS[f.type] for f in dataclasses.fields(PhasePlan)
                  if f.type in _GETTERS}


def _train_section(cp: configparser.ConfigParser) -> configparser.SectionProxy:
    """The ``[train]`` section, empty when the config has none.  Any other
    section, a non-empty ``[DEFAULT]`` too, is refused by name: a misspelt
    one would otherwise leave every key at its default."""
    other = [s for s in cp.sections() if s != "train"]
    if cp.defaults():
        other.insert(0, cp.default_section)
    if other:
        raise ValueError(f"unknown config section [{other[0]}]: a config holds only [train]")
    return cp["train"] if cp.has_section("train") else cp[cp.default_section]


def plan_from_config(cp: configparser.ConfigParser) -> PhasePlan:
    plan = PhasePlan()
    sec = _train_section(cp)
    for key in sec:
        if key in _SCALAR_FIELDS:
            setattr(plan, key, getattr(sec, _SCALAR_FIELDS[key])(key))
        elif key == "setting":
            plan.setting = sec[key]  # train refuses an unknown one
        elif key == "d_max":
            plan.grid = GridConfig(d_max=sec.getint(key), p_fm=plan.grid.p_fm)
        elif key == "p_fm":
            plan.grid = GridConfig(d_max=plan.grid.d_max, p_fm=sec.getfloat(key))
        elif key in ("task", "size"):
            pass  # consumed by task_from_config
        else:
            raise ValueError(f"unknown [train] key {key!r}")
    return plan


def task_from_config(cp: configparser.ConfigParser):
    sec = _train_section(cp)
    return make_task(sec.get("task", "gaussian2d"), sec.getint("size"))


def _cmd_train(args) -> int:
    cp = _read_config(args.config)
    plan = plan_from_config(cp)
    task = task_from_config(cp)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = train(plan, task, seed=args.seed)
    except TrainAbort as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    (out / "metrics.csv").write_text(result.metrics_csv())
    save_result(out / "model.ckpt", result, task.name)
    print(f"trained {task.name}: {len(result.metrics_rows)} steps, "
          f"artifacts in {out}")
    return EXIT_OK


def _require_n(n: int, least: int, why: str = "") -> None:
    if n < least:
        raise ValueError(f"--n must be at least {least}{why}, got {n}")


def _load_for_sampling(args):
    """The model a checkpoint holds, the ``SamplerConfig`` the command asks
    for, and the task the checkpoint was trained on."""
    model, meta = load_model(args.checkpoint)
    cfg = SamplerConfig(steps=args.steps, cond=COND_NAMES[args.cond],
                        lora_scale=args.lora_scale,
                        d_max=int(meta.get("d_max", 7)))
    name = meta.get("task", "gaussian2d")
    return model, cfg, make_task(name, round(model.state_dim ** 0.5)
                                 if name == "texture_sr" else None)


def _cmd_sample(args) -> int:
    _require_n(args.n, 1)
    model, cfg, task = _load_for_sampling(args)
    rng = np.random.default_rng(args.seed)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    x1 = task.source_samples(args.n, rng)
    x0_hat = sample(model, x1, cfg)[-1]
    if task.image_hw is not None:
        for i in range(args.n):
            save_pgm(out / f"input_{i:04d}.pgm", x1[i].reshape(task.image_hw))
            save_pgm(out / f"sample_{i:04d}.pgm",
                     np.clip(x0_hat[i].reshape(task.image_hw), -1.0, 1.0))
    else:
        np.savetxt(out / "samples.csv", x0_hat, delimiter=",",
                   header=",".join(f"x{i}" for i in range(x0_hat.shape[1])),
                   comments="")
    if not np.all(np.isfinite(x0_hat)):
        print("non-finite samples", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"wrote {args.n} samples to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _require_n(args.n, 1)
    model, cfg, task = _load_for_sampling(args)
    if isinstance(task, TextureSRTask):
        report = evaluate_sr(model, task, args.n, cfg, seed=args.seed)
    else:
        _require_n(args.n, 2, " for the W2 metric")
        report = evaluate_gaussian(model, task, args.n, cfg, seed=args.seed)
    bad = any(isinstance(v, float) and not np.isfinite(v) for v in report.values())
    for k, v in sorted(report.items()):
        print(f"{k}={v}")
    return EXIT_NUMERIC if bad else EXIT_OK


def _cmd_oracle_check(args) -> int:
    if args.probes < 1:
        raise ValueError(f"--probes must be at least 1, got {args.probes}")
    rng = np.random.default_rng(args.seed)
    settings = IDENTITIES if args.setting == "all" else [args.setting]
    worst = 0.0
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for setting in settings:
        probes = []
        for _ in range(args.probes):
            x = rng.normal(0.0, 1.5, size=2)
            s = float(rng.uniform(0.0, 0.9))
            t = float(rng.uniform(s + 0.05, 1.0))
            probes.append((x, s, t))
        report = check_identity(setting, GAUSSIAN_2D, probes)
        tol = 1e-5 if setting == "semigroup" else 1e-3
        status = "ok" if report.max_residual <= tol else "FAIL"
        print(f"{setting}: max residual {report.max_residual:.3e} "
              f"(tol {tol:g}) {status}")
        if out_dir is not None:
            report.write_csv(out_dir / f"identity_{setting}.csv")
        if status == "FAIL":
            worst = max(worst, report.max_residual)
    return EXIT_NUMERIC if worst > 0.0 else EXIT_OK


def _cmd_gen_data(args) -> int:
    _require_n(args.n, 1)
    dump_corpus(args.out, args.n, args.size, DegradeOpts(), args.seed)
    print(f"wrote {args.n} pairs (size {args.size}) to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="flowmaplab",
                description="flow-map generative model laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train", help="run the four-phase trainer")
    pt.add_argument("--config", required=True)
    pt.add_argument("--out", required=True)
    pt.add_argument("--seed", type=int, default=0)
    pt.set_defaults(fn=_cmd_train)

    for name, fn in (("sample", _cmd_sample), ("eval", _cmd_eval)):
        ps = sub.add_parser(name)
        ps.add_argument("--checkpoint", required=True)
        ps.add_argument("--steps", type=int, default=2)
        ps.add_argument("--n", type=int, default=64)
        ps.add_argument("--cond", choices=sorted(COND_NAMES), default="positive")
        ps.add_argument("--lora-scale", type=float, default=1.5)
        ps.add_argument("--seed", type=int, default=0)
        if name == "sample":
            ps.add_argument("--out", required=True)
        ps.set_defaults(fn=fn)

    po = sub.add_parser("oracle-check", help="analytic identity residuals")
    po.add_argument("--setting", choices=[*IDENTITIES, "all"], default="all")
    po.add_argument("--probes", type=int, default=100)
    po.add_argument("--out", default=None)
    po.add_argument("--seed", type=int, default=0)
    po.set_defaults(fn=_cmd_oracle_check)

    pg = sub.add_parser("gen-data", help="write a degraded-pair image corpus")
    pg.add_argument("--out", required=True)
    pg.add_argument("--n", type=int, default=16)
    pg.add_argument("--size", type=int, default=16, choices=[8, 16, 32])
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(fn=_cmd_gen_data)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
