"""End-to-end command-line behavior and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import configparser
import dataclasses
import re

import numpy as np
import pytest

from flowmaplab.cli import main, plan_from_config, task_from_config
from flowmaplab.io import load_checkpoint, save_checkpoint
from flowmaplab.runtime import PhasePlan
from flowmaplab.data import load_pgm

TINY_CFG = """\
[train]
task = gaussian2d
fm_steps = 4
fmsd_steps = 4
cfg_steps = 4
adv_steps = 3
d_pretrain_steps = 2
batch_size = 8
hidden = 16
depth = 2
time_dim = 8
cond_dim = 4
"""


# texture_sr with negatives in three phases; layers wide enough (64 x 336 x 64
# products) that a threaded BLAS splits its matrix products
SR_CFG = """\
[train]
task = texture_sr
size = 16
fm_steps = 2
fmsd_steps = 2
cfg_steps = 2
adv_steps = 2
d_pretrain_steps = 1
batch_size = 64
hidden = 64
depth = 2
"""

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def trained(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY_CFG)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    return out


def test_train_writes_artifacts(trained):
    assert (trained / "metrics.csv").exists()
    assert (trained / "model.ckpt").exists()
    header = (trained / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,phase,loss_main,loss_perc,loss_weighted,lambda_mean,g_loss,d_loss"


def test_train_seed_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "7"]) == 0
        outs.append(out)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()


def test_sample_subcommand(trained, tmp_path):
    out = tmp_path / "samples"
    rc = main(["sample", "--checkpoint", str(trained / "model.ckpt"),
               "--out", str(out), "--n", "5", "--steps", "2", "--seed", "1"])
    assert rc == 0
    rows = (out / "samples.csv").read_text().splitlines()
    assert rows[0] == "x0,x1"
    assert len(rows) == 6


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_sample_refuses_non_finite_lora_scale(trained, tmp_path, capsys, scale):
    # a usage error, refused before anything is written
    out = tmp_path / "samples"
    assert main(["sample", "--checkpoint", str(trained / "model.ckpt"),
                 "--out", str(out), "--lora-scale", scale]) == 1
    assert "lora_scale" in capsys.readouterr().err
    assert not out.exists()


def test_sample_with_overflowing_samples_is_two(trained, tmp_path, capsys):
    # a finite scale whose adapter term overflows is a numeric failure
    with np.errstate(all="ignore"):
        rc = main(["sample", "--checkpoint", str(trained / "model.ckpt"),
                   "--out", str(tmp_path / "samples"), "--lora-scale", "1e308"])
    assert rc == 2
    assert "non-finite samples" in capsys.readouterr().err


def test_eval_subcommand(trained, capsys):
    rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
               "--n", "50", "--steps", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "w2=" in out


@pytest.mark.parametrize("argv,least", [
    (["eval", "--n", "0"], 1),
    (["eval", "--n", "1"], 2),  # the W2 metric needs a sample covariance
    (["sample", "--n", "0"], 1),
    (["sample", "--n", "-2"], 1),
])
def test_sample_and_eval_refuse_bad_n(trained, tmp_path, capsys, argv, least):
    out = tmp_path / "samples"
    extra = ["--out", str(out)] if argv[0] == "sample" else []
    assert main(argv + ["--checkpoint", str(trained / "model.ckpt")] + extra) == 1
    captured = capsys.readouterr()
    assert f"--n must be at least {least}" in captured.err
    assert "w2=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_data_refuses_bad_n(tmp_path, capsys, n):
    out = tmp_path / "corpus"
    assert main(["gen-data", "--out", str(out), "--n", n, "--size", "8"]) == 1
    assert "--n must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_check_subcommand(tmp_path, capsys):
    rc = main(["oracle-check", "--setting", "ssd", "--probes", "3",
               "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert "ssd: max residual" in capsys.readouterr().out
    assert (tmp_path / "rep" / "identity_ssd.csv").exists()


def test_oracle_check_covers_end_intervals(capsys):
    # seed 36 draws an esd probe with t within 3e-5 of 1; the closed-form
    # tangents hold there to rounding, like every identity
    assert main(["oracle-check", "--seed", "36"]) == 0
    assert capsys.readouterr().out.count(" (tol 1e-10) ok\n") == 4


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_oracle_check_holds_to_rounding(seed, capsys):
    # the one tolerance sits orders above the exact oracle's residuals
    # (at most 1e-12 on these seeds) on every identity
    assert main(["oracle-check", "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert out.count(" (tol 1e-10) ok\n") == 4
    residuals = [float(line.split()[3]) for line in out.splitlines()]
    assert max(residuals) < 1e-12


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_oracle_check_refuses_no_probes(probes, capsys):
    # a check that draws no probe has checked nothing
    assert main(["oracle-check", "--probes", probes]) == 1
    captured = capsys.readouterr()
    assert "--probes must be at least 1" in captured.err
    assert " ok" not in captured.out


def test_gen_data_subcommand(tmp_path):
    out = tmp_path / "corpus"
    rc = main(["gen-data", "--out", str(out), "--n", "2", "--size", "8",
               "--seed", "3"])
    assert rc == 0
    img = load_pgm(out / "hr_00000.pgm")
    assert img.shape == (8, 8)
    assert (out / "manifest.csv").exists()


def test_sr_sample_writes_pgm(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY_CFG.replace("task = gaussian2d",
                                    "task = texture_sr\nsize = 8"))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run),
                 "--seed", "0"]) == 0
    out = tmp_path / "samples"
    rc = main(["sample", "--checkpoint", str(run / "model.ckpt"),
               "--out", str(out), "--n", "2", "--steps", "2"])
    assert rc == 0
    assert load_pgm(out / "sample_0000.pgm").shape == (8, 8)
    assert load_pgm(out / "input_0000.pgm").shape == (8, 8)


def test_eval_reads_the_task_from_the_checkpoint(tmp_path, capsys):
    # sample and eval rebuild the model, sampler and task the same way
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TINY_CFG.replace("task = gaussian2d", "task = texture_sr\nsize = 8"))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--n", "2"]) == 0
    assert "psnr_model=" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_checkpoint_of_a_removed_task_is_refused(trained, tmp_path, capsys, command):
    # a task name the lab no longer has is refused by name, not aliased
    tensors, meta = load_checkpoint(trained / "model.ckpt")
    ckpt = tmp_path / "toy.ckpt"
    save_checkpoint(ckpt, tensors, {**meta, "task": "toy2d"})
    out = tmp_path / "samples"
    extra = ["--out", str(out)] if command == "sample" else []
    assert main([command, "--checkpoint", str(ckpt), "--n", "4"] + extra) == 1
    captured = capsys.readouterr()
    assert "unknown task 'toy2d'" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda m: m.pop("task"), "checkpoint metadata has no 'task'"),
    (lambda m: m.pop("d_max"), "checkpoint metadata has no 'd_max'"),
    (lambda m: m.update(d_max="abc"), "checkpoint metadata d_max='abc' is not an integer"),
], ids=["missing-task", "missing-d_max", "non-integer-d_max"])
@pytest.mark.parametrize("command", ["sample", "eval"])
def test_checkpoint_without_its_metadata_is_refused(trained, tmp_path, capsys, command,
                                                     edit, message):
    # sample and eval read task and d_max as written, never a default
    tensors, meta = load_checkpoint(trained / "model.ckpt")
    edit(meta)
    ckpt = tmp_path / "bare.ckpt"
    save_checkpoint(ckpt, tensors, meta)
    out = tmp_path / "samples"
    extra = ["--out", str(out)] if command == "sample" else []
    assert main([command, "--checkpoint", str(ckpt), "--n", "4"] + extra) == 1
    captured = capsys.readouterr()
    assert f"{ckpt}: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_readme_config_is_one_the_cli_reads():
    # the README's plan.ini, built as `train` builds it: a documented key
    # that stops existing fails here
    block = re.search(r"cat > plan\.ini <<'EOF'\n(.*?)\nEOF\n",
                      (SRC.parent / "README.md").read_text(), re.S)
    assert block, "README.md has no plan.ini block"
    cp = configparser.ConfigParser()
    cp.read_string(block[1])
    assert plan_from_config(cp).setting == cp["train"]["setting"]
    assert task_from_config(cp).name == cp["train"]["task"]


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["bogus"]) == 1

    def test_missing_required_flag_is_one(self):
        assert main(["train", "--out", "/tmp/x"]) == 1

    def test_missing_config_file_is_one(self, tmp_path):
        rc = main(["train", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_every_scalar_plan_field_is_read(self):
        # a value off each scalar field's default that a plan accepts, typed
        # as its annotation (+2 keeps time_dim even)
        off = {"int": lambda v: v + 2, "float": lambda v: v / 2, "str": lambda v: "esd"}
        want = {f.name: off[f.type](f.default) for f in dataclasses.fields(PhasePlan)}
        assert {"lr_model", "setting", "fm_steps", "drop_prob"} <= set(want)
        assert want["setting"] != PhasePlan().setting
        cp = configparser.ConfigParser()
        cp.read_string("[train]\n" + "".join(f"{k} = {v}\n" for k, v in want.items()))
        plan = plan_from_config(cp)
        assert {k: getattr(plan, k) for k in want} == want
        assert all(type(getattr(plan, k)) is type(v) for k, v in want.items())

    @pytest.mark.parametrize("cfg_text,expected", [
        ("[train]\nwarp_factor = 9\n", "unknown [train] key 'warp_factor'"),
        # the key of the removed toy2d task, and the task itself
        (TINY_CFG + "kind = moons_pair\n", "unknown [train] key 'kind'"),
        (TINY_CFG.replace("task = gaussian2d", "task = toy2d"), "unknown task 'toy2d'"),
        # a misspelt section would otherwise run the full default plan
        ("[trian]\nfm_steps = 1\ntask = texture_sr\n", "unknown config section [trian]"),
        (TINY_CFG + "[eval]\nn = 4\n", "unknown config section [eval]"),
        ("[DEFAULT]\nfm_steps = 1\n", "unknown config section [DEFAULT]"),
        ("[DEFAULT]\nfm_steps = 1\n" + TINY_CFG, "unknown config section [DEFAULT]"),
        # the recipe's fixed values are constants, so an old config naming
        # one is refused rather than silently run at the constant
        (TINY_CFG + "lr_weightnet = 1e-4\n", "unknown [train] key 'lr_weightnet'"),
        (TINY_CFG + "lr_disc = 0\n", "unknown [train] key 'lr_disc'"),
        (TINY_CFG + "lr_floor = -1\n", "unknown [train] key 'lr_floor'"),
        (TINY_CFG + "w_max = 0.5\n", "unknown [train] key 'w_max'"),
        (TINY_CFG + "lambda_adv = -2\n", "unknown [train] key 'lambda_adv'"),
        (TINY_CFG + "lora_train_scale = nan\n", "unknown [train] key 'lora_train_scale'"),
        (TINY_CFG + "d_max = 0\n", "unknown [train] key 'd_max'"),
        (TINY_CFG + "d_max = 54\n", "unknown [train] key 'd_max'"),
        (TINY_CFG + "p_fm = 1.0\n", "unknown [train] key 'p_fm'"),
    ], ids=["key", "kind", "toy2d", "trian", "eval", "default", "default-and-train",
            "lr_weightnet", "lr_disc", "lr_floor", "w_max", "lambda_adv", "lora_train_scale",
            "d_max-0", "d_max-54", "p_fm"])
    def test_unknown_config_name_is_one(self, tmp_path, capsys, cfg_text, expected):
        # refused before the output directory is made
        cfg = tmp_path / "bad.ini"
        cfg.write_text(cfg_text)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_config_without_a_train_section_is_the_default_plan(self):
        cp = configparser.ConfigParser()
        cp.read_string("")
        assert plan_from_config(cp) == PhasePlan()
        assert task_from_config(cp).name == "gaussian2d"

    @pytest.mark.parametrize("cfg_text,field", [
        (TINY_CFG.replace("fm_steps = 4", "fm_steps = -3"), "fm_steps"),
        (TINY_CFG.replace("batch_size = 8", "batch_size = 0"), "batch_size"),
        (TINY_CFG + "lora_rank = 0\n", "lora_rank"),
        (TINY_CFG + "drop_prob = 1.5\n", "drop_prob"),
        (TINY_CFG.replace("hidden = 16", "hidden = 0"), "hidden"),
        (TINY_CFG.replace("depth = 2", "depth = -1"), "depth"),
        (TINY_CFG.replace("time_dim = 8", "time_dim = 3"), "time_dim"),
        (TINY_CFG.replace("cond_dim = 4", "cond_dim = -1"), "cond_dim"),
        (TINY_CFG + "size = 12\n", "size"),  # a texture_sr key
        (TINY_CFG.replace("gaussian2d", "texture_sr") + "size = 12\n", "size"),
    ])
    def test_unrunnable_plan_is_one(self, tmp_path, capsys, cfg_text, field):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(cfg_text)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 1
        assert field in capsys.readouterr().err
        assert not run.exists()  # refused before --out is made

    def test_numeric_failure_is_two(self, tmp_path, monkeypatch):
        # force a non-finite loss immediately via an absurd learning rate
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CFG.replace("fm_steps = 4", "fm_steps = 50")
                       + "lr_model = 1e200\n")
        with np.errstate(all="ignore"):
            rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2


def test_metrics_independent_of_blas_threads(tmp_path):
    cfg = tmp_path / "sr.ini"
    cfg.write_text(SR_CFG)
    metrics = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-m", "flowmaplab.cli", "train",
                               "--config", str(cfg), "--out", str(out), "--seed", "3"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[0].count(b"\n") == 1 + 2 + 2 + 2 + 1 + 2
    assert metrics[0] == metrics[1]


def test_import_pulls_in_no_scipy():
    # the package runs on numpy alone; a heavy import would show in every process
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    code = ("import sys, flowmaplab, flowmaplab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
