"""Print the byte-identity hash set of a flowmaplab checkout.

    python3 tools/hashset.py

Each line is one training run: its name, the sha256 of its `metrics.csv`
bytes followed by its `save_result` checkpoint bytes, and the model's
`eval_count` after `train`, under two `#` lines naming the numpy and BLAS
builds, since another build may round differently.  Run it on two checkouts
and `diff` the outputs; equal lines mean byte-identical training.
The last line is the Gaussian oracle: the sha256 of the float64
`check_identity` residuals for lsd, esd, ssd and semigroup on a fixed probe
set, and the number of residuals.  `tools/hashset.txt` is the committed
output, and `tests/test_hashset.py` holds the running code to it.  A
deliberate change is re-baselined by regenerating the file with
`python3 tools/hashset.py > tools/hashset.txt`; `git diff` must then show
only the lines it meant to move: the oracle line alone for a change to the
oracle, run lines alone for a change to training.

The runs:
  * 12 adapter-free tiny runs (`adv_steps = d_pretrain_steps = 0`) and the
    same 12 with the adversarial phases: task gaussian2d (g2d) or
    texture_sr size 8 (sr8), setting lsd/esd/ssd, seed 0/7;
    plan fm 3, fmsd 5, cfg 6, d-pretrain 2, adv 3, batch 16, hidden 16,
    depth 2, drop_prob 0.3, other fields at their `PhasePlan` defaults;
  * two runs at the default model size (hidden 256, depth 4, batch 256),
    fm 2, fmsd 2, cfg 2, d-pretrain 1, adv 2, seed 5: gaussian2d lsd and
    texture_sr size 16 ssd.
  * the oracle probes: 12 seeded interior intervals and the end intervals
    [0, 0.5], [0.5, 1] and [0, 1], on the asymmetric Gaussian task of the
    acceptance tests (`runtime.GAUSSIAN_2D`).
BLAS is pinned to one thread; the whole set takes a few seconds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flowmaplab.oracle import check_identity  # noqa: E402
from flowmaplab.runtime import (GAUSSIAN_2D, PhasePlan, make_task,  # noqa: E402
                                save_result, train)

TINY = dict(fm_steps=3, fmsd_steps=5, cfg_steps=6, d_pretrain_steps=2, adv_steps=3,
            batch_size=16, hidden=16, depth=2, drop_prob=0.3)
DEFAULT_SIZE = dict(fm_steps=2, fmsd_steps=2, cfg_steps=2, d_pretrain_steps=1, adv_steps=2)
# the `make_task` arguments of each task key
TASK_ARGS = {"g2d": ("gaussian2d",), "sr8": ("texture_sr", 8), "sr16": ("texture_sr", 16)}


def runs():
    """(name, task key, plan, seed) for every run of the set."""
    for adv in (False, True):
        for task in ("g2d", "sr8"):
            for setting in ("lsd", "esd", "ssd"):
                for seed in (0, 7):
                    over = {} if adv else {"adv_steps": 0, "d_pretrain_steps": 0}
                    plan = PhasePlan(**{**TINY, **over, "setting": setting})
                    kind = "adv" if adv else "plain"
                    yield f"{kind} {task} {setting} {seed}", task, plan, seed
    yield "default g2d lsd 5", "g2d", PhasePlan(**DEFAULT_SIZE, setting="lsd"), 5
    yield "default sr16 ssd 5", "sr16", PhasePlan(**DEFAULT_SIZE, setting="ssd"), 5


def digest(task_key: str, plan: PhasePlan, seed: int, tmp: Path) -> tuple[str, int]:
    task = make_task(*TASK_ARGS[task_key])
    res = train(plan, task, seed=seed)
    ckpt = tmp / "model.ckpt"
    save_result(ckpt, res, task.name)
    blob = res.metrics_csv().encode("ascii") + ckpt.read_bytes()
    return hashlib.sha256(blob).hexdigest(), res.model.eval_count


def oracle_digest() -> tuple[str, int]:
    """sha256 of the identity residuals on the fixed probe set, and their number."""
    rng = np.random.default_rng(0)
    probes = []
    for _ in range(12):
        x = rng.normal(0.0, 1.5, size=2)
        s = float(rng.uniform(0.0, 0.85))
        probes.append((x, s, float(rng.uniform(s + 0.05, 1.0))))
    probes += [(np.array([0.5, -0.25]), s, t) for s, t in ((0.0, 0.5), (0.5, 1.0), (0.0, 1.0))]
    res = np.array([r for setting in ("lsd", "esd", "ssd", "semigroup")
                    for r in check_identity(setting, GAUSSIAN_2D, probes).residuals],
                   dtype=np.float64)
    return hashlib.sha256(res.tobytes()).hexdigest(), res.size


def header() -> list[str]:
    """The numpy and BLAS builds that the set depends on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [f"# numpy {np.__version__}",
            f"# blas {blas.get('name', '?')} {blas.get('version', '?')}"]


def main() -> None:
    print("\n".join(header()), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, task_key, plan, seed in runs():
            sha, evals = digest(task_key, plan, seed, Path(tmp))
            print(f"{name:<20} {sha} {evals}", flush=True)
    sha, n = oracle_digest()
    print(f"{'oracle identities':<20} {sha} {n}", flush=True)


if __name__ == "__main__":
    main()
