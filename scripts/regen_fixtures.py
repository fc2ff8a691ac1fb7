#!/usr/bin/env python3
"""Regenerate the committed CSV fixtures under tests/fixtures/v1/.

Fixtures record seeded runs and are compared byte-for-byte by the test
suite, so regenerate only when the algorithms intentionally change
(results depend on the local BLAS build for the SVD-heavy sweeps).

    python3 scripts/regen_fixtures.py                      # every fixture
    python3 scripts/regen_fixtures.py train_curve lemma1   # only these

Names: train_curve, surrogate_compare, lemma1, theorem1,
residual_ablation_256, residual_ablation_768. A named run writes only
the named files.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from littlebit import dualsvid, experiments, planner, qat, tensor

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures", "v1")

TRAIN_SHAPE = (256, 256)
TRAIN_BPW = 0.3
TRAIN_TEACHER_SEED = 42
TRAIN_CFG = qat.TrainConfig(steps=500, lr=1e-3, seed=0)


def write(name: str, text: str) -> None:
    path = os.path.join(OUT_DIR, name)
    tensor.atomic_write(path, text.encode("utf-8"))
    print(f"wrote {path}")


def training_setup():
    rng = tensor.seeded_rng(TRAIN_TEACHER_SEED)
    teacher = tensor.gaussian_matrix(rng, *TRAIN_SHAPE)
    rank = planner.rank_for_bpw(*TRAIN_SHAPE, TRAIN_BPW, residual=False)
    lay, _ = dualsvid.quantize(teacher, rank, residual=False)
    return lay, teacher


def train_curve():
    lay, teacher = training_setup()
    _, curve = qat.train(lay, teacher, TRAIN_CFG, qat.SurrogateSpec("smoothsign", 100.0))
    ratio = curve[-1].loss / curve[0].loss
    print(f"train fixture: rank {lay.primary.rank}, loss ratio {ratio:.4f}")
    assert ratio <= 0.7, "training fixture must reach the 0.7x target"
    write("train_curve_256x256_bpw0.3_nores_teacher42_seed0.csv",
          qat.curve_to_csv(curve))


def surrogate_compare():
    lay, teacher = training_setup()
    rows = ["surrogate,init_loss,final_loss"]
    for kind in ("smoothsign", "ste"):
        _, c = qat.train(lay, teacher, TRAIN_CFG, qat.SurrogateSpec(kind, 100.0))
        rows.append(f"{kind},{c[0].loss!r},{c[-1].loss!r}")
        print(f"  {kind}: {c[0].loss:.4f} -> {c[-1].loss:.4f}")
    write("surrogate_compare_256x256_bpw0.3_nores_teacher42_seed0.csv",
          "\n".join(rows) + "\n")


def lemma1():
    res = experiments.error_vs_rank_sweep()
    write("lemma1_64x64_trials20_seed7.csv", res.to_csv())


def theorem1():
    res = experiments.two_stage_probe()
    err_s = np.mean([r[1] for r in res.rows])
    err_t = np.mean([r[2] for r in res.rows])
    wins = sum(r[5] for r in res.rows)
    print(f"theorem1: single {err_s:.4f} vs two-stage {err_t:.4f}, "
          f"two-stage wins {wins}/{len(res.rows)}")
    write("theorem1_64x64_r8r8_trials100_seed123.csv", res.to_csv())


def residual_ablation_256():
    res = experiments.residual_ablation()
    write("residual_ablation_256x256_seed5.csv", res.to_csv())
    for row in res.rows:
        print("  ablation:", row)


def residual_ablation_768():
    res = experiments.residual_ablation(shape=(768, 768), bpws=(0.1,))
    write("residual_ablation_768x768_seed5.csv", res.to_csv())
    for row in res.rows:
        print("  ablation 768:", row)


FIXTURES = {f.__name__: f for f in (train_curve, surrogate_compare, lemma1,
                                    theorem1, residual_ablation_256,
                                    residual_ablation_768)}


if __name__ == "__main__":
    names = sys.argv[1:] or list(FIXTURES)
    unknown = [n for n in names if n not in FIXTURES]
    if unknown:
        sys.exit(f"unknown fixture(s) {', '.join(unknown)}; "
                 f"choose from {', '.join(FIXTURES)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in names:
        FIXTURES[name]()
    print("done")
