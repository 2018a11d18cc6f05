"""Acceptance criteria for the full pipeline, run at the official protocol:
procedural model (seed 42, V=500, K=10, 17 landmarks), 245-image train set,
169-pose test grid, 3-stage cascade, single-threaded.

Each criterion prints one PASS/FAIL line (run with -s to see them). The
heavy experiments are built once per session and shared.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from test_cascade import gd_ridge_oracle
from test_features import oracle_descriptor

from morphfit import CameraConfig, TrainConfig, extract_descriptor, make_procedural_model, \
    project_points, save_model, save_regressor, train_cascade, train_stage
from morphfit.camera import rotation_from_angles
from morphfit.cli import main
from morphfit.evaluate import evaluate, posit_baseline
from morphfit.synth import ProtocolConfig, generate_set
from conftest import quantized_noise_image

PROTOCOL_SEED = 7
FIXED_OVER_UNIFORM_LIMIT = 1.5
POSIT_NOISE_RATIO_RANGE = (1.5, 3.0)


def announce(num, ok, detail):
    print("\nACCEPTANCE %d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


@pytest.fixture(scope="session")
def model42():
    return make_procedural_model(42, 500, 10)


@pytest.fixture(scope="session")
def pose_experiment(model42):
    pc = ProtocolConfig(seed=PROTOCOL_SEED)
    train = generate_set(model42, pc, "train")
    test = generate_set(model42, pc, "test")
    t0 = time.perf_counter()
    reg = train_cascade(train, TrainConfig(model=model42, cam=pc.camera(), stages=3))
    uniform = evaluate(test, reg, model42, pc, regime="uniform")
    fixed = evaluate(test, reg, model42, pc, regime="fixed")
    wall = time.perf_counter() - t0
    return {"pc": pc, "train": train, "test": test, "reg": reg,
            "uniform": uniform, "fixed": fixed, "train_eval_seconds": wall}


@pytest.fixture(scope="session")
def shape_experiment(model42):
    pc = ProtocolConfig(seed=PROTOCOL_SEED, n_shape=2)
    train = generate_set(model42, pc, "train")
    test = generate_set(model42, pc, "test")
    reg = train_cascade(train, TrainConfig(model=model42, cam=pc.camera(), stages=3))
    uniform = evaluate(test, reg, model42, pc, regime="uniform")
    return {"pc": pc, "test": test, "reg": reg, "uniform": uniform}


def test_criterion_1_cascade_convergence(pose_experiment):
    mae = pose_experiment["uniform"].mae_per_stage
    wall = pose_experiment["train_eval_seconds"]
    strictly_decreasing = all(b < a for a, b in zip(mae, mae[1:]))
    ok = announce(1, strictly_decreasing and mae[-1] <= 4.0 and wall <= 600.0,
                  "uniform-init MAE per stage %s, final %.3f deg (<= 4.0), "
                  "train+eval %.0f s (<= 600)" % (
                      ["%.3f" % m for m in mae], mae[-1], wall))
    assert pose_experiment["uniform"].n_samples == 169
    assert len(pose_experiment["train"]) == 245
    assert ok


def test_criterion_2_bad_initialization(pose_experiment):
    fixed = pose_experiment["fixed"].mae_per_stage
    uniform = pose_experiment["uniform"].mae_per_stage
    limit = FIXED_OVER_UNIFORM_LIMIT * uniform[-1]
    ok = announce(2, fixed[-1] <= limit,
                  "fixed-11deg-init MAE per stage %s, final %.3f vs limit %.3f "
                  "(1.5 x uniform final %.3f)" % (
                      ["%.3f" % m for m in fixed], fixed[-1], limit, uniform[-1]))
    assert fixed[0] == pytest.approx(11.0)
    # the regime converges monotonically, to within the ratio of the uniform
    # final error
    assert all(b < a for a, b in zip(fixed, fixed[1:]))
    assert ok


def test_ground_truth_is_approximate_fixed_point(pose_experiment, model42):
    # starting a fit at the ground truth of a training image drifts by no
    # more than the stage-1 training residual, expressed in degrees
    from morphfit import fit
    reg = pose_experiment["reg"]
    samples = pose_experiment["train"]
    cam = pose_experiment["pc"].camera()
    sig = np.stack([s.theta_gt - s.theta_init for s in samples]).std(axis=0)[:3].mean()
    bound = np.sqrt(reg.train_residuals[0]) * sig
    drifts = []
    for s in samples[::25]:
        res = fit(s.image, s.theta_gt, reg, model42, cam)
        drifts.append(np.abs(res.theta[:3] - s.theta_gt[:3]).mean())
    assert np.mean(drifts) <= bound


def test_criterion_3_joint_shape_pose(shape_experiment, pose_experiment):
    cos = shape_experiment["uniform"].cosine_per_stage
    mae = shape_experiment["uniform"].mae_per_stage
    pose_only = pose_experiment["uniform"].mae_per_stage[-1]
    ok = announce(3, cos[-1] >= 0.80 and mae[-1] <= pose_only + 0.5,
                  "shape cosine per stage %s (final >= 0.80), joint pose MAE %.3f "
                  "vs pose-only %.3f + 0.5" % (
                      ["%.3f" % c for c in cos], mae[-1], pose_only))
    assert ok


def test_criterion_4_posit_baseline(model42, pose_experiment):
    # the baseline `posit --data` runs. POSIT is exact on exact correspondences
    # up to its stopping tolerance, so the noise-degradation ratio is taken
    # against half the noise: the same poses and the same draws, scaled. Error
    # in proportion to the noise doubles with it.
    def mae(noise_px):
        baseline = posit_baseline(pose_experiment["test"], model42, pose_experiment["pc"],
                                  noise_px, seed=1)
        assert len(baseline) == len(pose_experiment["test"])  # every sample projects
        return float(np.mean([err for _, _, err in baseline]))
    clean, half, noisy = mae(0.0), mae(2.5), mae(5.0)
    ratio = noisy / half if half > 0 else float("inf")
    lo, hi = POSIT_NOISE_RATIO_RANGE
    ok_clean = clean <= 2.0
    ok_ratio = lo <= ratio <= hi
    ok = announce(4, ok_clean and ok_ratio,
                  "POSIT exact landmarks MAE %.6f deg (<= 2.0: %s); 5px-noise MAE "
                  "%.3f vs 2.5px-noise MAE %.3f, ratio %.3g (in [1.5, 3.0]: %s)" % (
                      clean, ok_clean, noisy, half, ratio, ok_ratio))
    assert ok


def test_criterion_5_ridge_oracle():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(10, 30))
        fd = int(rng.integers(3, 9))
        p = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.01, 2.0))
        f = rng.normal(size=(m, fd))
        d = rng.normal(size=(m, p))
        reg = train_stage(f, d, lam)
        a, b = gd_ridge_oracle(f, d, lam)
        worst = max(worst, np.abs(reg.A - a).max(), np.abs(reg.b - b).max())
    ok = announce(5, worst <= 1e-6,
                  "ridge vs iterative least-squares oracle, 50 random problems, "
                  "max elementwise deviation %.2e (<= 1e-6)" % worst)
    assert ok


def test_criterion_6_monotone_training_residuals(pose_experiment, shape_experiment):
    runs = {"pose": pose_experiment["reg"].train_residuals,
            "shape": shape_experiment["reg"].train_residuals}
    violations = {k: [(a, b) for a, b in zip(r, r[1:]) if b > a]
                  for k, r in runs.items()}
    ok = announce(6, not any(violations.values()),
                  "training MSE per stage: pose %s, shape %s (non-increasing, "
                  "zero tolerance)" % (["%.5f" % x for x in runs["pose"]],
                                       ["%.5f" % x for x in runs["shape"]]))
    assert ok


def test_criterion_7_descriptor_oracle():
    rng = np.random.default_rng(51)
    img = quantized_noise_image(rng, 120, 90)
    worst = 0.0
    bad_norms = 0
    for _ in range(100):
        patch = int(rng.choice([8, 16, 32]))
        center = (rng.uniform(-8, img.width + 8), rng.uniform(-8, img.height + 8))
        got = extract_descriptor(img, center, patch)
        worst = max(worst, np.abs(got - oracle_descriptor(img, center, patch)).max())
        n = np.linalg.norm(got)
        if not (n == 0.0 or abs(n - 1.0) <= 1e-9):
            bad_norms += 1
    ok = announce(7, worst <= 1e-9 and bad_norms == 0,
                  "descriptor vs brute-force oracle, 100 random patches, max "
                  "deviation %.2e (<= 1e-9), norm violations %d" % (worst, bad_norms))
    assert ok


def test_criterion_8_projection_oracle():
    cam = CameraConfig(focal=1500.0, width=640, height=480)
    ahead = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    rolled = np.array([0.0, 0.0, 180.0, 0.0, 0.0, -1200.0])
    uv1, _ = project_points(np.array([[0.0, 0.0, 0.0]]), ahead, cam)
    uv2, _ = project_points(np.array([[10.0, 0.0, 0.0]]), ahead, cam)
    uv3, _ = project_points(np.array([[10.0, 0.0, 0.0]]), rolled, cam)
    hand = max(np.abs(uv1[0] - [320.0, 240.0]).max(),
               np.abs(uv2[0] - [332.5, 240.0]).max(),
               np.abs(uv3[0] - [307.5, 240.0]).max())
    rng = np.random.default_rng(52)
    worst_orto = 0.0
    for _ in range(1000):
        r = rotation_from_angles(*rng.uniform(-180, 180, 3))
        worst_orto = max(worst_orto, np.abs(r.T @ r - np.eye(3)).max(),
                         abs(np.linalg.det(r) - 1.0))
    ok = announce(8, hand <= 1e-9 and worst_orto <= 1e-12,
                  "hand-computed projections max deviation %.2e (<= 1e-9); 1000 "
                  "random rotations orthonormality %.2e (<= 1e-12)" % (hand, worst_orto))
    assert ok


def _dataset_bytes(root):
    chunks = []
    for sub in ("labels.csv", "inits.csv", "protocol.txt"):
        chunks.append(Path(root, sub).read_bytes())
    img_dir = os.path.join(root, "images")
    for name in sorted(os.listdir(img_dir)):
        chunks.append(Path(img_dir, name).read_bytes())
    return b"".join(chunks)


def test_criterion_9_cli_determinism(tmp_path, model42):
    model_path = str(tmp_path / "model.mfm")
    save_model(model42, model_path)

    def pipeline(tag, jobs):
        ds = str(tmp_path / ("ds_" + tag))
        reg = str(tmp_path / ("reg_" + tag + ".mfr"))
        rep = str(tmp_path / ("rep_" + tag))
        common = ["--model", model_path, "--seed", "13", "--jobs", str(jobs)]
        assert main(["synth", "--out", ds, "--mode", "train", "--grid-step", "30",
                     "--backgrounds", "2", "--width", "320", "--height", "240",
                     *common]) == 0
        assert main(["train", "--data", ds, "--model", model_path, "--out", reg,
                     "--stages", "2", "--jobs", str(jobs)]) == 0
        assert main(["eval", "--data", ds, "--model", model_path, "--regressor", reg,
                     "--out", rep, "--regime", "uniform", "--jobs", str(jobs)]) == 0
        return (_dataset_bytes(ds), Path(reg).read_bytes(),
                Path(rep, "report_uniform.csv").read_bytes())

    first = pipeline("a", 1)
    second = pipeline("b", 1)
    jobs4 = pipeline("c", 4)
    ok = announce(9, first == second == jobs4,
                  "synth+train+eval repeated: dataset/regressor/report byte-identical "
                  "(run2 == run1: %s, --jobs 4 == run1: %s)" % (
                      first == second, first == jobs4))
    assert ok


def test_criterion_10_fit_throughput(tmp_path, model42, pose_experiment):
    model_path = str(tmp_path / "model.mfm")
    save_model(model42, model_path)
    reg_path = str(tmp_path / "cascade.mfr")
    save_regressor(pose_experiment["reg"], reg_path)
    sample = pose_experiment["test"][0]
    img_path = str(tmp_path / "probe.pgm")
    from morphfit import write_pgm
    write_pgm(sample.image, img_path)
    out = str(tmp_path / "traj.csv")
    init = ",".join("%.17g" % v for v in sample.theta_init)
    assert main(["fit", "--image", img_path, "--model", model_path,
                 "--regressor", reg_path, "--out", out, "--init=" + init]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    fit_s = manifest["timings_s"]["fit"]
    ok = announce(10, fit_s <= 1.0,
                  "single-image fit through the 3-stage 17-landmark cascade: "
                  "%.3f s (<= 1.0, recorded in the run manifest)" % fit_s)
    assert ok
