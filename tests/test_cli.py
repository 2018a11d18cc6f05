import json
import os
import subprocess
import sys

import numpy as np
import pytest

from morphfit import load_model, load_regressor, read_pgm
from morphfit.cli import main
from morphfit.evaluate import read_report


def run_cli(*args):
    """Invoke the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "morphfit.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end pipeline: model, train set, regressor, test set."""
    root = tmp_path_factory.mktemp("cli")
    model_path = str(root / "model.mfm")
    assert main(["make-model", "--out", model_path, "--vertices", "80",
                 "--modes", "2", "--seed", "3"]) == 0
    common = ["--model", model_path, "--range-deg", "20", "--focal", "500",
              "--width", "160", "--height", "120", "--seed", "5"]
    train_dir = str(root / "train")
    assert main(["synth", "--out", train_dir, "--mode", "train",
                 "--grid-step", "20", "--backgrounds", "2", *common]) == 0
    test_dir = str(root / "test")
    assert main(["synth", "--out", test_dir, "--mode", "test",
                 "--grid-step", "10", *common]) == 0
    reg_path = str(root / "cascade.mfr")
    assert main(["train", "--data", train_dir, "--model", model_path,
                 "--out", reg_path, "--stages", "2"]) == 0
    return {"root": root, "model": model_path, "train": train_dir,
            "test": test_dir, "reg": reg_path}


def test_make_model_output(workspace):
    model = load_model(workspace["model"])
    assert model.vertex_count == 80
    assert len(model.landmark_ids) == 17
    manifest = json.loads(open(workspace["model"] + ".manifest.json").read())
    assert manifest["command"] == "make-model"
    assert manifest["seed"] == 3
    assert "total" in manifest["timings_s"]


def test_synth_dataset_layout(workspace):
    train = workspace["train"]
    imgs = sorted(os.listdir(os.path.join(train, "images")))
    assert len(imgs) == 18  # 3x3 grid x 2 backgrounds
    assert all(name.endswith(".pgm") for name in imgs)
    for fname in ("labels.csv", "inits.csv", "protocol.txt", "manifest.json"):
        assert os.path.exists(os.path.join(train, fname))
    img = read_pgm(os.path.join(train, "images", imgs[0]))
    assert (img.width, img.height) == (160, 120)
    assert len(os.listdir(os.path.join(workspace["test"], "images"))) == 25


def test_usage_errors_exit_2(workspace, tmp_path):
    code, _, err = run_cli("synth", "--out", str(tmp_path / "x"))
    assert code == 2  # missing --model
    code, _, err = run_cli("definitely-not-a-command")
    assert code == 2
    # fit with wrong --init arity
    code, _, err = run_cli(
        "fit", "--image", os.path.join(workspace["test"], "images",
                                       sorted(os.listdir(os.path.join(workspace["test"], "images")))[0]),
        "--model", workspace["model"], "--regressor", workspace["reg"],
        "--out", str(tmp_path / "out.csv"), "--init", "1,2,3")
    assert code == 2


def test_runtime_errors_exit_1(tmp_path):
    code, _, err = run_cli("train", "--data", str(tmp_path / "missing"),
                           "--model", str(tmp_path / "nope.mfm"),
                           "--out", str(tmp_path / "r.mfr"))
    assert code == 1
    assert err.strip() != ""


def test_train_residual_table_and_file(workspace, capsys):
    reg = load_regressor(workspace["reg"])
    assert reg.n_stages == 2
    text = open(workspace["reg"]).read()
    assert text.startswith("MFR 1\nstages 2\n")
    manifest = json.loads(open(workspace["reg"] + ".manifest.json").read())
    res = manifest["outputs"]["train_residuals"]
    assert len(res) == 2 and res[1] <= res[0]


def test_single_stage_writes_stages_1(workspace, tmp_path):
    out = str(tmp_path / "one.mfr")
    assert main(["train", "--data", workspace["train"], "--model", workspace["model"],
                 "--out", out, "--stages", "1"]) == 0
    assert "stages 1" in open(out).read().splitlines()[1]


def test_retrain_is_bit_identical(workspace, tmp_path):
    out2 = str(tmp_path / "again.mfr")
    assert main(["train", "--data", workspace["train"], "--model", workspace["model"],
                 "--out", out2, "--stages", "2"]) == 0
    assert open(out2, "rb").read() == open(workspace["reg"], "rb").read()


def test_fit_matches_library_call(workspace, tmp_path):
    from morphfit import CameraConfig, fit
    from morphfit.synth import load_dataset
    samples, pc = load_dataset(workspace["test"])
    s = samples[0]
    img_path = os.path.join(workspace["test"], "images", s.id + ".pgm")
    out = str(tmp_path / "traj.csv")
    init = ",".join("%.17g" % v for v in s.theta_init)
    assert main(["fit", "--image", img_path, "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", out,
                 "--init=" + init, "--focal", "500"]) == 0
    rows = [ln.split(",") for ln in open(out).read().strip().splitlines()]
    assert rows[0][0] == "stage"
    traj = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    reg = load_regressor(workspace["reg"])
    model = load_model(workspace["model"])
    cam = CameraConfig(focal=500.0, width=160, height=120)
    expected = fit(read_pgm(img_path), s.theta_init, reg, model, cam).trajectory
    np.testing.assert_array_equal(traj, expected)
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["timings_s"]["fit"] > 0


def test_fit_init_noise_is_seeded(workspace, tmp_path):
    img_path = os.path.join(workspace["test"], "images",
                            sorted(os.listdir(os.path.join(workspace["test"], "images")))[0])
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["fit", "--image", img_path, "--model", workspace["model"],
                     "--regressor", workspace["reg"], "--out", out,
                     "--init", "0,0,0,0,0,-1200", "--init-noise", "5",
                     "--seed", "11", "--focal", "500"]) == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1]


def test_fit_from_landmark_csv(workspace, tmp_path):
    from morphfit import CameraConfig, project_points, select_landmarks
    from morphfit.synth import load_dataset
    samples, pc = load_dataset(workspace["test"])
    s = samples[0]
    model = load_model(workspace["model"])
    cam = CameraConfig(focal=500.0, width=160, height=120)
    pts3d = select_landmarks(model, np.zeros(model.num_modes))
    uv, ok = project_points(pts3d, s.theta_gt[:6], cam)
    lm_path = str(tmp_path / "landmarks.csv")
    with open(lm_path, "w") as f:
        f.write("u,v,X,Y,Z\n")
        for (u, v), p in zip(uv, pts3d):
            f.write("%.8f,%.8f,%.8f,%.8f,%.8f\n" % (u, v, p[0], p[1], p[2]))
    out = str(tmp_path / "traj.csv")
    assert main(["fit", "--image",
                 os.path.join(workspace["test"], "images", s.id + ".pgm"),
                 "--model", workspace["model"], "--regressor", workspace["reg"],
                 "--out", out, "--init-landmarks", lm_path, "--focal", "500"]) == 0


def test_eval_both_regimes(workspace, tmp_path):
    out = str(tmp_path / "reports")
    assert main(["eval", "--data", workspace["test"], "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", out,
                 "--regime", "both"]) == 0
    uni = read_report(os.path.join(out, "report_uniform.csv"))
    fix = read_report(os.path.join(out, "report_fixed.csv"))
    assert uni.regime == "uniform" and fix.regime == "fixed"
    assert len(uni.mae_per_stage) == 3  # 2 stages + init
    assert fix.mae_per_stage[0] == pytest.approx(11.0)

    # cross-check against the library
    from morphfit import evaluate
    from morphfit.synth import load_dataset
    samples, pc = load_dataset(workspace["test"])
    reg = load_regressor(workspace["reg"])
    model = load_model(workspace["model"])
    rep = evaluate(samples, reg, model, pc.camera(), regime="uniform")
    np.testing.assert_array_equal(rep.mae_per_stage, uni.mae_per_stage)


def test_posit_single_pose(workspace, tmp_path):
    from morphfit import CameraConfig, project_points, select_landmarks
    model = load_model(workspace["model"])
    cam = CameraConfig(focal=1500.0, width=640, height=480)
    pose = np.array([10.0, -15.0, 4.0, 0.0, 0.0, -1200.0])
    pts3d = select_landmarks(model, np.zeros(model.num_modes))
    uv, _ = project_points(pts3d, pose, cam)
    path = str(tmp_path / "pts.csv")
    with open(path, "w") as f:
        for (u, v), p in zip(uv, pts3d):
            f.write("%.10f,%.10f,%.10f,%.10f,%.10f\n" % (u, v, p[0], p[1], p[2]))
    out = str(tmp_path / "pose.csv")
    assert main(["posit", "--points", path, "--out", out,
                 "--focal", "1500", "--width", "640", "--height", "480"]) == 0
    header, values = open(out).read().strip().splitlines()
    vals = dict(zip(header.split(","), values.split(",")))
    assert float(vals["rx"]) == pytest.approx(10.0, abs=0.05)
    assert float(vals["ry"]) == pytest.approx(-15.0, abs=0.05)
    assert int(vals["converged"]) == 1


def test_posit_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    code, _, _ = run_cli("posit", "--points", str(bad), "--out", str(tmp_path / "o.csv"))
    assert code == 2


def test_seed_env_fallback(workspace, tmp_path):
    env = dict(os.environ, MORPHFIT_SEED="5")
    out_env = str(tmp_path / "ds_env")
    proc = subprocess.run(
        [sys.executable, "-m", "morphfit.cli", "synth", "--out", out_env,
         "--mode", "test", "--grid-step", "10", "--model", workspace["model"],
         "--range-deg", "20", "--focal", "500", "--width", "160", "--height", "120"],
        capture_output=True, env=env)
    assert proc.returncode == 0
    assert open(os.path.join(out_env, "labels.csv")).read() == \
        open(os.path.join(workspace["test"], "labels.csv")).read()
