import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morphfit
from morphfit import CameraConfig, ProtocolConfig, TrainConfig, load_model, load_regressor, \
    read_pgm
from morphfit.cli import build_parser, main

# the directory this process imports morphfit from, so the child does too
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(morphfit.__file__)))


def run_cli(*args, **env):
    """Invoke the CLI in a subprocess with `env` added to this process's
    environment; returns (exit code, stdout, stderr)."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "morphfit.cli", *args],
                          capture_output=True, text=True, env=env)
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
                 "--out", reg_path, "--stages", "2", "--seed", "7"]) == 0
    return {"root": root, "model": model_path, "train": train_dir,
            "test": test_dir, "reg": reg_path}


def test_make_model_output(workspace):
    model = load_model(workspace["model"])
    assert model.vertex_count == 80
    assert len(model.landmark_ids) == 17
    manifest = json.loads(Path(workspace["model"] + ".manifest.json").read_text())
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
    # a seed from the environment that is not an integer; nothing is written
    out = tmp_path / "m.mfm"
    code, _, err = run_cli("make-model", "--out", str(out), MORPHFIT_SEED="abc")
    assert code == 2
    assert "MORPHFIT_SEED" in err and "'abc'" in err
    assert not out.exists()
    # a negative seed names its source and value; nothing is written
    for flags, env, name in ((["--seed", "-1"], {}, "--seed"),
                             ([], {"MORPHFIT_SEED": "-1"}, "MORPHFIT_SEED")):
        code, _, err = run_cli("make-model", "--out", str(out), *flags, **env)
        assert code == 2 and "%s must be nonnegative, got -1" % name in err
        assert not out.exists()
    # fit and posit take exactly one input source
    img = os.path.join(workspace["test"], "images",
                       sorted(os.listdir(os.path.join(workspace["test"], "images")))[0])
    fit_out = tmp_path / "traj.csv"
    for sources in ([], ["--init", "0,0,0,0,0,-1200", "--init-landmarks", img]):
        code, _, err = run_cli("fit", "--image", img, "--model", workspace["model"],
                               "--regressor", workspace["reg"], "--out", str(fit_out), *sources)
        assert code == 2 and "--init-landmarks" in err
    posit_out = tmp_path / "pose.csv"
    for sources in ([], ["--points", img, "--data", workspace["test"]]):
        code, _, err = run_cli("posit", "--model", workspace["model"], "--out", str(posit_out),
                               *sources)
        assert code == 2 and "--points" in err and "--data" in err
    assert not fit_out.exists() and not posit_out.exists()
    # a job count below 1 names --jobs; nothing is written
    synth_out = tmp_path / "set"
    for value in ("0", "-3"):
        code, _, err = run_cli("synth", "--model", workspace["model"], "--out", str(synth_out),
                               "--jobs", value)
        assert code == 2 and "--jobs: must be at least 1, got %s" % value in err
    assert not synth_out.exists()
    # POSIT needs at least one iteration and a finite nonnegative tolerance
    points = tmp_path / "points.csv"
    points.write_text("1,2,3,4,5\n")
    for flag, value, problem in (("--max-iters", "0", "must be at least 1, got 0"),
                                 ("--tol", "-1", "must be finite and nonnegative, got -1"),
                                 ("--tol", "nan", "must be finite and nonnegative, got nan")):
        code, _, err = run_cli("posit", "--points", str(points), "--out", str(posit_out),
                               flag, value)
        assert code == 2 and "%s: %s" % (flag, problem) in err
    assert not posit_out.exists()
    # numeric flags are checked before any input is read; each error names its flag
    train_out = tmp_path / "c.mfr"
    commands = {
        "posit": ["posit", "--data", workspace["test"], "--model", workspace["model"],
                  "--out", str(posit_out)],
        "train": ["train", "--data", workspace["train"], "--model", workspace["model"],
                  "--out", str(train_out)],
        "fit": ["fit", "--image", img, "--model", workspace["model"],
                "--regressor", workspace["reg"], "--out", str(fit_out)],
    }
    negative = "must be finite and nonnegative, got "
    for command, flag, value, problem in (
            ("posit", "--noise-px", "nan", negative + "nan"),
            ("posit", "--noise-px", "-2", negative + "-2"),
            ("train", "--lambda", "nan", negative + "nan"),
            ("train", "--lambda", "-1", negative + "-1"),
            ("train", "--stages", "0", "must be at least 1, got 0"),
            ("fit", "--init-noise", "nan", negative + "nan"),
            ("fit", "--init-noise", "-3", negative + "-3")):
        init = ["--init", "0,0,0,0,0,-1200"] if command == "fit" else []
        code, _, err = run_cli(*commands[command], *init, flag, value)
        assert code == 2 and "%s: %s" % (flag, problem) in err, (flag, value, err)
    code, _, err = run_cli(*commands["fit"], "--init", "nan,0,0,0,0,-1200")
    assert code == 2 and "--init values must be finite" in err
    assert not (posit_out.exists() or train_out.exists() or fit_out.exists())
    # the protocol's, camera's and procedural model's limits, before the model loads
    synth_cmd = ["synth", "--model", workspace["model"], "--out", str(synth_out)]
    model_cmd = ["make-model", "--out", str(out)]
    for cmd, flag, value, problem in (
            (synth_cmd, "--backgrounds", "0", "must be at least 1, got 0"),
            (synth_cmd, "--shape-modes", "-1", "must be at least 0, got -1"),
            (synth_cmd, "--width", "0", "must be at least 1, got 0"),
            (synth_cmd, "--height", "-4", "must be at least 1, got -4"),
            (synth_cmd, "--range-deg", "-5", "must be finite and at least 0, got -5"),
            (synth_cmd, "--range-deg", "inf", "must be finite and at least 0, got inf"),
            (synth_cmd, "--focal", "nan", "must be finite and positive, got nan"),
            (synth_cmd, "--focal", "0", "must be finite and positive, got 0"),
            (synth_cmd, "--tz", "nan", "must be finite, got nan"),
            (synth_cmd, "--grid-step", "nan", "must be finite and positive, got nan"),
            (synth_cmd, "--grid-step", "-5", "must be finite and positive, got -5"),
            (["posit", "--points", str(points), "--out", str(posit_out)], "--focal", "-2",
             "must be finite and positive, got -2"),
            (model_cmd, "--vertices", "0", "must be at least 50, got 0"),
            (model_cmd, "--modes", "0", "must be in [1, 20], got 0"),
            (model_cmd, "--modes", "21", "must be in [1, 20], got 21")):
        code, _, err = run_cli(*cmd, flag, value)
        assert code == 2 and "%s: %s" % (flag, problem) in err, (flag, value, err)
    code, _, err = run_cli(*model_cmd, "--vertices", "5e2")
    assert code == 2 and "--vertices: invalid int value: '5e2'" in err
    assert not (synth_out.exists() or posit_out.exists() or out.exists())


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    pc, cam, tc = ProtocolConfig(), CameraConfig(), TrainConfig(model=None, cam=None)
    synth = parser.parse_args(["synth", "--model", "m", "--out", "o"])
    assert (synth.range_deg, synth.tz, synth.focal, synth.width, synth.height,
            synth.backgrounds, synth.shape_modes, synth.grid_step, synth.jobs) == \
        (pc.range_deg, pc.tz, pc.focal, pc.width, pc.height, pc.backgrounds, pc.n_shape,
         None, tc.jobs)
    train = parser.parse_args(["train", "--data", "d", "--model", "m", "--out", "o"])
    assert (train.stages, getattr(train, "lambda"), train.jobs) == (tc.stages, tc.lam, tc.jobs)
    fit = parser.parse_args(["fit", "--image", "i", "--model", "m", "--regressor", "r",
                             "--out", "o", "--init", "0"])
    assert fit.focal == cam.focal
    posit = parser.parse_args(["posit", "--points", "p", "--out", "o"])
    assert (posit.focal, posit.width, posit.height) == (cam.focal, cam.width, cam.height)
    iteration = inspect.signature(morphfit.posit).parameters
    assert (posit.max_iters, posit.tol) == (iteration["max_iters"].default,
                                            iteration["tol"].default)


def test_runtime_errors_exit_1(tmp_path):
    code, _, err = run_cli("train", "--data", str(tmp_path / "missing"),
                           "--model", str(tmp_path / "nope.mfm"),
                           "--out", str(tmp_path / "r.mfr"))
    assert code == 1
    assert err.strip() != ""


def test_train_residual_table_and_file(workspace, capsys):
    reg = load_regressor(workspace["reg"])
    assert reg.n_stages == 2
    text = Path(workspace["reg"]).read_text()
    assert text.startswith("MFR 1\nstages 2\n")
    manifest = json.loads(Path(workspace["reg"] + ".manifest.json").read_text())
    res = manifest["outputs"]["train_residuals"]
    assert len(res) == 2 and res[1] <= res[0]


def test_single_stage_writes_stages_1(workspace, tmp_path):
    out = str(tmp_path / "one.mfr")
    assert main(["train", "--data", workspace["train"], "--model", workspace["model"],
                 "--out", out, "--stages", "1"]) == 0
    assert "stages 1" in Path(out).read_text().splitlines()[1]


def test_retrain_is_bit_identical(workspace, tmp_path):
    out2 = str(tmp_path / "again.mfr")
    assert main(["train", "--data", workspace["train"], "--model", workspace["model"],
                 "--out", out2, "--stages", "2"]) == 0
    assert Path(out2).read_bytes() == Path(workspace["reg"]).read_bytes()


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
    rows = [ln.split(",") for ln in Path(out).read_text().strip().splitlines()]
    assert rows[0][0] == "stage"
    traj = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    reg = load_regressor(workspace["reg"])
    model = load_model(workspace["model"])
    cam = CameraConfig(focal=500.0, width=160, height=120)
    expected = fit(read_pgm(img_path), s.theta_init, reg, model, cam).trajectory
    np.testing.assert_array_equal(traj, expected)
    manifest = json.loads(Path(out + ".manifest.json").read_text())
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
        outs.append(Path(out).read_text())
    assert outs[0] == outs[1]


def test_fit_from_landmark_csv(workspace, tmp_path):
    """--init-landmarks starts the fit at the POSIT pose of the CSV's points."""
    from morphfit import CameraConfig, project_points, select_landmarks
    from morphfit.synth import load_dataset
    samples, pc = load_dataset(workspace["test"])
    s = next(s for s in samples if s.id == "test_p+10_y-20_b0")
    assert s.theta_gt[0] == 10.0 and s.theta_gt[1] == -20.0
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
    rows = [ln.split(",") for ln in Path(out).read_text().strip().splitlines()]
    theta0 = np.array([float(v) for v in rows[1][1:]])
    np.testing.assert_allclose(theta0[:3], s.theta_gt[:3], rtol=0, atol=1e-3)
    assert abs(theta0[5] - s.theta_gt[5]) < 0.1


def test_fit_from_coplanar_landmarks_exits_1(workspace, tmp_path, capsys):
    lm_path = tmp_path / "flat.csv"
    lm_path.write_text("u,v,X,Y,Z\n10,20,0,0,0\n90,20,50,0,0\n10,80,0,50,0\n90,80,50,50,0\n")
    out = tmp_path / "traj.csv"
    img = os.path.join(workspace["test"], "images", "test_p+0_y+0_b0.pgm")
    assert main(["fit", "--image", img, "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", str(out),
                 "--init-landmarks", str(lm_path), "--focal", "500"]) == 1
    assert "coplanar" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["flat.csv"]


def test_synth_grid_and_shape_mode_errors_exit_2(workspace, tmp_path, capsys):
    # each used to exit 1 after the model loaded, naming a config field
    out = tmp_path / "ds"
    for flags, problem in (
            (["--grid-step", "7"], "--grid-step, --range-deg: grid step 7 must divide "
                                   "range_deg 30"),
            (["--range-deg", "25"], "--grid-step, --range-deg: grid step 10 must divide "
                                    "range_deg 25"),
            (["--shape-modes", "5"], "--shape-modes 5: the model has 2 modes")):
        assert main(["synth", "--model", workspace["model"], "--out", str(out), *flags]) == 2
        assert problem in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # only the generated mode's step must divide the range: train's 10 does not divide 15
    assert main(["synth", "--model", workspace["model"], "--out", str(out), "--mode", "test",
                 "--range-deg", "15", "--grid-step", "5", "--width", "160", "--height", "120",
                 "--focal", "500"]) == 0
    assert len(os.listdir(out / "images")) == 49


def test_too_few_point_rows_exit_2(workspace, tmp_path, capsys):
    pts = tmp_path / "three.csv"
    pts.write_text("u,v,X,Y,Z\n10,20,0,0,0\n90,20,50,0,0\n10,80,0,50,10\n")
    img = os.path.join(workspace["test"], "images", "test_p+0_y+0_b0.pgm")
    for cmd in (["posit", "--points", str(pts)],
                ["fit", "--image", img, "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--init-landmarks", str(pts)]):
        assert main([*cmd, "--out", str(tmp_path / "out.csv")]) == 2
        assert "%s: POSIT needs at least 4 rows, got 3" % pts in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["three.csv"]


def test_eval_both_regimes(workspace, tmp_path):
    out = str(tmp_path / "reports")
    assert main(["eval", "--data", workspace["test"], "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", out,
                 "--regime", "both"]) == 0
    uni, fix = (np.genfromtxt(os.path.join(out, "report_%s.csv" % regime), delimiter=",",
                              names=True, dtype=None, encoding="ascii")
                for regime in ("uniform", "fixed"))
    assert set(uni["regime"]) == {"uniform"} and set(fix["regime"]) == {"fixed"}
    assert len(uni["mae_deg"]) == 3  # 2 stages + init
    assert fix["mae_deg"][0] == pytest.approx(11.0)

    # cross-check against the library
    from morphfit import evaluate
    from morphfit.synth import load_dataset
    samples, pc = load_dataset(workspace["test"])
    reg = load_regressor(workspace["reg"])
    model = load_model(workspace["model"])
    rep = evaluate(samples, reg, model, pc, regime="uniform")
    np.testing.assert_array_equal(rep.mae_per_stage, uni["mae_deg"])


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
    header, values = Path(out).read_text().strip().splitlines()
    vals = dict(zip(header.split(","), values.split(",")))
    assert float(vals["rx"]) == pytest.approx(10.0, abs=0.05)
    assert float(vals["ry"]) == pytest.approx(-15.0, abs=0.05)
    assert int(vals["converged"]) == 1


def test_posit_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    out = str(tmp_path / "o.csv")
    bad.write_text("1,2,3\n")
    code, _, _ = run_cli("posit", "--points", str(bad), "--out", out)
    assert code == 2
    good = "u,v,X,Y,Z\n" + "".join("%d,%d,%d,%d,%d\n" % (i, i + 1, i, 2 * i, 3) for i in range(6))
    bad.write_bytes(good.encode().replace(b"\n1,", b"\n\xff1,", 1))
    code, _, err = run_cli("posit", "--points", str(bad), "--out", out)
    assert code == 2 and "bad.csv: line 3: non-ASCII byte 0xff" in err
    bad.write_text(good.replace("\n2,3,", "\nnan,3,", 1))
    code, _, err = run_cli("posit", "--points", str(bad), "--out", out)
    assert code == 2 and "bad.csv: line 4: non-finite value" in err


def test_seed_env_fallback(workspace, tmp_path):
    out_env = str(tmp_path / "ds_env")
    code, _, _ = run_cli(
        "synth", "--out", out_env, "--mode", "test", "--grid-step", "10",
        "--model", workspace["model"], "--range-deg", "20", "--focal", "500",
        "--width", "160", "--height", "120", MORPHFIT_SEED="5")
    assert code == 0
    assert Path(out_env, "labels.csv").read_text() == \
        Path(workspace["test"], "labels.csv").read_text()


def test_every_command_writes_one_manifest_schema(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("MORPHFIT_SEED", "13")
    img_path = os.path.join(workspace["test"], "images",
                            sorted(os.listdir(os.path.join(workspace["test"], "images")))[0])
    fit_out = str(tmp_path / "traj.csv")
    assert main(["fit", "--image", img_path, "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", fit_out,
                 "--init", "0,0,0,0,0,-1200", "--focal", "500", "--seed", "11"]) == 0
    eval_out = str(tmp_path / "reports")
    assert main(["eval", "--data", workspace["test"], "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", eval_out]) == 0
    posit_out = str(tmp_path / "posit.csv")
    assert main(["posit", "--data", workspace["test"], "--model", workspace["model"],
                 "--out", posit_out, "--seed", "17"]) == 0

    expected = [  # (manifest, command, resolved seed); eval's seed comes from the environment
        (workspace["model"] + ".manifest.json", "make-model", 3),
        (os.path.join(workspace["train"], "manifest.json"), "synth", 5),
        (os.path.join(workspace["test"], "manifest.json"), "synth", 5),
        (workspace["reg"] + ".manifest.json", "train", 7),
        (fit_out + ".manifest.json", "fit", 11),
        (os.path.join(eval_out, "manifest.json"), "eval", 13),
        (posit_out + ".manifest.json", "posit", 17),
    ]
    keys = {"command", "version", "config", "seed", "inputs", "outputs", "timings_s",
            "started", "finished"}
    for path, command, seed in expected:
        manifest = json.loads(Path(path).read_text())
        assert set(manifest) == keys, path
        assert manifest["command"] == manifest["config"]["command"] == command
        assert manifest["seed"] == seed, path
        assert manifest["timings_s"]["total"] >= 0
        assert "func" not in manifest["config"]
