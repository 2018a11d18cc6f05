import dataclasses
import inspect
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morphfit
from morphfit import DESCRIPTOR_SIZE, CameraConfig, ProtocolConfig, TrainConfig, load_model, \
    load_regressor, make_procedural_model, project_points, read_pgm, save_model, save_regressor, \
    select_landmarks
from morphfit.cli import build_parser, main
from morphfit.evaluate import REGIMES, posit_baseline
from morphfit.shape_model import POSE_NAMES
from morphfit.synth import MODE_TAGS, load_protocol

# the directory this process imports morphfit from, so the child does too
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(morphfit.__file__)))


def run_cli(*args):
    """Invoke the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "morphfit.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def landmark_rows(model_path, pose, cam):
    """The mean face's landmark pixels at `pose` through `cam`, its model points,
    and both as the text of u,v,X,Y,Z rows."""
    model = load_model(model_path)
    pts3d = select_landmarks(model, np.zeros(model.num_modes))
    uv, _ = project_points(pts3d, pose, cam)
    return uv, pts3d, "".join("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (*q, *p)
                              for q, p in zip(uv, pts3d))


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
    # fit with wrong --init arity is found against the regressor, before the image is read
    missing = tmp_path / "missing"
    code, _, err = run_cli("fit", "--image", str(missing / "i.pgm"), "--model", workspace["model"],
                           "--regressor", workspace["reg"], "--out", str(tmp_path / "out.csv"),
                           "--init", "1,2,3")
    assert code == 2 and "--init needs 6 values for this regressor, got 3" in err, err
    assert not (tmp_path / "out.csv").exists()
    # a negative seed names its flag and value; nothing is written
    out = tmp_path / "m.mfm"
    code, _, err = run_cli("make-model", "--out", str(out), "--seed", "-1")
    assert code == 2 and "argument --seed: must be at least 0, got -1" in err
    assert not out.exists()
    # fit takes exactly one initialization
    img = os.path.join(workspace["test"], "images",
                       sorted(os.listdir(os.path.join(workspace["test"], "images")))[0])
    fit_out = tmp_path / "traj.csv"
    for sources in ([], ["--init", "0,0,0,0,0,-1200", "--init-landmarks", img]):
        code, _, err = run_cli("fit", "--image", img, "--model", workspace["model"],
                               "--regressor", workspace["reg"], "--out", str(fit_out), *sources)
        assert code == 2 and "--init-landmarks" in err
    assert not fit_out.exists()
    # a job count below 1 names --jobs; nothing is written
    synth_out = tmp_path / "set"
    for value in ("0", "-3"):
        code, _, err = run_cli("synth", "--model", workspace["model"], "--out", str(synth_out),
                               "--jobs", value)
        assert code == 2 and "--jobs: must be at least 1, got %s" % value in err
    assert not synth_out.exists()
    points = tmp_path / "points.csv"
    points.write_text("1,2,3,4,5\n")
    # numeric flags are checked before any input is read; each error names its flag
    posit_out, train_out = tmp_path / "posit.csv", tmp_path / "c.mfr"
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
            ("train", "--stages", "0", "must be at least 1, got 0"),
            ("fit", "--init-noise", "nan", negative + "nan"),
            ("fit", "--init-noise", "-3", negative + "-3")):
        init = ["--init", "0,0,0,0,0,-1200"] if command == "fit" else []
        code, _, err = run_cli(*commands[command], *init, flag, value)
        assert code == 2 and "%s: %s" % (flag, problem) in err, (flag, value, err)
    assert not (posit_out.exists() or train_out.exists() or fit_out.exists())
    # the protocol's, camera's and procedural model's limits and fit's inline theta,
    # before the model loads: fit_cmd's model, regressor and image do not exist
    synth_cmd = ["synth", "--model", workspace["model"], "--out", str(synth_out)]
    model_cmd = ["make-model", "--out", str(out)]
    fit_cmd = ["fit", "--model", str(missing / "m.mfm"), "--regressor", str(missing / "r.mfr"),
               "--image", str(missing / "i.pgm"), "--out", str(fit_out)]
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
            (["pose", "--points", str(points), "--out", str(posit_out)], "--focal", "-2",
             "must be finite and positive, got -2"),
            (model_cmd, "--vertices", "0", "must be at least 50, got 0"),
            (model_cmd, "--modes", "0", "must be in [1, 20], got 0"),
            (model_cmd, "--modes", "21", "must be in [1, 20], got 21"),
            (fit_cmd, "--init", "0,0,x", "must be comma-separated numbers, got 0,0,x"),
            (fit_cmd, "--init", "nan,0,0,0,0,-1200", "must be finite, got nan")):
        code, _, err = run_cli(*cmd, flag, value)
        assert code == 2 and "argument %s: %s" % (flag, problem) in err, (flag, value, err)
    code, _, err = run_cli(*model_cmd, "--vertices", "5e2")
    assert code == 2 and "--vertices: invalid int value: '5e2'" in err
    assert not (synth_out.exists() or posit_out.exists() or out.exists() or fit_out.exists())


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    pc, cam, tc = ProtocolConfig(), CameraConfig(), TrainConfig(model=None, cam=None)
    synth = parser.parse_args(["synth", "--model", "m", "--out", "o"])
    assert (synth.range_deg, synth.tz, synth.focal, synth.width, synth.height,
            synth.backgrounds, synth.shape_modes, synth.grid_step, synth.jobs) == \
        (pc.range_deg, pc.tz, pc.focal, pc.width, pc.height, pc.backgrounds, pc.n_shape,
         None, tc.jobs)
    train = parser.parse_args(["train", "--data", "d", "--model", "m", "--out", "o"])
    assert (train.stages, train.jobs) == (tc.stages, tc.jobs)
    fit = parser.parse_args(["fit", "--image", "i", "--model", "m", "--regressor", "r",
                             "--out", "o", "--init", "0"])
    assert fit.focal == cam.focal
    pose = parser.parse_args(["pose", "--points", "p", "--out", "o"])
    assert (pose.focal, pose.width, pose.height) == (cam.focal, cam.width, cam.height)
    posit = parser.parse_args(["posit", "--data", "d", "--model", "m", "--out", "o"])
    assert posit.noise_px == inspect.signature(posit_baseline).parameters["noise_px"].default
    model = parser.parse_args(["make-model", "--out", "o"])
    procedural = inspect.signature(make_procedural_model).parameters
    assert (model.vertices, model.modes) == (procedural["vertex_count"].default,
                                             procedural["modes"].default)
    # --mode offers the set modes synth generates, --regime evaluate's regimes and both
    synth_args = ["synth", "--model", "m", "--out", "o"]
    assert synth.mode in MODE_TAGS
    for mode in MODE_TAGS:
        assert parser.parse_args([*synth_args, "--mode", mode]).mode == mode
    eval_args = ["eval", "--data", "d", "--model", "m", "--regressor", "r", "--out", "o"]
    assert parser.parse_args(eval_args).regime == \
        inspect.signature(morphfit.evaluate).parameters["regime"].default
    for regime in (*REGIMES, "both"):
        assert parser.parse_args([*eval_args, "--regime", regime]).regime == regime
    for args in ([*synth_args, "--mode", "neither"], [*eval_args, "--regime", "neither"]):
        with pytest.raises(SystemExit):
            parser.parse_args(args)


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
    from morphfit.synth import load_dataset
    samples, pc = load_dataset(workspace["test"])
    s = next(s for s in samples if s.id == "test_p+10_y-20_b0")
    assert s.theta_gt[0] == 10.0 and s.theta_gt[1] == -20.0
    _, _, rows = landmark_rows(workspace["model"], s.theta_gt[:6],
                               CameraConfig(focal=500.0, width=160, height=120))
    lm_path = str(tmp_path / "landmarks.csv")
    Path(lm_path).write_text("u,v,X,Y,Z\n" + rows)
    out = str(tmp_path / "traj.csv")
    assert main(["fit", "--image",
                 os.path.join(workspace["test"], "images", s.id + ".pgm"),
                 "--model", workspace["model"], "--regressor", workspace["reg"],
                 "--out", out, "--init-landmarks", lm_path, "--focal", "500"]) == 0
    rows = [ln.split(",") for ln in Path(out).read_text().strip().splitlines()]
    theta0 = np.array([float(v) for v in rows[1][1:]])
    np.testing.assert_allclose(theta0[:3], s.theta_gt[:3], rtol=0, atol=1e-3)
    assert abs(theta0[5] - s.theta_gt[5]) < 0.1
    # the manifest records the landmark CSV with the other files the fit read
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["inputs"] == {
        "image": os.path.join(workspace["test"], "images", s.id + ".pgm"),
        "model": workspace["model"], "regressor": workspace["reg"], "init_landmarks": lm_path}


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


@pytest.fixture(scope="module")
def shape_mismatch(workspace):
    """A 1-mode model, a 2-shape-mode set and 1-stage regressor of the 2-mode model,
    and the 2-mode model less its last landmark."""
    root = workspace["root"]
    files = {"model1": str(root / "model1.mfm"), "set2": str(root / "set2"),
             "reg2": str(root / "reg2.mfr"), "short": str(root / "short.mfm")}
    model = load_model(workspace["model"])
    save_model(dataclasses.replace(model, landmark_ids=model.landmark_ids[:-1]), files["short"])
    assert main(["make-model", "--out", files["model1"], "--vertices", "80", "--modes", "1",
                 "--seed", "3"]) == 0
    assert main(["synth", "--out", files["set2"], "--model", workspace["model"],
                 "--shape-modes", "2", "--range-deg", "20", "--grid-step", "20", "--focal", "500",
                 "--width", "160", "--height", "120", "--seed", "5"]) == 0
    assert main(["train", "--data", files["set2"], "--model", workspace["model"],
                 "--out", files["reg2"], "--stages", "1"]) == 0
    return files


def with_broken_image(data, path):
    """A copy of the set `data` at `path` whose first image is not a PGM, so a
    check made before any image is read is the only one that can pass; returns
    the copy's path."""
    shutil.copytree(data, path)
    images = os.path.join(path, "images")
    Path(images, sorted(os.listdir(images))[0]).write_bytes(b"not an image")
    return str(path)


def test_train_names_set_and_model_with_too_few_modes(workspace, shape_mismatch, tmp_path,
                                                      capsys):
    data = with_broken_image(shape_mismatch["set2"], tmp_path / "set2")
    out = tmp_path / "c.mfr"
    assert main(["train", "--data", data, "--model", shape_mismatch["model1"],
                 "--out", str(out)]) == 1
    assert "error: %s has 2 shape modes, more than the 1 of %s" % (
        data, shape_mismatch["model1"]) in capsys.readouterr().err
    # with the shape counts in agreement, the broken image is what fails
    assert main(["train", "--data", data, "--model", workspace["model"], "--out", str(out)]) == 1
    assert "train_p+0_y+0_b0.pgm: not a binary PGM (P5) file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["set2"]


def test_fit_names_regressor_and_model_with_too_few_modes(workspace, shape_mismatch, tmp_path,
                                                          capsys):
    img = os.path.join(workspace["test"], "images", "test_p+0_y+0_b0.pgm")
    assert main(["fit", "--image", img, "--model", shape_mismatch["model1"],
                 "--regressor", shape_mismatch["reg2"], "--init", "0,0,0,0,0,-1200,0,0",
                 "--focal", "500", "--out", str(tmp_path / "traj.csv")]) == 1
    assert "error: %s has 2 shape modes, more than the 1 of %s" % (
        shape_mismatch["reg2"], shape_mismatch["model1"]) in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_eval_names_files_whose_shape_modes_differ(workspace, shape_mismatch, tmp_path, capsys):
    set2 = with_broken_image(shape_mismatch["set2"], tmp_path / "set2")
    test = with_broken_image(workspace["test"], tmp_path / "test")
    out = tmp_path / "reports"
    for data, model, problem in (
            (set2, shape_mismatch["model1"], "%s has 2 shape modes, more "
             "than the 1 of %s" % (shape_mismatch["reg2"], shape_mismatch["model1"])),
            (test, workspace["model"], "%s has 0 shape modes, but %s fits 2" % (
                test, shape_mismatch["reg2"]))):
        assert main(["eval", "--data", data, "--model", model,
                     "--regressor", shape_mismatch["reg2"], "--out", str(out)]) == 1
        assert "error: " + problem in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["set2", "test"]


def test_posit_names_set_and_model_with_too_few_modes(shape_mismatch, tmp_path, capsys):
    data = with_broken_image(shape_mismatch["set2"], tmp_path / "set2")
    assert main(["posit", "--data", data, "--model", shape_mismatch["model1"],
                 "--out", str(tmp_path / "posit.csv")]) == 1
    assert "error: %s has 2 shape modes, more than the 1 of %s" % (
        data, shape_mismatch["model1"]) in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["set2"]


def test_fit_and_eval_name_regressor_and_model_whose_landmarks_differ(workspace, shape_mismatch,
                                                                     tmp_path, capsys):
    test = with_broken_image(workspace["test"], tmp_path / "test")
    n = len(load_model(workspace["model"]).landmark_ids)
    problem = "error: %s takes %d features, but the %d landmarks of %s give %d" % (
        workspace["reg"], DESCRIPTOR_SIZE * n, n - 1, shape_mismatch["short"],
        DESCRIPTOR_SIZE * (n - 1))
    inputs = ["--model", shape_mismatch["short"], "--regressor", workspace["reg"]]
    for cmd in (["fit", "--image", os.path.join(test, "images", "test_p+0_y+0_b0.pgm"),
                 "--init=0,0,0,0,0,-1200", "--focal", "500", "--out", str(tmp_path / "t.csv")],
                ["eval", "--data", test, "--out", str(tmp_path / "reports")]):
        assert main([*cmd, *inputs]) == 1
        assert problem in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["test"]


def test_too_few_point_rows_exit_2(workspace, tmp_path, capsys):
    pts = tmp_path / "three.csv"
    pts.write_text("u,v,X,Y,Z\n10,20,0,0,0\n90,20,50,0,0\n10,80,0,50,10\n")
    img = os.path.join(workspace["test"], "images", "test_p+0_y+0_b0.pgm")
    for cmd in (["pose", "--points", str(pts)],
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


def edited_set(src, dst, csv_names, column, value, rows):
    """A copy of the data set `src` at `dst` whose files `csv_names` (of
    labels.csv and inits.csv) read `value` in `column` on the data rows `rows`
    (0 is the first after the header); returns the ids of those rows."""
    shutil.copytree(src, dst)
    for name in csv_names:
        path = Path(dst) / name
        lines = [ln.split(",") for ln in path.read_text().splitlines()]
        col = lines[0].index(column)
        for i in rows:
            lines[i + 1][col] = value
        path.write_text("".join(",".join(ln) + "\n" for ln in lines))
    return [lines[i + 1][0] for i in rows]


def test_eval_reports_failed_fits(workspace, tmp_path, capsys):
    # two stored inits start off the image, so the uniform regime loses those fits;
    # the fixed regime starts from the labels and loses none
    data = tmp_path / "set"
    edited_set(workspace["test"], data, ["inits.csv"], "tx", "1e9", [0, 1])
    out = tmp_path / "reports"
    assert main(["eval", "--data", str(data), "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", str(out), "--regime", "both"]) == 0
    stdout = capsys.readouterr().out
    assert "regime uniform (n=23, failures=2)" in stdout
    assert "regime fixed (n=25, failures=0)" in stdout
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert (outputs["failures_uniform"], outputs["failures_fixed"]) == (2, 0)


def test_eval_both_names_the_regime_of_each_drop(workspace, tmp_path, capsys):
    # one sample's label and stored init both put the face 1e9 mm to the side,
    # so its fit fails in both regimes: one warning each, told apart by regime
    data = tmp_path / "set"
    (bad,) = edited_set(workspace["test"], data, ["labels.csv", "inits.csv"], "tx", "1e9", [6])
    out = tmp_path / "reports"
    assert main(["eval", "--data", str(data), "--model", workspace["model"],
                 "--regressor", workspace["reg"], "--out", str(out), "--regime", "both"]) == 0
    assert capsys.readouterr().err == "".join(
        "WARNING morphfit.evaluate: dropping sample %s, failed to evaluate the %s regime: "
        "stage 0: no landmark window overlaps the image\n" % (bad, regime) for regime in REGIMES)
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert (outputs["failures_uniform"], outputs["failures_fixed"]) == (1, 1)


def test_empty_set_is_one_error_in_train_eval_and_posit(workspace, tmp_path, capsys):
    # labels.csv and inits.csv hold their header alone
    data = tmp_path / "set"
    shutil.copytree(workspace["test"], data)
    for name in ("labels.csv", "inits.csv"):
        (data / name).write_text((data / name).read_text().splitlines()[0] + "\n")
    for cmd, task in ((["train"], "train stage 0"),
                      (["eval", "--regressor", workspace["reg"]], "evaluate the uniform regime"),
                      (["posit"], "give a POSIT estimate")):
        assert main([*cmd, "--data", str(data), "--model", workspace["model"],
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: no samples to %s\n" % task
    assert os.listdir(tmp_path) == ["set"]


def test_failed_eval_writes_nothing(workspace, tmp_path, capsys):
    # a 2-stage cascade whose first stage moves tx by 1e9, so every fit fails
    reg = load_regressor(workspace["reg"])
    shift = np.zeros(reg.param_dim)
    shift[POSE_NAMES.index("tx")] = 1e9
    for wr in reg.stages:
        wr.A[:] = 0.0
        wr.b[:] = reg.scale.normalize(shift)
    off = str(tmp_path / "off.mfr")
    save_regressor(reg, off)
    # and a copy of the test set whose labels put the fixed regime's inits off the image,
    # so --regime both fails in its second regime after the first succeeded
    data = tmp_path / "set"
    edited_set(workspace["test"], data, ["labels.csv"], "tx", "1e9", range(25))
    out = tmp_path / "reports"
    for regressor, dataset, regime in ((off, workspace["test"], "uniform"),
                                       (workspace["reg"], str(data), "both")):
        assert main(["eval", "--data", dataset, "--model", workspace["model"],
                     "--regressor", regressor, "--out", str(out), "--regime", regime]) == 1
        assert "error: every sample failed to evaluate" in capsys.readouterr().err
        assert not out.exists()


def test_posit_warns_names_and_counts_a_failed_sample(workspace, tmp_path, capsys):
    # one label puts the face behind the camera, so its landmarks do not project
    data = tmp_path / "set"
    (bad,) = edited_set(workspace["test"], data, ["labels.csv"], "tz", "2000", [3])
    out = str(tmp_path / "posit.csv")
    assert main(["posit", "--data", str(data), "--model", workspace["model"], "--out", out]) == 0
    std = capsys.readouterr()
    assert std.err == "WARNING morphfit.evaluate: dropping sample %s, failed to give a POSIT " \
        "estimate: 17 landmarks lie at or behind the camera\n" % bad
    assert "POSIT over 24 samples (noise 0 px, failures=1)" in std.out
    assert json.loads(Path(out + ".manifest.json").read_text())["outputs"]["failures"] == 1
    ids = [ln.split(",")[0] for ln in Path(out).read_text().splitlines()[1:]]
    assert len(ids) == 24 and bad not in ids


def test_train_records_dropped_samples_in_its_manifest(workspace, tmp_path, capsys):
    # one stored init starts off the image; --log-level error prints no warning,
    # so the manifest is the record of the drop
    data = tmp_path / "set"
    (bad,) = edited_set(workspace["train"], data, ["inits.csv"], "tx", "1e9", [4])
    out = str(tmp_path / "cascade.mfr")
    assert main(["train", "--data", str(data), "--model", workspace["model"], "--out", out,
                 "--stages", "2", "--log-level", "error"]) == 0
    std = capsys.readouterr()
    assert std.err == ""
    assert [ln.split(", ")[1] for ln in std.out.splitlines()[:2]] == ["dropped 1", "dropped 0"]
    outputs = json.loads(Path(out + ".manifest.json").read_text())["outputs"]
    assert outputs["train_dropped"] == [[bad], []]


def test_posit_single_pose(workspace, tmp_path):
    _, _, rows = landmark_rows(workspace["model"], [10.0, -15.0, 4.0, 0.0, 0.0, -1200.0],
                               CameraConfig(focal=1500.0, width=640, height=480))
    path = str(tmp_path / "pts.csv")
    Path(path).write_text(rows)
    out = str(tmp_path / "pose.csv")
    assert main(["pose", "--points", path, "--out", out,
                 "--focal", "1500", "--width", "640", "--height", "480"]) == 0
    header, values = Path(out).read_text().strip().splitlines()
    vals = dict(zip(header.split(","), values.split(",")))
    assert float(vals["rx"]) == pytest.approx(10.0, abs=0.05)
    assert float(vals["ry"]) == pytest.approx(-15.0, abs=0.05)
    assert int(vals["converged"]) == 1
    # without camera flags pose keeps CameraConfig's camera, and its manifest says so
    uv, pts3d, rows = landmark_rows(workspace["model"], [10.0, -15.0, 4.0, 0.0, 0.0, -1200.0],
                                    CameraConfig())
    Path(path).write_text(rows)
    assert main(["pose", "--points", path, "--out", out]) == 0
    _, values = Path(out).read_text().splitlines()
    np.testing.assert_array_equal([float(v) for v in values.split(",")[:6]],
                                  morphfit.posit(uv, pts3d, CameraConfig()).pose)
    config = json.loads(Path(out + ".manifest.json").read_text())["config"]
    cam = CameraConfig()
    assert (config["focal"], config["width"], config["height"]) == \
        (cam.focal, cam.width, cam.height)


def test_posit_and_pose_take_only_their_own_flags(workspace, tmp_path):
    """Each parser declares only the flags its command reads, so argparse rejects
    the other command's flags and a missing input with exit 2, writing nothing."""
    _, _, rows = landmark_rows(workspace["model"], [10.0, -15.0, 4.0, 0.0, 0.0, -1200.0],
                               CameraConfig())
    points = tmp_path / "pts.csv"
    points.write_text(rows)
    posit = ["posit", "--data", workspace["test"], "--model", workspace["model"]]
    pose = ["pose", "--points", str(points)]
    train = ["train", "--data", workspace["train"], "--model", workspace["model"]]
    evaluate = ["eval", "--data", workspace["test"], "--model", workspace["model"],
                "--regressor", workspace["reg"]]
    for cmd, flags, problem in (
            (posit, ["--points", str(points)], "unrecognized arguments: --points"),
            (posit, ["--focal", "900"], "unrecognized arguments: --focal 900"),
            (posit, ["--width", "33"], "unrecognized arguments: --width 33"),
            (posit, ["--height", "44"], "unrecognized arguments: --height 44"),
            (pose, ["--data", workspace["test"]], "unrecognized arguments: --data"),
            (pose, ["--model", workspace["model"]], "unrecognized arguments: --model"),
            (pose, ["--noise-px", "0"], "unrecognized arguments: --noise-px 0"),
            (pose, ["--seed", "1"], "unrecognized arguments: --seed 1"),
            (train, ["--seed", "1"], "unrecognized arguments: --seed 1"),
            (train, ["--lambda", "1"], "unrecognized arguments: --lambda 1"),
            (evaluate, ["--seed", "1"], "unrecognized arguments: --seed 1"),
            (posit[:3], [], "the following arguments are required: --model"),
            (posit[:1] + posit[3:], [], "the following arguments are required: --data"),
            (pose[:1], [], "the following arguments are required: --points")):
        code, _, err = run_cli(*cmd, *flags, "--out", str(tmp_path / "out.csv"))
        assert code == 2 and problem in err, (cmd, flags, err)
    assert os.listdir(tmp_path) == ["pts.csv"]


def test_point_csv_header_may_follow_comments(workspace, tmp_path):
    uv, _, rows = landmark_rows(workspace["model"], [10.0, -20.0, 0.0, 0.0, 0.0, -1200.0],
                                CameraConfig(focal=500.0, width=160, height=120))
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    plain.write_text("u,v,X,Y,Z\n" + rows)
    commented.write_text("# exported by X\n\n# pixels, then mm\nu,v,X,Y,Z\n" + rows)
    camera = ["--focal", "500", "--width", "160", "--height", "120"]
    for path in (plain, commented):
        assert main(["pose", "--points", str(path), *camera,
                     "--out", str(path) + ".pose"]) == 0
    assert Path(str(commented) + ".pose").read_bytes() == Path(str(plain) + ".pose").read_bytes()
    img = os.path.join(workspace["test"], "images", "test_p+10_y-20_b0.pgm")
    fit = ["fit", "--image", img, "--model", workspace["model"], "--regressor", workspace["reg"],
           "--focal", "500"]
    for path in (plain, commented):
        assert main([*fit, "--init-landmarks", str(path), "--out", str(path) + ".traj"]) == 0
    assert Path(str(commented) + ".traj").read_bytes() == Path(str(plain) + ".traj").read_bytes()
    # a header is taken only on the first line that is not a comment
    commented.write_text("# exported by X\nu,v,X,Y,Z\n" + rows + "u,v,X,Y,Z\n")
    for cmd in (["pose", "--points", str(commented), *camera],
                [*fit, "--init-landmarks", str(commented)]):
        code, _, err = run_cli(*cmd, "--out", str(tmp_path / "late.csv"))
        assert code == 2 and "commented.csv: line %d: malformed number" % (len(uv) + 3) in err
    assert not (tmp_path / "late.csv").exists()


def test_point_csv_malformed_first_row_is_an_error(workspace, tmp_path):
    # a header must name u,v,X,Y,Z: a first row that does not parse is not one
    uv, _, rows = landmark_rows(workspace["model"], [10.0, -20.0, 0.0, 0.0, 0.0, -1200.0],
                                CameraConfig(focal=500.0, width=160, height=120))
    pts = tmp_path / "pts.csv"
    img = os.path.join(workspace["test"], "images", "test_p+10_y-20_b0.pgm")
    for first in ("10,20,0,0,0x", "u,v,x,y,z", "U,V,X,Y,Z"):
        pts.write_text("# no header\n%s\n%s" % (first, rows))
        for cmd in (["pose", "--points", str(pts), "--focal", "500", "--width", "160",
                     "--height", "120"],
                    ["fit", "--image", img, "--model", workspace["model"], "--regressor",
                     workspace["reg"], "--focal", "500", "--init-landmarks", str(pts)]):
            code, _, err = run_cli(*cmd, "--out", str(tmp_path / "out.csv"))
            assert code == 2 and "pts.csv: line 2: malformed number" in err, (first, err)
        assert sorted(os.listdir(tmp_path)) == ["pts.csv"]


def test_posit_and_pose_manifests_record_only_their_flags(workspace, tmp_path):
    # posit reads its camera from the set's protocol.txt, which inputs.dataset names
    out = str(tmp_path / "posit.csv")
    assert main(["posit", "--data", workspace["test"], "--model", workspace["model"],
                 "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert sorted(manifest["config"]) == ["command", "data", "log_level", "model", "noise_px",
                                          "out", "seed"]
    assert load_protocol(manifest["inputs"]["dataset"]).camera() == \
        CameraConfig(focal=500.0, width=160, height=120)
    _, _, rows = landmark_rows(workspace["model"], [10.0, -15.0, 4.0, 0.0, 0.0, -1200.0],
                               CameraConfig())
    points = tmp_path / "pts.csv"
    points.write_text(rows)
    out = str(tmp_path / "pose.csv")
    assert main(["pose", "--points", str(points), "--out", out]) == 0
    config = json.loads(Path(out + ".manifest.json").read_text())["config"]
    assert sorted(config) == ["command", "focal", "height", "log_level", "out", "points", "width"]


def test_posit_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    out = str(tmp_path / "o.csv")
    bad.write_text("1,2,3\n")
    code, _, _ = run_cli("pose", "--points", str(bad), "--out", out)
    assert code == 2
    good = "u,v,X,Y,Z\n" + "".join("%d,%d,%d,%d,%d\n" % (i, i + 1, i, 2 * i, 3) for i in range(6))
    bad.write_bytes(good.encode().replace(b"\n1,", b"\n\xff1,", 1))
    code, _, err = run_cli("pose", "--points", str(bad), "--out", out)
    assert code == 2 and "bad.csv: line 3: non-ASCII byte 0xff" in err
    bad.write_text(good.replace("\n2,3,", "\nnan,3,", 1))
    code, _, err = run_cli("pose", "--points", str(bad), "--out", out)
    assert code == 2 and "bad.csv: line 4: non-finite value" in err


def test_log_level_prints_the_library_log_lines(workspace, tmp_path, capsys):
    train = ["train", "--data", workspace["train"], "--model", workspace["model"],
             "--stages", "2"]
    assert main([*train, "--out", str(tmp_path / "quiet.mfr")]) == 0
    assert capsys.readouterr().err == ""
    out = str(tmp_path / "info.mfr")
    assert main([*train, "--out", out, "--log-level", "info"]) == 0
    err = capsys.readouterr().err
    assert "stage 0: lambda=" in err and "stage 1: lambda=" in err
    assert json.loads(Path(out + ".manifest.json").read_text())["config"]["log_level"] == "info"
    # the run's handler and level go with it: a later default run prints nothing
    logger = logging.getLogger("morphfit")
    assert (logger.handlers, logger.level) == ([], logging.NOTSET)
    assert main([*train, "--out", str(tmp_path / "again.mfr")]) == 0
    assert capsys.readouterr().err == ""


def test_every_command_writes_one_manifest_schema(workspace, tmp_path):
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
    points = tmp_path / "pts.csv"
    points.write_text(landmark_rows(workspace["model"], [10.0, -15.0, 4.0, 0.0, 0.0, -1200.0],
                                    CameraConfig())[2])
    pose_out = str(tmp_path / "pose.csv")
    assert main(["pose", "--points", str(points), "--out", pose_out]) == 0

    expected = [  # (manifest, command, seed); train, eval and pose, which draw no
        # random number, take no seed
        (workspace["model"] + ".manifest.json", "make-model", 3),
        (os.path.join(workspace["train"], "manifest.json"), "synth", 5),
        (os.path.join(workspace["test"], "manifest.json"), "synth", 5),
        (workspace["reg"] + ".manifest.json", "train", None),
        (fit_out + ".manifest.json", "fit", 11),
        (os.path.join(eval_out, "manifest.json"), "eval", None),
        (posit_out + ".manifest.json", "posit", 17),
        (pose_out + ".manifest.json", "pose", None),
    ]
    keys = {"command", "version", "config", "seed", "inputs", "outputs", "timings_s",
            "started", "finished"}
    inputs = {  # the input flags each run gave, under their manifest names
        "make-model": {},
        "synth": {"model": workspace["model"]},
        "train": {"dataset": workspace["train"], "model": workspace["model"]},
        "fit": {"image": img_path, "model": workspace["model"], "regressor": workspace["reg"]},
        "eval": {"dataset": workspace["test"], "model": workspace["model"],
                 "regressor": workspace["reg"]},
        "posit": {"dataset": workspace["test"], "model": workspace["model"]},
        "pose": {"points": str(points)},
    }
    for path, command, seed in expected:
        manifest = json.loads(Path(path).read_text())
        assert set(manifest) == keys, path
        assert manifest["inputs"] == inputs[command], path
        assert manifest["command"] == manifest["config"]["command"] == command
        assert manifest["seed"] == seed, path
        assert manifest["timings_s"]["total"] >= 0
        assert manifest["config"]["log_level"] == "warning", path
        assert "func" not in manifest["config"]
