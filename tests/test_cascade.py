import hashlib

import numpy as np
import pytest

from morphfit import CascadeRegressor, EvalReport, FitError, FitResult, GrayImage, ParamScale, \
    PositResult, TrainConfig, WeakRegressor, fit, load_regressor, make_procedural_model, \
    predict_update, save_regressor, train_cascade, train_stage
from morphfit.cascade import relative_lambda
from morphfit.synth import ProtocolConfig, TrainingSample, generate_set


# ---------------------------------------------------------------------------
# independent oracle: gradient descent on the ridge objective
# ---------------------------------------------------------------------------

def gd_ridge_oracle(features, deltas, lam, tol=1e-10, max_iters=200000):
    f = np.asarray(features, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    m, fd = f.shape
    p = d.shape[1]
    aug = np.hstack([f, np.ones((m, 1))])
    lip = 2.0 * (np.linalg.eigvalsh(aug.T @ aug)[-1] + lam)
    a = np.zeros((p, fd))
    b = np.zeros(p)
    step = 1.0 / lip
    for _ in range(max_iters):
        resid = f @ a.T + b - d
        ga = 2.0 * resid.T @ f + 2.0 * lam * a
        gb = 2.0 * resid.sum(axis=0)
        a -= step * ga
        b -= step * gb
        if max(np.abs(ga).max(), np.abs(gb).max()) < tol:
            break
    return a, b


def test_exact_linear_targets_recovered():
    rng = np.random.default_rng(20)
    f = rng.normal(size=(30, 5))
    w = rng.normal(size=(3, 5))
    c = rng.normal(size=3)
    d = f @ w.T + c
    reg = train_stage(f, d, 0.0)
    np.testing.assert_allclose(reg.A, w, atol=1e-8)
    np.testing.assert_allclose(reg.b, c, atol=1e-8)
    resid = f @ reg.A.T + reg.b - d
    assert np.abs(resid).max() <= 1e-8


def test_huge_lambda_reduces_to_mean_bias():
    rng = np.random.default_rng(21)
    f = rng.normal(size=(40, 6))
    d = rng.normal(size=(40, 2))
    reg = train_stage(f, d, 1e12)
    assert np.abs(reg.A).max() <= 1e-6
    np.testing.assert_allclose(reg.b, d.mean(axis=0), atol=1e-6)


def test_matches_gradient_descent_oracle():
    rng = np.random.default_rng(22)
    f = rng.normal(size=(20, 7))
    d = rng.normal(size=(20, 3))
    reg = train_stage(f, d, 0.5)
    a, b = gd_ridge_oracle(f, d, 0.5)
    np.testing.assert_allclose(reg.A, a, atol=1e-6)
    np.testing.assert_allclose(reg.b, b, atol=1e-6)


def test_train_stage_input_validation():
    with pytest.raises(ValueError):
        train_stage(np.ones((3, 2)), np.ones((4, 2)), 0.1)
    with pytest.raises(ValueError):
        train_stage(np.array([[np.nan, 1.0]]), np.ones((1, 1)), 0.1)
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative"):
            train_stage(np.ones((3, 2)), np.ones((3, 1)), lam)


def test_predict_update_against_naive_multiply():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 9))
    b = rng.normal(size=4)
    f = rng.normal(size=9)
    scale = ParamScale(mean=rng.normal(size=4), std=rng.uniform(0.5, 2.0, 4))
    reg = WeakRegressor(A=a, b=b)
    naive = np.array([sum(a[i, j] * f[j] for j in range(9)) + b[i] for i in range(4)])
    naive = naive * scale.std + scale.mean
    np.testing.assert_allclose(predict_update(reg, f, scale), naive, atol=1e-12)
    zero = WeakRegressor(A=np.zeros((4, 9)), b=np.zeros(4))
    np.testing.assert_array_equal(predict_update(zero, f, ParamScale(np.zeros(4), np.ones(4))),
                                  np.zeros(4))
    np.testing.assert_allclose(predict_update(reg, np.zeros(9), scale),
                               b * scale.std + scale.mean, atol=1e-12)
    with pytest.raises(ValueError):
        predict_update(reg, np.zeros(3), scale)


def test_param_scale_round_trip_and_guard():
    rng = np.random.default_rng(24)
    d = rng.normal(size=(50, 6)) * [10, 5, 1, 0.1, 2, 3]
    scale = ParamScale.from_targets(d)
    np.testing.assert_allclose(scale.denormalize(scale.normalize(d)), d, atol=1e-12)
    constant = np.tile([1.0, -2.0], (8, 1))
    s2 = ParamScale.from_targets(constant)
    np.testing.assert_array_equal(s2.std, [1.0, 1.0])


def test_param_scale_rejects_non_finite():
    for mean, std in (([np.nan], [1.0]), ([np.inf], [1.0]), ([0.0], [np.nan]),
                      ([0.0], [np.inf]), ([0.0], [0.0])):
        with pytest.raises(ValueError):
            ParamScale(mean=mean, std=std)


@pytest.fixture(scope="module")
def mini_training(small_model_mod, small_cam_mod):
    pc = ProtocolConfig(range_deg=20.0, step_train=20.0, step_test=20.0,
                        backgrounds=2, width=160, height=120, focal=500.0, seed=3)
    samples = generate_set(small_model_mod, pc, "train")
    return samples, pc


@pytest.fixture(scope="module")
def small_model_mod():
    from morphfit import make_procedural_model
    return make_procedural_model(3, 80, 3)


@pytest.fixture(scope="module")
def small_cam_mod():
    from morphfit import CameraConfig
    return CameraConfig(focal=500.0, width=160, height=120)


def test_single_stage_cascade_equals_train_stage(mini_training, small_model_mod):
    from morphfit import assemble_feature
    samples, pc = mini_training
    cam = pc.camera()
    cfg = TrainConfig(model=small_model_mod, cam=cam, stages=1, lam=0.7)
    reg = train_cascade(samples, cfg)
    feats = np.stack([assemble_feature(s.image, s.theta_init, small_model_mod, cam)
                      for s in samples])
    deltas = np.stack([s.theta_gt - s.theta_init for s in samples])
    scale = ParamScale.from_targets(deltas)
    direct = train_stage(feats, scale.normalize(deltas), 0.7)
    np.testing.assert_array_equal(reg.stages[0].A, direct.A)
    np.testing.assert_array_equal(reg.stages[0].b, direct.b)
    np.testing.assert_array_equal(reg.scale.mean, scale.mean)


def test_training_residuals_non_increasing(mini_training, small_model_mod):
    samples, pc = mini_training
    cfg = TrainConfig(model=small_model_mod, cam=pc.camera(), stages=3)
    reg = train_cascade(samples, cfg)
    assert len(reg.train_residuals) == 3
    assert all(b <= a for a, b in zip(reg.train_residuals, reg.train_residuals[1:]))


def test_training_deterministic(mini_training, small_model_mod):
    samples, pc = mini_training
    cfg = TrainConfig(model=small_model_mod, cam=pc.camera(), stages=2)
    r1 = train_cascade(samples, cfg)
    r2 = train_cascade(samples, cfg)
    for a, b in zip(r1.stages, r2.stages):
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
    # jobs > 1 gives identical results
    cfg4 = TrainConfig(model=small_model_mod, cam=pc.camera(), stages=2, jobs=3)
    r3 = train_cascade(samples, cfg4)
    for a, b in zip(r1.stages, r3.stages):
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)


def test_identity_cascade_fit(mini_training, small_model_mod):
    samples, pc = mini_training
    p = 6
    zero = WeakRegressor(A=np.zeros((p, 17 * 128)), b=np.zeros(p))
    reg = CascadeRegressor(stages=[zero, zero], scale=ParamScale(np.zeros(p), np.ones(p)),
                           feature_dim=17 * 128)
    s = samples[0]
    res = fit(s.image, s.theta_init, reg, small_model_mod, pc.camera())
    np.testing.assert_array_equal(res.theta, s.theta_init)
    assert res.trajectory.shape == (3, 6)
    np.testing.assert_array_equal(res.trajectory[0], s.theta_init)


def test_fit_reports_failing_stage(mini_training, small_model_mod):
    samples, pc = mini_training
    p = 6
    zero = WeakRegressor(A=np.zeros((p, 17 * 128)), b=np.zeros(p))
    reg = CascadeRegressor(stages=[zero], scale=ParamScale(np.zeros(p), np.ones(p)),
                           feature_dim=17 * 128)
    behind = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2000.0])
    with pytest.raises(FitError) as exc:
        fit(samples[0].image, behind, reg, small_model_mod, pc.camera())
    assert exc.value.stage == 0
    with pytest.raises(ValueError):
        fit(samples[0].image, np.zeros(7), reg, small_model_mod, pc.camera())


def test_fit_fails_loudly_on_non_finite_theta(mini_training, small_model_mod):
    samples, pc = mini_training
    p = 6
    # a finite update that overflows once de-normalized
    huge_update = WeakRegressor(A=np.zeros((p, 17 * 128)), b=np.full(p, 1e308))
    s = samples[0]
    for n_stages in (1, 2):
        reg = CascadeRegressor(stages=[huge_update] * n_stages,
                               scale=ParamScale(np.zeros(p), np.full(p, 10.0)),
                               feature_dim=17 * 128)
        with pytest.raises(FitError) as exc, np.errstate(over="ignore"):
            fit(s.image, s.theta_init, reg, small_model_mod, pc.camera())
        assert exc.value.stage == 0
    bad_init = s.theta_init.copy()
    bad_init[4] = np.inf
    with pytest.raises(ValueError):
        fit(s.image, bad_init, reg, small_model_mod, pc.camera())


def test_fit_fails_loudly_when_windows_leave_the_image(mini_training, small_model_mod):
    # stage 0 moves the face 1e9 mm sideways; stage 1 finds no window on the image
    samples, pc = mini_training
    p = 6
    shove = WeakRegressor(A=np.zeros((p, 17 * 128)), b=[0, 0, 0, 1e9, 0, 0])
    reg = CascadeRegressor(stages=[shove, shove], scale=ParamScale(np.zeros(p), np.ones(p)),
                           feature_dim=17 * 128)
    with pytest.raises(FitError, match="no landmark window overlaps the image") as exc:
        fit(samples[0].image, samples[0].theta_init, reg, small_model_mod, pc.camera())
    assert exc.value.stage == 1


def test_failing_samples_dropped_with_warning(mini_training, small_model_mod, caplog):
    import logging
    from morphfit.synth import TrainingSample
    samples, pc = mini_training
    behind = TrainingSample(image=samples[0].image,
                            theta_gt=samples[0].theta_gt,
                            theta_init=np.array([0, 0, 0, 0, 0, 2000.0]),
                            id="behind")
    cfg = TrainConfig(model=small_model_mod, cam=pc.camera(), stages=1)
    with caplog.at_level(logging.WARNING, logger="morphfit.cascade"):
        reg = train_cascade(list(samples) + [behind], cfg)
    assert any("behind" in rec.getMessage() for rec in caplog.records)
    # the survivors still trained a full-size stage
    assert reg.stages[0].A.shape == (6, 17 * 128)
    # samples whose every landmark window lies off the image are dropped too
    off_image = TrainingSample(image=samples[0].image, theta_gt=samples[0].theta_gt,
                               theta_init=np.array([0, 0, 0, 1e9, 0, -1200.0]),
                               id="off_image")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="morphfit.cascade"):
        train_cascade(list(samples) + [off_image], cfg)
    assert any("off_image" in rec.getMessage() for rec in caplog.records)
    # all samples failing is a hard error
    with pytest.raises(RuntimeError):
        train_cascade([behind], cfg)


def test_relative_lambda_scale_free():
    rng = np.random.default_rng(25)
    fc = rng.normal(size=(30, 12))
    assert relative_lambda(fc * 10.0) == pytest.approx(100.0 * relative_lambda(fc))


def test_mfr_round_trip_bit_exact(tmp_path, mini_training, small_model_mod):
    samples, pc = mini_training
    cfg = TrainConfig(model=small_model_mod, cam=pc.camera(), stages=2)
    reg = train_cascade(samples, cfg)
    path = tmp_path / "reg.mfr"
    save_regressor(reg, path)
    back = load_regressor(path)
    assert back.layout == reg.layout
    assert back.feature_dim == reg.feature_dim
    assert np.array_equal(back.scale.mean, reg.scale.mean)
    assert np.array_equal(back.scale.std, reg.scale.std)
    for a, b in zip(reg.stages, back.stages):
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
    save_regressor(back, tmp_path / "reg2.mfr")
    assert (tmp_path / "reg.mfr").read_bytes() == (tmp_path / "reg2.mfr").read_bytes()


def test_fit_with_fresh_and_reloaded_cascade_identical(tmp_path, mini_training,
                                                       small_model_mod):
    samples, pc = mini_training
    cfg = TrainConfig(model=small_model_mod, cam=pc.camera(), stages=2)
    reg = train_cascade(samples, cfg)
    save_regressor(reg, tmp_path / "reg.mfr")
    back = load_regressor(tmp_path / "reg.mfr")
    for s in samples:
        fresh = fit(s.image, s.theta_init, reg, small_model_mod, pc.camera())
        loaded = fit(s.image, s.theta_init, back, small_model_mod, pc.camera())
        assert np.array_equal(fresh.trajectory, loaded.trajectory)


def test_mfr_rejects_unknown_version(tmp_path):
    p = 6
    reg = CascadeRegressor(
        stages=[WeakRegressor(A=np.ones((p, 3)), b=np.zeros(p))],
        scale=ParamScale(np.zeros(p), np.ones(p)), feature_dim=3)
    path = tmp_path / "reg.mfr"
    save_regressor(reg, path)
    text = path.read_text()
    bad = tmp_path / "bad.mfr"
    bad.write_text(text.replace("MFR 1", "MFR 9", 1))
    with pytest.raises(ValueError):
        load_regressor(bad)
    bad.write_text(text + "1.5\n")
    with pytest.raises(ValueError):
        load_regressor(bad)


def test_mfr_rejects_non_finite_scale(tmp_path):
    p = 6
    reg = CascadeRegressor(
        stages=[WeakRegressor(A=np.ones((p, 3)), b=np.zeros(p))],
        scale=ParamScale(np.zeros(p), np.ones(p)), feature_dim=3)
    path = tmp_path / "reg.mfr"
    save_regressor(reg, path)
    lines = path.read_text().splitlines()
    std_row = lines.index("scale:") + 2
    a_row = lines.index("A:") + 1
    b_row = lines.index("b:") + 1
    assert lines[std_row] == "1 1 1 1 1 1"
    for row, value, problem in ((std_row, "nan 1 1 1 1 1", "scale: scale std"),
                                (a_row, "1 nan 1", "stage 0: A must be finite"),
                                (b_row, "0 0 0 0 0 inf", "stage 0: b must be finite")):
        edited = list(lines)
        edited[row] = value
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ValueError, match="reg.mfr: " + problem):
            load_regressor(path)


@pytest.mark.parametrize("make", [
    lambda: GrayImage(np.zeros((2, 2))),
    lambda: make_procedural_model(3, 80, 1),
    lambda: ParamScale(np.zeros(6), np.ones(6)),
    lambda: WeakRegressor(A=np.zeros((6, 2)), b=np.zeros(6)),
    lambda: CascadeRegressor(stages=[], scale=ParamScale(np.zeros(6), np.ones(6)), feature_dim=2),
    lambda: FitResult(np.zeros((2, 6))),
    lambda: PositResult(np.zeros(6), 3, True),
    lambda: TrainingSample(GrayImage(np.zeros((2, 2))), np.zeros(6), np.zeros(6), "a"),
    lambda: EvalReport("uniform", 1, np.zeros(2), np.zeros(2)),
], ids=lambda make: type(make()).__name__)
def test_array_holding_types_compare_by_identity(make):
    # a generated __eq__ would compare the array fields and raise ValueError
    a, b = make(), make()
    assert a == a and a != b


def test_cascade_regressor_validates_dimensions():
    with pytest.raises(ValueError):
        CascadeRegressor(stages=[WeakRegressor(A=np.ones((6, 5)), b=np.zeros(6))],
                         scale=ParamScale(np.zeros(6), np.ones(6)),
                         feature_dim=4)


def test_cascade_regressor_derives_layout_from_scale():
    reg = CascadeRegressor(stages=[], scale=ParamScale(np.zeros(8), np.ones(8)), feature_dim=3)
    assert (reg.param_dim, reg.layout) == (8, ["rx", "ry", "rz", "tx", "ty", "tz", "a0", "a1"])
    for p in (0, 2, 5):
        with pytest.raises(ValueError, match="the pose alone takes 6"):
            CascadeRegressor(stages=[], scale=ParamScale(np.zeros(p), np.ones(p)), feature_dim=3)


def test_mfr_rejects_a_layout_other_than_pose_then_shape(tmp_path):
    reg = CascadeRegressor(stages=[WeakRegressor(A=np.ones((7, 3)), b=np.zeros(7))],
                           scale=ParamScale(np.zeros(7), np.ones(7)), feature_dim=3)
    path = tmp_path / "reg.mfr"
    save_regressor(reg, path)
    text = path.read_text()
    assert "\nlayout rx ry rz tx ty tz a0\n" in text
    for layout in ("a b c d e f g", "ry rx rz tx ty tz a0", "rx ry rz tx ty tz a1"):
        path.write_text(text.replace("rx ry rz tx ty tz a0", layout))
        with pytest.raises(ValueError, match="reg.mfr: layout: .*expected"):
            load_regressor(path)


# ---------------------------------------------------------------------------
# golden digests of a small seeded pipeline: train, fit in both regimes, evaluate
# ---------------------------------------------------------------------------

# SHA-256 per n_shape of the saved MFR1 bytes, of every test sample's fit
# trajectories (uniform, then fixed, little-endian float64) and of the
# evaluate reports' per-stage MAE and cosine as 17-digit text. They hold for
# one numpy/BLAS build: another BLAS kernel may round the ridge solve or a
# matmul differently, and a refactor that moves any of these bytes has to say
# why.
GOLDEN_PIPELINE_SHA256 = {
    0: {"mfr": "2acb80e4eda2e499efcafb9b3fdd4e36de293132b3463036adedddf3e2d37e95",
        "trajectories": "a4c38262a9fccf9da6ebf47dbcf5c53c08884c4cf5dd7351058e21ebf20ec8cc",
        "eval": "7205a64845dfd497fb657d6c77d1ecdb712fe23b867a630b91607680a337e804"},
    1: {"mfr": "c1c610b6a7d09e7696d9a5672bea6dc119a5e9bd3f787ebf2138635d63eeeb37",
        "trajectories": "11969d4c702e966d67464244a1fd3dd177c266a7f0c7156afac92859375dd08f",
        "eval": "43d2d764e65d7eba56f8cb7684bb1956be267806141e110e4988c667732c13a2"},
}


def pipeline_digests(model, n_shape, tmp_path):
    from morphfit.evaluate import REGIMES, evaluate, initial_theta
    from morphfit.util import fmt_row
    pc = ProtocolConfig(range_deg=20.0, step_train=10.0, step_test=10.0, backgrounds=2,
                        width=160, height=120, focal=500.0, n_shape=n_shape, seed=21)
    cam = pc.camera()
    reg = train_cascade(generate_set(model, pc, "train"), TrainConfig(model=model, cam=cam))
    path = tmp_path / ("reg%d.mfr" % n_shape)
    save_regressor(reg, path)
    test = generate_set(model, pc, "test")
    traj = np.stack([fit(s.image, initial_theta(s, regime, pc.init_offset), reg, model,
                         cam).trajectory for regime in REGIMES for s in test])
    reports = [evaluate(test, reg, model, pc, regime=regime) for regime in REGIMES]
    text = "\n".join(fmt_row(row) for rep in reports
                     for row in (rep.mae_per_stage, rep.cosine_per_stage))
    return {"mfr": hashlib.sha256(path.read_bytes()).hexdigest(),
            "trajectories": hashlib.sha256(traj.astype("<f8").tobytes()).hexdigest(),
            "eval": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("n_shape", [0, 1])
def test_pipeline_matches_golden_digests(small_model_mod, n_shape, tmp_path):
    assert pipeline_digests(small_model_mod, n_shape, tmp_path) == \
        GOLDEN_PIPELINE_SHA256[n_shape]
