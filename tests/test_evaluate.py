import dataclasses

import numpy as np
import pytest

from morphfit import CascadeRegressor, ParamScale, WeakRegressor, angle_errors, evaluate, \
    shape_cosine
from morphfit.evaluate import initial_theta, write_report
from morphfit.synth import ProtocolConfig, generate_set


def test_mae_examples():
    gt = np.array([1.0, 2.0, 3.0, 0, 0, -1200.0])
    assert angle_errors(gt, gt) == 0.0
    assert angle_errors(gt + [3.0, 0, 0, 50, 50, 50], gt) == pytest.approx(1.0)  # no translation
    two_pred = np.stack([gt + [3, 0, 0, 0, 0, 0], gt + [0, -6, 0, 0, 0, 0]])
    np.testing.assert_allclose(angle_errors(two_pred, gt), [1.0, 2.0])
    # stacked trajectories (N, S+1, p) against ground truth (N, 1, p)
    trajectories = np.stack([two_pred, two_pred[::-1] + [0, 0, 0.3, 0, 0, 0]])
    np.testing.assert_allclose(angle_errors(trajectories, np.stack([gt, gt])[:, None]),
                               [[1.0, 2.0], [2.1, 1.1]])


def test_mae_symmetry_and_positivity():
    rng = np.random.default_rng(40)
    a = rng.normal(size=(5, 6))
    b = rng.normal(size=(5, 6))
    np.testing.assert_array_equal(angle_errors(a, b), angle_errors(b, a))
    assert np.all(angle_errors(a, b) > 0)
    same_angles = a.copy()
    same_angles[:, 3:] += 99.0
    np.testing.assert_array_equal(angle_errors(a, same_angles), np.zeros(5))


def test_mae_input_validation():
    # the ground truth must broadcast to theta's shape, not widen it
    for theta, gt in ((np.zeros((1, 6)), np.zeros((0, 6))), (np.zeros((2, 6)), np.zeros((3, 6))),
                      (np.zeros(6), np.zeros((2, 6))), (np.zeros((2, 3, 6)), np.zeros((2, 6)))):
        with pytest.raises(ValueError):
            angle_errors(theta, gt)


def test_shape_cosine_examples():
    assert shape_cosine([2.0, 1.0], [2.0, 1.0]) == pytest.approx(1.0)
    assert shape_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert shape_cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.7071067811865475)


def test_shape_cosine_scale_invariance_exact():
    rng = np.random.default_rng(41)
    a = rng.normal(size=4)
    g = rng.normal(size=4)
    base = shape_cosine(a, g)
    # powers of two scale exactly in IEEE arithmetic
    assert shape_cosine(a * 4.0, g) == base
    assert shape_cosine(a, g * 0.5) == base


def test_shape_cosine_nan_when_undefined_and_rejects_mismatch():
    # the zero vector (the mean-face initialization) and the empty one have no direction
    assert np.isnan(shape_cosine([0.0, 0.0], [1.0, 0.0]))
    assert np.isnan(shape_cosine([], []))
    with pytest.raises(ValueError, match="differ in length"):
        shape_cosine([1.0], [1.0, 0.0])


def test_shape_cosine_stacked_equals_elementwise():
    rng = np.random.default_rng(44)
    est = rng.normal(size=(4, 3, 5))
    est[1, 2] = 0.0
    truth = rng.normal(size=(3, 5))
    got = shape_cosine(est, truth)
    assert got.shape == (4, 3)
    for i, j in np.ndindex(got.shape):
        want = shape_cosine(est[i, j], truth[j])
        assert got[i, j] == want or np.isnan(got[i, j]) and np.isnan(want)
    assert np.isnan(got[1, 2]) and np.isfinite(np.delete(got.ravel(), 5)).all()
    assert np.isnan(shape_cosine(np.zeros((2, 0)), np.zeros(0))).all()


def test_initial_theta_regimes():
    from morphfit.synth import TrainingSample
    from morphfit import GrayImage
    img = GrayImage(np.zeros((4, 4)))
    s = TrainingSample(image=img, theta_gt=np.array([1.0, 2, 0, 0, 0, -1200, 0.7, -0.3]),
                       theta_init=np.array([3.0, 1, 2, 0, 0, -1200, 0, 0]), id="x")
    np.testing.assert_array_equal(initial_theta(s, "uniform"), s.theta_init)
    fixed = initial_theta(s, "fixed")
    np.testing.assert_array_equal(fixed[:3], s.theta_gt[:3] + 11.0)
    np.testing.assert_array_equal(fixed[6:], [0.0, 0.0])
    with pytest.raises(ValueError):
        initial_theta(s, "nonsense")


@pytest.fixture(scope="module")
def tiny_eval_setup():
    from morphfit import make_procedural_model
    model = make_procedural_model(3, 80, 3)
    pc = ProtocolConfig(range_deg=20.0, step_train=20.0, step_test=20.0,
                        backgrounds=1, width=160, height=120, focal=500.0, seed=9)
    samples = generate_set(model, pc, "test")
    return model, pc, samples


def test_zero_stage_cascade_reports_init_error(tiny_eval_setup):
    model, pc, samples = tiny_eval_setup
    reg = CascadeRegressor(stages=[], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128)
    rep = evaluate(samples, reg, model, pc, regime="uniform")
    assert rep.mae_per_stage.shape == (1,)
    init_err = angle_errors([s.theta_init for s in samples], [s.theta_gt for s in samples]).mean()
    assert rep.mae_per_stage[0] == pytest.approx(init_err)
    assert rep.n_samples == len(samples)
    assert np.isnan(rep.cosine_per_stage).all()


@pytest.mark.parametrize("init_offset", [11.0, 5.0])
def test_fixed_regime_stage0_is_eleven(tiny_eval_setup, init_offset):
    # the fixed regime's offset is the one the set was generated with
    model, pc, _ = tiny_eval_setup
    pc = dataclasses.replace(pc, init_offset=init_offset)
    samples = generate_set(model, pc, "test")
    reg = CascadeRegressor(stages=[], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128)
    rep = evaluate(samples, reg, model, pc, regime="fixed")
    assert rep.mae_per_stage[0] == pytest.approx(init_offset)


def test_evaluate_counts_non_finite_fits_as_failures(tiny_eval_setup):
    from morphfit import GrayImage
    from morphfit.synth import TrainingSample
    model, pc, samples = tiny_eval_setup
    # a huge update overflows to inf on textured images; a blank image has
    # all-zero descriptors, so its update stays finite
    huge = WeakRegressor(A=np.full((6, 17 * 128), 1e308), b=np.zeros(6))
    reg = CascadeRegressor(stages=[huge, huge], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128)
    blank = TrainingSample(image=GrayImage(np.zeros((120, 160))),
                           theta_gt=samples[0].theta_gt, theta_init=samples[0].theta_init,
                           id="blank")
    with np.errstate(over="ignore"):
        rep = evaluate(list(samples) + [blank], reg, model, pc, regime="uniform")
    assert rep.n_samples == 1
    assert rep.n_failures == len(samples)
    assert np.all(np.isfinite(rep.mae_per_stage))


def test_report_round_trip(tmp_path, tiny_eval_setup):
    model, pc, samples = tiny_eval_setup
    zero = WeakRegressor(A=np.zeros((6, 17 * 128)), b=np.zeros(6))
    reg = CascadeRegressor(stages=[zero], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128)
    rep = evaluate(samples, reg, model, pc, regime="uniform")
    path = tmp_path / "report.csv"
    write_report(rep, path)
    back = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="ascii")
    assert list(back["stage"]) == list(range(len(rep.mae_per_stage)))
    assert set(back["regime"]) == {rep.regime}
    assert set(back["n_samples"]) == {rep.n_samples}
    np.testing.assert_array_equal(back["mae_deg"], rep.mae_per_stage)
    assert np.isnan(back["shape_cosine"]).all()


def test_shape_cosine_column_is_the_mean_over_samples():
    from morphfit import fit, make_procedural_model
    model = make_procedural_model(3, 80, 3)
    pc = ProtocolConfig(range_deg=20.0, step_train=20.0, step_test=20.0, backgrounds=1,
                        width=160, height=120, focal=500.0, n_shape=1, seed=9)
    samples = generate_set(model, pc, "test")
    # two stages that move only the shape coefficient, by a feature-dependent step
    rng = np.random.default_rng(43)
    stages = []
    for _ in range(2):
        A = np.zeros((7, 17 * 128))
        A[6] = rng.normal(scale=0.05, size=17 * 128)
        stages.append(WeakRegressor(A=A, b=np.zeros(7)))
    reg = CascadeRegressor(stages=stages, scale=ParamScale(np.zeros(7), np.ones(7)),
                           feature_dim=17 * 128)
    cam = pc.camera()
    rep = evaluate(samples, reg, model, pc, regime="fixed")
    assert rep.n_samples == len(samples) and rep.n_failures == 0
    assert np.isnan(rep.cosine_per_stage[0])  # every fit starts at the mean face
    trajectories = [fit(s.image, initial_theta(s, "fixed"), reg, model, cam).trajectory
                    for s in samples]
    for stage in (1, 2):
        expected = np.mean([shape_cosine(t[stage, 6:], s.theta_gt[6:])
                            for t, s in zip(trajectories, samples)])
        assert abs(expected) < 1  # the samples do not all agree in sign
        assert rep.cosine_per_stage[stage] == pytest.approx(expected, abs=1e-12)
