import numpy as np
import pytest

from morphfit import CascadeRegressor, ParamScale, WeakRegressor, evaluate, mae_angles, \
    shape_cosine
from morphfit.cascade import param_layout
from morphfit.evaluate import initial_theta, read_report, write_report
from morphfit.synth import ProtocolConfig, generate_set


def test_mae_examples():
    gt = [np.array([1.0, 2.0, 3.0, 0, 0, -1200.0])]
    assert mae_angles(gt, gt) == 0.0
    off = [gt[0] + np.array([3.0, 0, 0, 50, 50, 50])]  # translations ignored
    assert mae_angles(off, gt) == pytest.approx(1.0)
    two_pred = [gt[0] + [3, 0, 0, 0, 0, 0], gt[0] + [0, 3, 0, 0, 0, 0]]
    assert mae_angles(two_pred, [gt[0], gt[0]]) == pytest.approx(1.0)


def test_mae_symmetry_and_positivity():
    rng = np.random.default_rng(40)
    a = [rng.normal(size=6) for _ in range(5)]
    b = [rng.normal(size=6) for _ in range(5)]
    assert mae_angles(a, b) == pytest.approx(mae_angles(b, a))
    assert mae_angles(a, b) > 0
    same_angles = [x.copy() for x in a]
    for x in same_angles:
        x[3:] += 99.0
    assert mae_angles(a, same_angles) == 0.0


def test_mae_input_validation():
    with pytest.raises(ValueError):
        mae_angles([], [])
    with pytest.raises(ValueError):
        mae_angles([np.zeros(6)], [])


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


def test_shape_cosine_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        shape_cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        shape_cosine([1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        shape_cosine([], [])


def test_initial_theta_regimes():
    from morphfit.synth import TrainingSample
    from morphfit import GrayImage
    img = GrayImage(width=4, height=4, pixels=np.zeros((4, 4)))
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
                           feature_dim=17 * 128, layout=param_layout(0))
    rep = evaluate(samples, reg, model, pc.camera(), regime="uniform")
    assert rep.mae_per_stage.shape == (1,)
    init_err = mae_angles([s.theta_init for s in samples], [s.theta_gt for s in samples])
    assert rep.mae_per_stage[0] == pytest.approx(init_err)
    assert rep.n_samples == len(samples)
    assert np.isnan(rep.cosine_per_stage).all()


def test_fixed_regime_stage0_is_eleven(tiny_eval_setup):
    model, pc, samples = tiny_eval_setup
    reg = CascadeRegressor(stages=[], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128, layout=param_layout(0))
    rep = evaluate(samples, reg, model, pc.camera(), regime="fixed")
    assert rep.mae_per_stage[0] == pytest.approx(11.0)


def test_evaluate_counts_non_finite_fits_as_failures(tiny_eval_setup):
    from morphfit import GrayImage
    from morphfit.synth import TrainingSample
    model, pc, samples = tiny_eval_setup
    # a huge update overflows to inf on textured images; a blank image has
    # all-zero descriptors, so its update stays finite
    huge = WeakRegressor(A=np.full((6, 17 * 128), 1e308), b=np.zeros(6))
    reg = CascadeRegressor(stages=[huge, huge], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128, layout=param_layout(0))
    blank = TrainingSample(image=GrayImage(width=160, height=120, pixels=np.zeros((120, 160))),
                           theta_gt=samples[0].theta_gt, theta_init=samples[0].theta_init,
                           id="blank")
    with np.errstate(over="ignore"):
        rep = evaluate(list(samples) + [blank], reg, model, pc.camera(), regime="uniform")
    assert rep.n_samples == 1
    assert rep.n_failures == len(samples)
    assert np.all(np.isfinite(rep.mae_per_stage))


def test_read_report_rejects_empty_and_short_rows(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="report.csv.*empty"):
        read_report(path)
    path.write_text("stage,mae_deg,shape_cosine,n_samples,regime\n0,1.5,nan\n")
    with pytest.raises(ValueError, match="report.csv.*row 1"):
        read_report(path)
    path.write_text("stage,mae_deg,shape_cosine,n_samples,regime\n0,x,nan,3,uniform\n")
    with pytest.raises(ValueError, match="report.csv.*row 1"):
        read_report(path)


def test_report_round_trip(tmp_path, tiny_eval_setup):
    model, pc, samples = tiny_eval_setup
    zero = WeakRegressor(A=np.zeros((6, 17 * 128)), b=np.zeros(6))
    reg = CascadeRegressor(stages=[zero], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128, layout=param_layout(0))
    rep = evaluate(samples, reg, model, pc.camera(), regime="uniform")
    path = tmp_path / "report.csv"
    write_report(rep, path)
    back = read_report(path)
    assert back.regime == rep.regime
    assert back.n_samples == rep.n_samples
    np.testing.assert_array_equal(back.mae_per_stage, rep.mae_per_stage)
    assert np.isnan(back.cosine_per_stage).all()
