import numpy as np
import pytest

from morphfit import CascadeRegressor, ParamScale, WeakRegressor, angle_errors, evaluate, \
    shape_cosine
from morphfit.evaluate import initial_theta, posit_baseline, write_report
from morphfit.shape_model import init_theta
from morphfit.synth import INIT_OFFSET, ProtocolConfig, generate_set


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


def test_fixed_regime_starts_from_init_theta(small_model):
    pc = ProtocolConfig(range_deg=20.0, step_test=20.0, width=160, height=120, focal=500.0,
                        n_shape=1, seed=4)
    for s in generate_set(small_model, pc, "test"):
        assert initial_theta(s, "fixed").tobytes() == \
            init_theta(s.theta_gt, INIT_OFFSET).tobytes()


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


@pytest.mark.parametrize("init_offset", [INIT_OFFSET])
def test_fixed_regime_stage0_is_eleven(tiny_eval_setup, init_offset):
    # every angle of the fixed regime's init is off by INIT_OFFSET
    model, pc, samples = tiny_eval_setup
    reg = CascadeRegressor(stages=[], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128)
    rep = evaluate(samples, reg, model, pc, regime="fixed")
    assert rep.mae_per_stage[0] == pytest.approx(init_offset)


def test_evaluate_and_posit_drop_failed_samples_in_order(tiny_eval_setup, caplog):
    import logging
    from morphfit.synth import TrainingSample
    model, pc, samples = tiny_eval_setup
    zero = WeakRegressor(A=np.zeros((6, 17 * 128)), b=np.zeros(6))
    reg = CascadeRegressor(stages=[zero], scale=ParamScale(np.zeros(6), np.ones(6)),
                           feature_dim=17 * 128)
    behind = [0, 0, 0, 0, 0, 2000.0]  # both the truth and the init
    bad = [TrainingSample(image=samples[0].image, theta_gt=behind, theta_init=behind, id=sid)
           for sid in ("behind_a", "behind_b")]
    batch = list(samples)
    batch.insert(5, bad[1])
    batch.insert(1, bad[0])

    def records():
        return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]

    for jobs in (1, 3):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="morphfit.evaluate"):
            rep = evaluate(batch, reg, model, pc, regime="uniform", jobs=jobs)
        assert (rep.n_samples, rep.n_failures) == (len(samples), 2)
        assert records() == [("morphfit.evaluate", "WARNING", "dropping sample %s, failed to "
                              "evaluate the uniform regime: stage 0: all landmark projections "
                              "failed" % s.id) for s in bad]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="morphfit.evaluate"):
        baseline = posit_baseline(batch, model, pc)
    assert [sid for sid, _, _ in baseline] == [s.id for s in samples]
    assert records() == [("morphfit.evaluate", "WARNING", "dropping sample %s, failed to give a "
                          "POSIT estimate: 17 landmarks lie at or behind the camera" % s.id)
                         for s in bad]
    # a batch with no sample left is an error
    with pytest.raises(RuntimeError, match="^every sample failed to evaluate the uniform regime$"):
        evaluate(bad, reg, model, pc, regime="uniform", jobs=3)
    with pytest.raises(RuntimeError, match="^every sample failed to give a POSIT estimate$"):
        posit_baseline(bad, model, pc)


def test_posit_noise_does_not_depend_on_the_batch(tiny_eval_setup):
    # a sample's pixel noise is keyed by its id, not its place in the list: over
    # the set reversed and over a subset, each id gets the pose and errors it gets
    # over the whole set
    model, pc, samples = tiny_eval_setup

    def by_id(batch, noise_px=2.0):
        return {sid: (res.pose.tolist(), err.tolist())
                for sid, res, err in posit_baseline(batch, model, pc, noise_px, seed=4)}
    full = by_id(samples)
    assert len(full) == len(samples) > 2
    assert by_id(samples[::-1]) == full
    subset = by_id(samples[1::2])
    assert subset == {sid: full[sid] for sid in subset} and len(subset) == len(samples[1::2])
    clean = by_id(samples, noise_px=0.0)
    assert all(clean[sid][0] != full[sid][0] for sid in full)  # the noise is on


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
