import numpy as np
import pytest

from morphfit import CameraConfig, DegenerateGeometryError, euler_from_rotation, \
    make_procedural_model, posit, project_points, select_landmarks, to_camera
from morphfit.camera import rotation_from_angles

CAM = CameraConfig(focal=1500.0, width=640, height=480)


def exact_correspondences(model, pose, cam=CAM):
    """Landmark pixels (n, 2) through `cam` and their model points (n, 3)."""
    pts3d = select_landmarks(model, np.zeros(model.num_modes))
    uv, ok = project_points(pts3d, pose, cam)
    assert ok.all()
    return uv, pts3d


def test_euler_identity():
    assert euler_from_rotation(np.eye(3)) == (0.0, 0.0, 0.0)


def test_euler_round_trip():
    r = rotation_from_angles(10.0, 20.0, 30.0)
    rx, ry, rz = euler_from_rotation(r)
    np.testing.assert_allclose([rx, ry, rz], [10.0, 20.0, 30.0], atol=1e-9)
    rng = np.random.default_rng(30)
    for _ in range(200):
        angles = rng.uniform([-89, -179, -179], [89, 179, 179])
        back = euler_from_rotation(rotation_from_angles(*angles))
        np.testing.assert_allclose(back, angles, atol=1e-9)


def test_euler_gimbal_lock_convention():
    r = rotation_from_angles(90.0, 25.0, 40.0)
    rx, ry, rz = euler_from_rotation(r)
    assert rz == 0.0
    assert rx == pytest.approx(90.0, abs=1e-7)
    # only ry - rz is observable at the +90 pole
    np.testing.assert_allclose(ry, 25.0 - 40.0, atol=1e-7)
    rebuilt = rotation_from_angles(rx, ry, rz)
    np.testing.assert_allclose(rebuilt, r, atol=1e-9)


def test_euler_rejects_non_rotation():
    with pytest.raises(ValueError):
        euler_from_rotation(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError):
        euler_from_rotation(np.eye(3) * 1.01)


def test_posit_recovers_exact_pose(small_model):
    rng = np.random.default_rng(31)
    # the second camera's focal length and principal point both differ from CAM's
    for cam in [CAM] * 10 + [CameraConfig(focal=800.0, width=320, height=240)] * 10:
        pose = np.array([rng.uniform(-30, 30), rng.uniform(-30, 30),
                         rng.uniform(-20, 20), rng.uniform(-20, 20),
                         rng.uniform(-20, 20), -1200.0])
        uv, pts3d = exact_correspondences(small_model, pose, cam)
        res = posit(uv, pts3d, cam)
        assert res.converged
        np.testing.assert_allclose(res.pose[:3], pose[:3], atol=0.01)
        np.testing.assert_allclose(res.pose[3:], pose[3:], atol=0.5)
        # the pose vector reprojects the landmarks where they were seen (< 5e-4 px here)
        back, ok = project_points(pts3d, res.pose, cam)
        assert ok.all() and np.max(np.abs(back - uv)) <= 0.01


def test_posit_orthographic_limit(small_model):
    # exact scaled-orthographic projections at extreme distance: one
    # perspective-correction round recovers the pose
    pose = np.array([12.0, -18.0, 7.0, 0.0, 0.0, -1.0e6])
    pts3d = select_landmarks(small_model, np.zeros(small_model.num_modes))
    pc = to_camera(pts3d, pose)
    z0 = -pc[0, 2]
    uv = np.stack([CAM.cx + CAM.focal * pc[:, 0] / z0,
                   CAM.cy - CAM.focal * pc[:, 1] / z0], axis=1)
    res = posit(uv, pts3d, CAM, max_iters=1)
    np.testing.assert_allclose(res.pose[:3], pose[:3], atol=0.1)


def test_posit_scale_invariance(small_model):
    pose = np.array([8.0, -14.0, 5.0, 0.0, 0.0, -1200.0])
    uv, pts3d = exact_correspondences(small_model, pose)
    res1 = posit(uv, pts3d, CAM)
    for c in (10.0, 0.01):
        res2 = posit(uv, pts3d * c, CAM)
        np.testing.assert_allclose(rotation_from_angles(*res2.pose[:3]),
                                   rotation_from_angles(*res1.pose[:3]), atol=1e-6)
        np.testing.assert_allclose(res2.pose[3:], res1.pose[3:] * c, rtol=1e-4)


def test_posit_noise_degrades_but_runs(small_model):
    rng = np.random.default_rng(32)
    pose = np.array([10.0, 20.0, 0.0, 0.0, 0.0, -1200.0])
    uv, pts3d = exact_correspondences(small_model, pose)
    noisy = uv + rng.normal(0, 5, uv.shape)
    err = np.abs(posit(noisy, pts3d, CAM).pose[:3] - [10.0, 20.0, 0.0])
    assert err.mean() > 0.05  # measurably worse than the exact case
    assert err.mean() < 20.0


def _with_value(a, index, value):
    a = a.copy()
    a[index] = value
    return a


@pytest.mark.parametrize("edit, problem", [
    (lambda uv, pts: (uv, pts), None),
    (lambda uv, pts: (uv[:3], pts[:3]), "need at least 4 correspondences"),
    (lambda uv, pts: (uv[:7], pts), "2D/3D point counts differ"),
    (lambda uv, pts: (uv, pts[:, :2]), r"points3d must be \(n, 3\)"),
    (lambda uv, pts: (_with_value(uv, (2, 1), np.nan), pts), "non-finite correspondences"),
    (lambda uv, pts: (uv, _with_value(pts, (5, 0), np.inf)), "non-finite correspondences"),
], ids=["coplanar", "3-points", "counts-differ", "points3d-n2", "nan-2d", "inf-3d"])
def test_posit_rejects_degenerate_geometry(edit, problem):
    rng = np.random.default_rng(33)
    planar = np.column_stack([rng.normal(0, 50, 8), rng.normal(0, 50, 8), np.zeros(8)])
    uv = rng.normal(0, 50, (8, 2))
    # each input check raises its own message before the solve's degeneracy test
    with pytest.raises(DegenerateGeometryError if problem is None else ValueError, match=problem):
        posit(*edit(uv, planar), CAM)


def test_posit_nonconvergence_flagged(small_model):
    rng = np.random.default_rng(34)
    pose = np.array([10.0, 5.0, 0.0, 0.0, 0.0, -1200.0])
    uv, pts3d = exact_correspondences(small_model, pose)
    res = posit(uv + rng.normal(0, 3, uv.shape), pts3d, CAM, max_iters=1, tol=1e-12)
    assert not res.converged
    assert res.iters == 1
    assert res.pose.shape == (6,) and np.all(np.isfinite(res.pose))


def test_posit_rejects_bad_iteration_settings(small_model):
    uv, pts3d = exact_correspondences(small_model, np.array([10.0, 5.0, 0.0, 0.0, 0.0, -1200.0]))
    for kwargs, msg in (({"max_iters": 0}, "max_iters must be at least 1, got 0"),
                        ({"max_iters": -2}, "max_iters must be at least 1, got -2"),
                        ({"tol": -1.0}, "tol must be finite and nonnegative, got -1.0"),
                        ({"tol": float("nan")}, "tol must be finite and nonnegative, got nan"),
                        ({"tol": float("inf")}, "tol must be finite and nonnegative, got inf")):
        with pytest.raises(ValueError, match=msg):
            posit(uv, pts3d, CAM, **kwargs)
    assert posit(uv, pts3d, CAM, max_iters=1, tol=0.0).iters == 1


def test_posit_on_full_scale_model():
    model = make_procedural_model(42, 500, 10)
    pose = np.array([-25.0, 30.0, 0.0, 2.0, -1.5, -1200.0])
    res = posit(*exact_correspondences(model, pose), CAM)
    np.testing.assert_allclose(res.pose[:3], [-25.0, 30.0, 0.0], atol=0.01)
