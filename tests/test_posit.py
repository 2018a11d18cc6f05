import numpy as np
import pytest

from morphfit import CameraConfig, Correspondences, DegenerateGeometryError, \
    euler_from_rotation, make_procedural_model, posit, project_points, select_landmarks, \
    to_camera
from morphfit.camera import rotation_from_angles

CAM = CameraConfig(focal=1500.0, width=640, height=480)


def exact_correspondences(model, pose, cam=CAM):
    pts3d = select_landmarks(model, np.zeros(model.num_modes))
    uv, ok = project_points(pts3d, pose, cam)
    assert ok.all()
    return Correspondences(points2d=uv, points3d=pts3d, focal=cam.focal,
                           cx=cam.cx, cy=cam.cy)


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
    for _ in range(10):
        pose = np.array([rng.uniform(-30, 30), rng.uniform(-30, 30),
                         rng.uniform(-20, 20), rng.uniform(-20, 20),
                         rng.uniform(-20, 20), -1200.0])
        res = posit(exact_correspondences(small_model, pose))
        assert res.converged
        rx, ry, rz = euler_from_rotation(res.rotation)
        np.testing.assert_allclose([rx, ry, rz], pose[:3], atol=0.01)
        np.testing.assert_allclose(res.translation, pose[3:], atol=0.5)
        assert np.max(np.abs(res.rotation.T @ res.rotation - np.eye(3))) <= 1e-9
        assert abs(np.linalg.det(res.rotation) - 1.0) <= 1e-9


def test_posit_orthographic_limit(small_model):
    # exact scaled-orthographic projections at extreme distance: one
    # perspective-correction round recovers the pose
    pose = np.array([12.0, -18.0, 7.0, 0.0, 0.0, -1.0e6])
    pts3d = select_landmarks(small_model, np.zeros(small_model.num_modes))
    pc = to_camera(pts3d, pose)
    z0 = -pc[0, 2]
    uv = np.stack([CAM.cx + CAM.focal * pc[:, 0] / z0,
                   CAM.cy - CAM.focal * pc[:, 1] / z0], axis=1)
    res = posit(Correspondences(points2d=uv, points3d=pts3d, focal=CAM.focal,
                                cx=CAM.cx, cy=CAM.cy), max_iters=1)
    rx, ry, rz = euler_from_rotation(res.rotation)
    np.testing.assert_allclose([rx, ry, rz], pose[:3], atol=0.1)


def test_posit_scale_invariance(small_model):
    pose = np.array([8.0, -14.0, 5.0, 0.0, 0.0, -1200.0])
    corr = exact_correspondences(small_model, pose)
    res1 = posit(corr)
    for c in (10.0, 0.01):
        scaled = Correspondences(points2d=corr.points2d, points3d=corr.points3d * c,
                                 focal=corr.focal, cx=corr.cx, cy=corr.cy)
        res2 = posit(scaled)
        np.testing.assert_allclose(res2.rotation, res1.rotation, atol=1e-6)
        np.testing.assert_allclose(res2.translation, res1.translation * c, rtol=1e-4)


def test_posit_noise_degrades_but_runs(small_model):
    rng = np.random.default_rng(32)
    pose = np.array([10.0, 20.0, 0.0, 0.0, 0.0, -1200.0])
    corr = exact_correspondences(small_model, pose)
    noisy = Correspondences(points2d=corr.points2d + rng.normal(0, 5, corr.points2d.shape),
                            points3d=corr.points3d, focal=corr.focal,
                            cx=corr.cx, cy=corr.cy)
    res = posit(noisy)
    rx, ry, rz = euler_from_rotation(res.rotation)
    err = np.abs(np.array([rx - 10.0, ry - 20.0, rz]))
    assert err.mean() > 0.05  # measurably worse than the exact case
    assert err.mean() < 20.0


def test_posit_rejects_degenerate_geometry():
    rng = np.random.default_rng(33)
    planar = np.column_stack([rng.normal(0, 50, 8), rng.normal(0, 50, 8), np.zeros(8)])
    uv = rng.normal(0, 50, (8, 2))
    with pytest.raises(DegenerateGeometryError):
        posit(Correspondences(points2d=uv, points3d=planar, focal=1500.0))
    with pytest.raises(ValueError):
        Correspondences(points2d=uv[:3], points3d=planar[:3], focal=1500.0)


def test_posit_nonconvergence_flagged(small_model):
    rng = np.random.default_rng(34)
    pose = np.array([10.0, 5.0, 0.0, 0.0, 0.0, -1200.0])
    corr = exact_correspondences(small_model, pose)
    noisy = Correspondences(points2d=corr.points2d + rng.normal(0, 3, corr.points2d.shape),
                            points3d=corr.points3d, focal=corr.focal,
                            cx=corr.cx, cy=corr.cy)
    res = posit(noisy, max_iters=1, tol=1e-12)
    assert not res.converged
    assert res.iters == 1
    assert np.max(np.abs(res.rotation.T @ res.rotation - np.eye(3))) <= 1e-9


def test_posit_on_full_scale_model():
    model = make_procedural_model(42, 500, 10)
    pose = np.array([-25.0, 30.0, 0.0, 2.0, -1.5, -1200.0])
    res = posit(exact_correspondences(model, pose))
    rx, ry, rz = euler_from_rotation(res.rotation)
    np.testing.assert_allclose([rx, ry, rz], [-25.0, 30.0, 0.0], atol=0.01)
