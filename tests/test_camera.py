import numpy as np
import pytest

from morphfit import CameraConfig, pose_from_landmarks_rough, project_points, to_camera
from morphfit.camera import rotation_from_angles

CAM = CameraConfig(focal=1500.0, width=640, height=480)
ORIGIN = np.array([[0.0, 0.0, 0.0]])
OFFSET_X = np.array([[10.0, 0.0, 0.0]])


def pose(rx=0.0, ry=0.0, rz=0.0, tx=0.0, ty=0.0, tz=0.0):
    return np.array([rx, ry, rz, tx, ty, tz])


def test_zero_pose_is_identity():
    pts = np.random.default_rng(1).normal(0, 40, (5, 3))
    np.testing.assert_array_equal(to_camera(pts, pose()), pts)


def test_pure_translation():
    pts = np.eye(3)
    np.testing.assert_array_equal(to_camera(pts, pose(tx=1, ty=2, tz=3)), pts + [1, 2, 3])


def test_yaw_90_rotates_x_to_minus_z():
    p = to_camera(np.array([[1.0, 0.0, 0.0]]), pose(ry=90.0))
    np.testing.assert_allclose(p[0], [0.0, 0.0, -1.0], atol=1e-12)


def test_projection_principal_point():
    uv, ok = project_points(ORIGIN, pose(tz=-1200.0), CAM)
    assert ok.all()
    np.testing.assert_allclose(uv[0], [320.0, 240.0], atol=1e-9)


def test_projection_offset_point():
    # u = 320 + 1500*10/1200 = 332.5
    uv, _ = project_points(OFFSET_X, pose(tz=-1200.0), CAM)
    np.testing.assert_allclose(uv[0], [332.5, 240.0], atol=1e-9)


def test_projection_roll_180_flips_offset():
    uv, _ = project_points(OFFSET_X, pose(rz=180.0, tz=-1200.0), CAM)
    np.testing.assert_allclose(uv[0], [307.5, 240.0], atol=1e-9)


def test_rotations_orthonormal_1000_random_poses():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        rx, ry, rz = rng.uniform(-180, 180, 3)
        r = rotation_from_angles(rx, ry, rz)
        assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_rotation_order_pinned():
    # the camera rotation must equal Ry @ Rx @ Rz, written out analytically
    rx, ry, rz = np.radians([10.0, 20.0, 30.0])
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    expected = np.array([
        [cy * cz + sy * sx * sz, -cy * sz + sy * sx * cz, sy * cx],
        [cx * sz, cx * cz, -sx],
        [-sy * cz + cy * sx * sz, sy * sz + cy * sx * cz, cy * cx],
    ])
    # columns of the rotation are the images of the unit axes
    got = to_camera(np.eye(3), pose(rx=10.0, ry=20.0, rz=30.0)).T
    np.testing.assert_allclose(got, expected, atol=1e-15)
    # and differs from the other composition order
    other = rotation_from_angles(0, 0, 30) @ rotation_from_angles(10, 0, 0) \
        @ rotation_from_angles(0, 20, 0)
    assert np.max(np.abs(got - other)) > 1e-3


def test_point_behind_camera_flagged():
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1300.0]])
    uv, ok = project_points(pts, pose(tz=-1200.0), CAM)
    assert ok[0] and not ok[1]
    assert np.isnan(uv[1]).all()


def test_projection_rejects_bad_pose_and_points():
    for bad in (pose(rx=np.nan, tz=-1200.0), pose(tx=np.inf), np.zeros(5), np.zeros(7)):
        with pytest.raises(ValueError):
            project_points(ORIGIN, bad, CAM)
    with pytest.raises(ValueError):
        project_points(np.array([[0.0, 0.0, 0.0, 1.0]]), pose(tz=-1200.0), CAM)


def test_camera_config_rejects_non_finite():
    for kwargs in (dict(focal=np.nan), dict(focal=np.inf), dict(focal=0.0),
                   dict(cx=np.nan), dict(cy=np.inf)):
        with pytest.raises(ValueError):
            CameraConfig(**kwargs)


def test_rough_pose_recovers_depth(small_model):
    from morphfit import select_landmarks
    pts3d = select_landmarks(small_model, np.zeros(small_model.num_modes))
    uv, ok = project_points(pts3d, pose(tz=-1200.0), CAM)
    assert ok.all()
    rough = pose_from_landmarks_rough(uv, pts3d, CAM)
    assert rough.shape == (6,)
    assert abs(rough[5] - (-1200.0)) <= 120.0  # within 10%
    assert np.all(rough[:3] == 0.0)


def test_rough_pose_translation_shift(small_model):
    from morphfit import select_landmarks
    pts3d = select_landmarks(small_model, np.zeros(small_model.num_modes))
    uv, _ = project_points(pts3d, pose(tz=-1200.0), CAM)
    base = pose_from_landmarks_rough(uv, pts3d, CAM)
    shifted = pose_from_landmarks_rough(uv + [10.0, 0.0], pts3d, CAM)
    # tx moves by +10 * depth / focal, tz unchanged
    np.testing.assert_allclose(shifted[3] - base[3], 10.0 * (-base[5]) / CAM.focal,
                               rtol=1e-9)
    assert shifted[5] == base[5]


def test_rough_pose_rejects_degenerate_input():
    with pytest.raises(ValueError):
        pose_from_landmarks_rough(np.zeros((3, 2)), np.zeros((3, 3)), CAM)
    same2d = np.tile([5.0, 5.0], (4, 1))
    with pytest.raises(ValueError):
        pose_from_landmarks_rough(same2d, np.random.default_rng(0).normal(size=(4, 3)), CAM)
