import numpy as np
import pytest

from morphfit import CameraConfig, project_points, to_camera
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

    # bit for bit: the three elementary rotations written out here and
    # multiplied (Ry @ Rx) @ Rz, for seeded triples and at +-90 and +-180 degrees,
    # given as Python floats and as numpy scalars
    def reference(rx, ry, rz):
        (cx, sx), (cy, sy), (cz, sz) = [(np.cos(a), np.sin(a))
                                        for a in (np.radians(rx), np.radians(ry), np.radians(rz))]
        r_x = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]], dtype=np.float64)
        r_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]], dtype=np.float64)
        r_z = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]], dtype=np.float64)
        return (r_y @ r_x) @ r_z

    edges = [0.0, 90.0, -90.0, 180.0, -180.0]
    triples = np.concatenate([np.random.default_rng(39).uniform(-200.0, 200.0, (10000, 3)),
                              np.array(np.meshgrid(edges, edges, edges)).reshape(3, -1).T])
    for triple in triples:
        for angles in (tuple(triple), tuple(float(a) for a in triple)):
            assert np.array_equal(rotation_from_angles(*angles), reference(*angles))


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
    for kwargs in (dict(focal=np.nan), dict(focal=np.inf), dict(focal=0.0)):
        with pytest.raises(ValueError):
            CameraConfig(**kwargs)
    # the principal point is the image centre, derived rather than stored
    cam = CameraConfig(width=161, height=120)
    assert (cam.cx, cam.cy) == (80.5, 60.0)
    with pytest.raises(AttributeError):
        cam.cx = 3.0
