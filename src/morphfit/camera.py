"""Pinhole camera chain: rotations, translation, perspective divide.

Conventions (pinned by the regression tests, do not change silently):
  * right-handed model/camera space, y up, camera at the origin looking
    down -z; visible points have camera z < 0
  * rotation order: roll (z) first, then pitch (x), then yaw (y),
    then translation: p_cam = Ry Rx Rz p + t
  * angles are degrees everywhere in the public API
  * screen origin is the top-left pixel corner area, u right, v down:
    u = cx + f*x/(-z), v = cy - f*y/(-z)
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class CameraConfig:
    focal: float = 1500.0  # pixels
    width: int = 640
    height: int = 480
    cx: float = None
    cy: float = None

    def __post_init__(self):
        if not (np.isfinite(self.focal) and self.focal > 0):
            raise ValueError("focal must be finite and positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1")
        if self.cx is None:
            self.cx = self.width / 2.0
        if self.cy is None:
            self.cy = self.height / 2.0
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise ValueError("principal point must be finite")


def rot_x(deg):
    a = np.radians(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(deg):
    a = np.radians(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rot_z(deg):
    a = np.radians(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def rotation_from_angles(rx, ry, rz):
    """Combined rotation Ry(ry) @ Rx(rx) @ Rz(rz), degrees."""
    return rot_y(ry) @ rot_x(rx) @ rot_z(rz)


def to_camera(points, pose):
    """Camera-space coordinates of (n, 3) model points (mm) under
    pose = [rx ry rz tx ty tz] (degrees, mm): R @ p + t, R = Ry Rx Rz."""
    pose = np.asarray(pose, dtype=np.float64).reshape(-1)
    if pose.shape != (6,):
        raise ValueError("pose needs 6 values [rx ry rz tx ty tz]")
    if not np.all(np.isfinite(pose)):
        raise ValueError("pose parameters must be finite")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (n, 3)")
    return pts @ rotation_from_angles(*pose[:3]).T + pose[3:]


def project_points(points, pose, cam):
    """Project (n, 3) model points to pixel coordinates.

    Returns (uv, valid): uv is (n, 2); rows with camera z >= -1e-6 (at or
    behind the camera plane) are NaN and flagged invalid. A non-finite
    pose raises ValueError.
    """
    pc = to_camera(points, pose)
    depth = -pc[:, 2]
    valid = depth > 1e-6
    uv = np.full((pc.shape[0], 2), np.nan)
    d = depth[valid]
    uv[valid, 0] = cam.cx + cam.focal * pc[valid, 0] / d
    uv[valid, 1] = cam.cy - cam.focal * pc[valid, 1] / d
    return uv, valid


def pose_from_landmarks_rough(points2d, points3d, cam):
    """Coarse pose from 2D/3D landmark correspondences.

    Depth comes from the ratio of bounding-box extents through the pinhole,
    x/y translation from centroid back-projection; all angles are left at
    zero. Good enough to land inside the trained cascade's basin; not an
    accurate pose. Returns the pose vector [0 0 0 tx ty tz].
    """
    uv = np.asarray(points2d, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(points3d, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points3d must be (n, 3)")
    if uv.shape[0] != pts.shape[0] or uv.shape[0] < 4:
        raise ValueError("need at least 4 matching 2D/3D points")

    ext_u = uv[:, 0].max() - uv[:, 0].min()
    ext_v = uv[:, 1].max() - uv[:, 1].min()
    ext_x = pts[:, 0].max() - pts[:, 0].min()
    ext_y = pts[:, 1].max() - pts[:, 1].min()
    if ext_u < 1e-9 or ext_v < 1e-9:
        raise ValueError("degenerate 2D landmark set")
    if ext_x < 1e-9 or ext_y < 1e-9:
        raise ValueError("degenerate 3D landmark set")

    depth = cam.focal * (ext_x + ext_y) / (ext_u + ext_v)
    tz = -depth
    cu, cv = uv.mean(axis=0)
    cx3, cy3 = pts[:, 0].mean(), pts[:, 1].mean()
    tx = (cu - cam.cx) * depth / cam.focal - cx3
    ty = (cam.cy - cv) * depth / cam.focal - cy3
    return np.array([0.0, 0.0, 0.0, tx, ty, tz])
