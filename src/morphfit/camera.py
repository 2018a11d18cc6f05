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

    def __post_init__(self):
        if not (np.isfinite(self.focal) and self.focal > 0):
            raise ValueError("focal must be finite and positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1")

    cx = property(lambda self: self.width / 2.0)  # principal point: the image centre
    cy = property(lambda self: self.height / 2.0)


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

