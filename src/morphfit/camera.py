"""Pinhole camera chain, both ways: a pose to pixels (rotation,
translation, perspective divide) and pixels back to a pose (POSIT,
DeMenthon & Davis 1995, and euler_from_rotation).

Conventions (pinned by the regression tests, do not change silently):
  * right-handed model/camera space, y up, camera at the origin looking
    down -z; visible points have camera z < 0
  * rotation order: roll (z) first, then pitch (x), then yaw (y),
    then translation: p_cam = Ry Rx Rz p + t
  * a pose is [rx ry rz tx ty tz]: POSE_NAMES, cut by ANGLES and TRANSLATION
  * angles are degrees everywhere in the public API
  * screen origin is the top-left pixel corner area, u right, v down:
    u = cx + f*x/(-z), v = cy - f*y/(-z), (cx, cy) the image centre
  * POSIT solves in the computer-vision frame (y down, z forward, depths
    positive) and maps its result back through _FLIP
"""

from dataclasses import dataclass

import numpy as np


POSE_NAMES = ["rx", "ry", "rz", "tx", "ty", "tz"]
ANGLES = slice(0, 3)       # rx ry rz, degrees
TRANSLATION = slice(3, 6)  # tx ty tz, mm


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


def rotation_from_angles(rx, ry, rz):
    """Combined rotation Ry(ry) @ Rx(rx) @ Rz(rz), degrees."""
    (cx, sx), (cy, sy), (cz, sz) = ((np.cos(a), np.sin(a)) for a in np.radians([rx, ry, rz]))
    return (np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]], dtype=np.float64)
            @ np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]], dtype=np.float64)
            @ np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]], dtype=np.float64))


def euler_from_rotation(rot):
    """Angles (rx, ry, rz) in degrees with Ry(ry) Rx(rx) Rz(rz) = rot.

    Near gimbal lock (|cos rx| < 1e-7) the roll is fixed at zero and the
    remaining freedom goes into ry.
    """
    r = np.asarray(rot, dtype=np.float64)
    if r.shape != (3, 3) or np.max(np.abs(r.T @ r - np.eye(3))) > 1e-6 \
            or abs(np.linalg.det(r) - 1.0) > 1e-6:
        raise ValueError("input is not a rotation matrix")
    sx = -r[1, 2]
    cx = np.hypot(r[1, 0], r[1, 1])
    rx = np.arctan2(sx, cx)
    if cx < 1e-7:
        rz = 0.0
        if sx > 0:
            ry = np.arctan2(r[0, 1], r[0, 0])
        else:
            ry = np.arctan2(-r[0, 1], r[0, 0])
    else:
        ry = np.arctan2(r[0, 2], r[2, 2])
        rz = np.arctan2(r[1, 0], r[1, 1])
    return np.degrees(rx), np.degrees(ry), np.degrees(rz)


def to_camera(points, pose):
    """Camera-space coordinates of (n, 3) model points (mm) under
    pose = [rx ry rz tx ty tz] (degrees, mm): R @ p + t, R = Ry Rx Rz."""
    pose = np.asarray(pose, dtype=np.float64).reshape(-1)
    if pose.shape != (len(POSE_NAMES),):
        raise ValueError("pose needs %d values [%s]" % (len(POSE_NAMES), " ".join(POSE_NAMES)))
    if not np.all(np.isfinite(pose)):
        raise ValueError("pose parameters must be finite")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be (n, 3)")
    return pts @ rotation_from_angles(*pose[ANGLES]).T + pose[TRANSLATION]


def project_points(points, pose, cam):
    """(n, 3) model points to pixels: perspective(to_camera(points, pose), cam)."""
    return perspective(to_camera(points, pose), cam)


def perspective(pc, cam):
    """The perspective divide of (n, 3) camera-space points.

    Returns (uv, valid): uv is (n, 2); rows with camera z >= -1e-6 (at or
    behind the camera plane) are NaN and flagged invalid.
    """
    depth = -pc[:, 2]
    valid = depth > 1e-6
    uv = np.full((pc.shape[0], 2), np.nan)
    d = depth[valid]
    uv[valid, 0] = cam.cx + cam.focal * pc[valid, 0] / d
    uv[valid, 1] = cam.cy - cam.focal * pc[valid, 1] / d
    return uv, valid


class DegenerateGeometryError(ValueError):
    pass


@dataclass(eq=False)
class PositResult:
    pose: np.ndarray  # (6,) [rx ry rz tx ty tz]: degrees, then the model origin in mm
    iters: int
    converged: bool


def _nearest_rotation(m):
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


# maps between our camera frame (y up, looking down -z) and the POSIT
# solve frame (y down, z forward): a 180-degree rotation about x
_FLIP = np.diag([1.0, -1.0, -1.0])


# posit()'s stopping rule: at most MAX_ITERS solves, until no correction term
# moves by TOL or more
MAX_ITERS = 100
TOL = 1e-5
MIN_POINTS = 4  # a reference point and three non-coplanar vectors from it


def posit(uv, pts3d, cam):
    """Estimate pose from pixel points uv (n, 2), v down, seen through the
    CameraConfig `cam`, and their model points pts3d (n, 3) in mm; the
    reference point is pts3d[0].

    Iterates the scaled-orthographic solve, updating the perspective
    correction terms until their largest change is below TOL. Raises
    DegenerateGeometryError for coplanar or collinear 3D points, and
    ValueError for pts3d not shaped (n, 3), unequal 2D/3D counts, fewer
    than MIN_POINTS rows or a non-finite point. If the iteration does not
    converge within MAX_ITERS, the last iterate is returned with converged
    False.
    """
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    pts3d = np.asarray(pts3d, dtype=np.float64)
    if pts3d.ndim != 2 or pts3d.shape[1] != 3:
        raise ValueError("points3d must be (n, 3)")
    if uv.shape[0] != pts3d.shape[0]:
        raise ValueError("2D/3D point counts differ")
    if uv.shape[0] < MIN_POINTS:
        raise ValueError("need at least %d correspondences" % MIN_POINTS)
    if not (np.all(np.isfinite(uv)) and np.all(np.isfinite(pts3d))):
        raise ValueError("non-finite correspondences")
    x = uv[:, 0] - cam.cx
    y = uv[:, 1] - cam.cy
    ref = pts3d[0]
    a = pts3d - ref
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] < 1e-12 or sv[2] < 1e-9 * sv[0]:
        raise DegenerateGeometryError("3D points are coplanar or collinear")
    b = np.linalg.pinv(a)

    eps = np.zeros(len(x))
    rot = np.eye(3)
    z0 = cam.focal
    converged = False
    for iters in range(1, MAX_ITERS + 1):
        xp = x * (1.0 + eps) - x[0]
        yp = y * (1.0 + eps) - y[0]
        i_vec = b @ xp
        j_vec = b @ yp
        s1, s2 = np.linalg.norm(i_vec), np.linalg.norm(j_vec)
        if s1 < 1e-15 or s2 < 1e-15:
            raise DegenerateGeometryError("degenerate image configuration")
        scale = 0.5 * (s1 + s2)
        k_vec = np.cross(i_vec / s1, j_vec / s2)
        rot = _nearest_rotation(np.stack([i_vec / s1, j_vec / s2, k_vec]))
        z0 = cam.focal / scale
        eps_new = (a @ rot[2]) / z0
        change = np.max(np.abs(eps_new - eps))
        eps = eps_new
        if change < TOL:
            converged = True
            break

    t_ref = np.array([x[0] * z0 / cam.focal, y[0] * z0 / cam.focal, z0])
    t_origin = t_ref - rot @ ref
    return PositResult(pose=np.array([*euler_from_rotation(_FLIP @ rot), *(_FLIP @ t_origin)]),
                       iters=iters, converged=converged)
