"""Classical POSIT: pose from 2D/3D correspondences by iterated
scaled-orthographic solves with perspective correction.

The solve runs in the usual computer-vision frame (x right, y down,
z forward, depths positive). Its result is converted back to this
package's camera convention (y up, camera looking down -z) and returned
as the pose vector [rx ry rz tx ty tz] that camera.project_points takes.
"""

from dataclasses import dataclass

import numpy as np


class DegenerateGeometryError(ValueError):
    pass


@dataclass(eq=False)
class Correspondences:
    points2d: np.ndarray  # (n, 2) pixel coordinates, v down
    points3d: np.ndarray  # (n, 3) model points, mm
    focal: float          # pixels
    cx: float = 0.0       # principal point used to center points2d
    cy: float = 0.0

    def __post_init__(self):
        self.points2d = np.asarray(self.points2d, dtype=np.float64).reshape(-1, 2)
        self.points3d = np.asarray(self.points3d, dtype=np.float64)
        if self.points3d.ndim != 2 or self.points3d.shape[1] != 3:
            raise ValueError("points3d must be (n, 3)")
        if self.points2d.shape[0] != self.points3d.shape[0]:
            raise ValueError("2D/3D point counts differ")
        if self.points2d.shape[0] < MIN_POINTS:
            raise ValueError("need at least %d correspondences" % MIN_POINTS)
        if self.focal <= 0:
            raise ValueError("focal must be positive")
        if not (np.all(np.isfinite(self.points2d)) and np.all(np.isfinite(self.points3d))):
            raise ValueError("non-finite correspondences")


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


# iteration defaults of posit(), also read by the CLI's posit --max-iters/--tol
MAX_ITERS = 100
TOL = 1e-5
MIN_POINTS = 4  # a reference point and three non-coplanar vectors from it


def posit(corr, max_iters=MAX_ITERS, tol=TOL):
    """Estimate pose from correspondences; reference point is points3d[0].

    Iterates the scaled-orthographic solve, updating the perspective
    correction terms until their largest change is below `tol`. Raises
    DegenerateGeometryError for coplanar or collinear 3D points, and
    ValueError for max_iters < 1 or a negative or non-finite tol. If the
    iteration does not converge, the best iterate is returned flagged.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1, got %r" % (max_iters,))
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative, got %r" % (tol,))
    x = corr.points2d[:, 0] - corr.cx
    y = corr.points2d[:, 1] - corr.cy
    ref = corr.points3d[0]
    a = corr.points3d - ref
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] < 1e-12 or sv[2] < 1e-9 * sv[0]:
        raise DegenerateGeometryError("3D points are coplanar or collinear")
    b = np.linalg.pinv(a)

    eps = np.zeros(len(x))
    rot = np.eye(3)
    z0 = corr.focal
    converged = False
    for iters in range(1, max_iters + 1):
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
        z0 = corr.focal / scale
        eps_new = (a @ rot[2]) / z0
        change = np.max(np.abs(eps_new - eps))
        eps = eps_new
        if change < tol:
            converged = True
            break

    t_ref = np.array([x[0] * z0 / corr.focal, y[0] * z0 / corr.focal, z0])
    t_origin = t_ref - rot @ ref
    return PositResult(pose=np.array([*euler_from_rotation(_FLIP @ rot), *(_FLIP @ t_origin)]),
                       iters=iters, converged=converged)


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
