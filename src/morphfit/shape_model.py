"""PCA shape model: synthesis of 3D instances and the procedural stand-in model.

A model holds a mean shape (stacked xyz per vertex, millimeters), an
orthonormal deformation basis with per-mode standard deviations, a fixed
list of landmark vertex ids used for feature extraction, and a triangle
list used only by the renderer. Coefficients are in standard-deviation
units: an instance is  mean + sum_i alpha_i * sigma_i * basis[:, i].
A fit's theta = [pose, shape] is cut by POSE and SHAPE, named by param_layout
and started from a ground truth by init_theta.

The procedural model places its vertices along unit directions on a
Fibonacci sphere, and its triangles are the convex hull of those
directions: `_sphere_triangles` finds each facet among a point's nearest
neighbours by an empty-cap test, and `_check_hull` proves the result is the
hull (2N - 4 facets, every edge shared by two facets wound opposite ways,
convex across every edge) or raises RuntimeError; there is no fallback.
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import ANGLES, POSE_NAMES
from .util import TokenReader, write_fields


@dataclass(eq=False)
class ShapeModel:
    mean: np.ndarray          # (3V,) mm
    basis: np.ndarray         # (3V, K), orthonormal columns
    sigmas: np.ndarray        # (K,) positive, non-increasing
    landmark_ids: np.ndarray  # (n,) distinct vertex indices
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.basis = np.asarray(self.basis, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64).reshape(-1)
        self.landmark_ids = np.asarray(self.landmark_ids, dtype=np.int64).reshape(-1)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        self.validate()

    @property
    def vertex_count(self):
        return len(self.mean) // 3

    @property
    def num_modes(self):
        return self.basis.shape[1]

    def validate(self):
        v = self.vertex_count
        if v == 0 or len(self.mean) % 3:
            raise ValueError("mean must hold xyz of one or more vertices, got length %d"
                             % len(self.mean))
        if self.basis.ndim != 2 or self.basis.shape[0] != 3 * v:
            raise ValueError("basis must be (3V, K)")
        k = self.basis.shape[1]
        if self.sigmas.shape != (k,):
            raise ValueError("sigmas length must equal mode count")
        for name in ("mean", "basis", "sigmas"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s must be finite" % name)
        norms = np.linalg.norm(self.basis, axis=0)
        if k and np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("basis columns must be unit norm")
        gram = self.basis.T @ self.basis
        if k and np.max(np.abs(gram - np.eye(k))) > 1e-9:
            raise ValueError("basis columns must be orthogonal")
        if np.any(self.sigmas <= 0):
            raise ValueError("sigmas must be strictly positive")
        if np.any(np.diff(self.sigmas) > 0):
            raise ValueError("sigmas must be non-increasing")
        ids = self.landmark_ids
        if len(np.unique(ids)) != len(ids):
            raise ValueError("landmark_ids must be distinct")
        if len(ids) and (ids.min() < 0 or ids.max() >= v):
            raise ValueError("landmark_ids out of range")
        if len(self.triangles) and (self.triangles.min() < 0 or self.triangles.max() >= v):
            raise ValueError("triangle indices out of range")


def instance_shape(model, alpha):
    """Synthesize a 3D instance: mean + sum_i alpha_i * sigma_i * basis_i.

    alpha is in standard-deviation units; returns a (3V,) array in mm.
    """
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != model.num_modes:
        raise ValueError("alpha length %d != model modes %d" % (alpha.shape[0], model.num_modes))
    return model.mean + model.basis @ (alpha * model.sigmas)


POSE = slice(0, len(POSE_NAMES))      # theta's pose, POSE_NAMES
SHAPE = slice(len(POSE_NAMES), None)  # theta's shape coefficients, in sigmas


def param_layout(n_shape):
    """Parameter names for a pose + n_shape coefficient vector."""
    return POSE_NAMES + ["a%d" % i for i in range(n_shape)]


def split_theta(model, theta):
    """Split theta = [rx ry rz tx ty tz alpha...] into the pose (6,) and the
    model's K shape coefficients, missing trailing ones zero.

    Raises ValueError for fewer than 6 or more than 6 + K entries, or a
    non-finite entry.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    n_pose = len(POSE_NAMES)
    if not n_pose <= theta.shape[0] <= n_pose + model.num_modes:
        raise ValueError("theta has %d entries; the model takes %d..%d"
                         % (theta.shape[0], n_pose, n_pose + model.num_modes))
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta has a non-finite entry")
    alpha = np.zeros(model.num_modes)
    alpha[:theta.shape[0] - n_pose] = theta[SHAPE]
    return theta[POSE], alpha


def init_theta(theta_gt, d_angles):
    """theta_gt plus d_angles (scalar or 3-vector) on its angles, shape at the mean face; a copy."""
    theta = np.array(theta_gt, dtype=np.float64)
    theta[ANGLES] += d_angles
    theta[SHAPE] = 0.0
    return theta


def select_landmarks(model, alpha):
    """Landmark vertices of the instance, as (n, 3) points in mm."""
    return instance_shape(model, alpha).reshape(-1, 3)[model.landmark_ids]


# ---------------------------------------------------------------------------
# Procedural model generation (substitute for a scanned-face PCA model)
# ---------------------------------------------------------------------------

# Unit directions (before normalization) of distinctive surface spots.
# y is up, the face looks along +z.
_LANDMARK_DIRS = [
    (0.00, -0.12, 1.00),   # nose tip
    (0.00, 0.06, 1.00),    # nose bridge
    (-0.15, -0.27, 1.00),  # left nostril wing
    (0.15, -0.27, 1.00),   # right nostril wing
    (-0.48, 0.17, 0.90),   # left eye outer corner
    (-0.17, 0.17, 1.00),   # left eye inner corner
    (0.17, 0.17, 1.00),    # right eye inner corner
    (0.48, 0.17, 0.90),    # right eye outer corner
    (-0.33, 0.40, 0.92),   # left brow
    (0.33, 0.40, 0.92),    # right brow
    (-0.28, -0.50, 0.92),  # left mouth corner
    (0.28, -0.50, 0.92),   # right mouth corner
    (0.00, -0.56, 1.00),   # mouth center
    (0.00, -0.84, 0.60),   # chin
    (-0.66, -0.12, 0.62),  # left cheek contour
    (0.66, -0.12, 0.62),   # right cheek contour
    (0.00, 0.60, 0.82),    # forehead
]

# Radial bumps carving facial relief into the base ellipsoid:
# (direction, angular width rad, height mm).
_FACE_BUMPS = [
    ((0.00, -0.12, 1.00), 0.20, 24.0),   # nose
    ((-0.33, 0.38, 0.95), 0.22, 6.0),    # left brow ridge
    ((0.33, 0.38, 0.95), 0.22, 6.0),     # right brow ridge
    ((-0.30, 0.17, 1.00), 0.15, -5.0),   # left eye socket
    ((0.30, 0.17, 1.00), 0.15, -5.0),    # right eye socket
    ((0.00, -0.54, 1.00), 0.16, -4.0),   # mouth
    ((0.00, -0.84, 0.58), 0.28, 10.0),   # chin
]

_SEMI_AXES = (80.0, 105.0, 78.0)  # mm, half extents in x / y / z


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.sqrt(v.dot(v))  # np.linalg.norm's own arithmetic, without its overhead


def _fibonacci_sphere(n):
    """n roughly uniform unit directions (golden-angle spiral)."""
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    return np.stack([r * np.cos(phi), y, r * np.sin(phi)], axis=1)


_NEAREST = 7        # neighbour candidates kept per point
_PAIRS = np.triu_indices(_NEAREST, 1)
_PLANE_TOL = 1e-12  # times |n|: a point this close above a facet's plane counts as on it


def _facet_normals(dirs, tris):
    """First corners (T, 3) and unnormalised normals (T, 3) of the triangles."""
    p = np.take(dirs, tris, axis=0)
    return p[:, 0], np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def _above(points, base, n):
    """Per facet, whether any of its points (k, T, 3) lies above the plane
    through base (T, 3) with unnormalised normal n (T, 3), by more than
    _PLANE_TOL * |n|."""
    height = np.einsum("ktj,tj->kt", points, n).max(axis=0) - np.einsum("tj,tj->t", base, n)
    return height > _PLANE_TOL * np.sqrt(np.einsum("tj,tj->t", n, n))


def _sphere_triangles(dirs):
    """The convex hull of Fibonacci-sphere directions as (2N - 4, 3) triangles,
    each wound outward and starting at its smallest index, rows sorted.

    On a sphere the hull is the Delaunay triangulation, and a Fibonacci
    point's nearest neighbours sit at index offsets that are Fibonacci numbers
    (Keinert et al., "Spherical Fibonacci Mapping", 2015). So each point i
    keeps its _NEAREST nearest among i +- F, every pair (a, b) of them with
    i < a, b is a candidate facet, and a candidate is kept when none of i's
    neighbours lies above its plane (an empty cap). `_check_hull` then proves
    the result is the hull or raises RuntimeError.
    """
    n = len(dirs)
    fib = [1, 2]
    while fib[-1] < n:
        fib.append(fib[-1] + fib[-2])
    ids = np.arange(n)
    cand = ids[:, None] + np.array([-f for f in fib[:-1]] + fib[:-1])
    outside = (cand < 0) | (cand >= n)  # past either end: never among the nearest
    cand[outside] = 0
    dots = np.einsum("ij,ikj->ik", dirs, np.take(dirs, cand, axis=0))
    dots[outside] = -np.inf
    near = np.take_along_axis(cand, np.argpartition(-dots, _NEAREST - 1)[:, :_NEAREST], axis=1)

    a, b = near[:, _PAIRS[0]], near[:, _PAIRS[1]]
    i, k = np.nonzero((a > ids[:, None]) & (b > ids[:, None]))
    tris = np.stack([i, a[i, k], b[i, k]], axis=1)
    base, normal = _facet_normals(dirs, tris)
    inward = np.einsum("tj,tj->t", base, normal) < 0
    tris[inward, 1:] = tris[inward][:, [2, 1]]
    normal[inward] *= -1.0
    # each candidate's cap is tested against its i's neighbours, (k, T, 3)
    empty = ~_above(np.take(dirs, np.take(near.T, i, axis=1), axis=0), base, normal)
    tris = tris[empty]
    tris = tris[np.lexsort(tris.T[::-1])]
    _check_hull(dirs, tris)
    return tris


def _check_hull(dirs, tris):
    """RuntimeError unless the outward-wound triangles over unit directions are
    their convex hull: 2N - 4 facets, every directed edge once with its
    reverse in another facet, and across every edge the opposite corner on or
    below the facet's plane. A closed, locally convex surface through points
    on a sphere is their hull."""
    n = len(dirs)
    if len(tris) != 2 * n - 4:
        raise RuntimeError("sphere triangulation has %d facets, not %d" % (len(tris), 2 * n - 4))
    u, v = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    key = np.minimum(u, v) * n + np.maximum(u, v)
    pairs = np.argsort(key).reshape(-1, 2)  # each undirected edge's two directed ones
    key, forward = key[pairs], (u < v)[pairs]
    if np.any(key[:, 0] != key[:, 1]) or np.any(key[1:, 0] == key[:-1, 0]) \
            or np.any(forward[:, 0] == forward[:, 1]):
        raise RuntimeError("sphere triangulation is not a closed, consistently wound surface")
    twin = np.empty_like(u)
    twin[pairs] = pairs[:, ::-1]
    opposite = tris[:, [2, 0, 1]].ravel()[twin].reshape(-1, 3)
    if np.any(_above(np.take(dirs, opposite.T, axis=0), *_facet_normals(dirs, tris))):
        raise RuntimeError("sphere triangulation is not convex")


def _face_surface(dirs):
    """Map unit directions to face-shaped surface points (mm)."""
    a, b, c = _SEMI_AXES
    inv = np.sqrt((dirs[:, 0] / a) ** 2 + (dirs[:, 1] / b) ** 2 + (dirs[:, 2] / c) ** 2)
    radius = 1.0 / inv
    for d, width, height in _FACE_BUMPS:
        ang = np.arccos(np.clip(dirs @ _unit(d), -1.0, 1.0))
        radius = radius + height * np.exp(-0.5 * (ang / width) ** 2)
    return dirs * radius[:, None]


def _pick_landmarks(dirs):
    """Greedy nearest-vertex assignment of the 17 landmark spots."""
    free = np.ones(len(dirs), dtype=bool)
    ids = []
    for target in _LANDMARK_DIRS:
        ids.append(int(np.argmax(np.where(free, dirs @ _unit(target), -np.inf))))
        free[ids[-1]] = False
    return np.array(ids, dtype=np.int64)


def _rigid_field_basis(verts):
    """Orthonormal basis of rigid motions (3 translations, 3 infinitesimal
    rotations) as displacement fields over the given vertices, (3V, 6)."""
    centered = verts - verts.mean(axis=0)
    n = verts.shape[0]
    fields = []
    for axis in range(3):
        f = np.zeros((n, 3))
        f[:, axis] = 1.0
        fields.append(f.reshape(-1))
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        fields.append(np.cross(np.tile(e, (n, 1)), centered).reshape(-1))
    q, _ = np.linalg.qr(np.stack(fields, axis=1))
    return q


def _blob_fields(dirs, verts, count, rng):
    """Smooth random displacement fields over the surface, (count, 3V).

    Each field sums 6 Gaussian blobs of random centre, angular width and xyz
    amplitude. The rigid-motion component of each field is projected out, so
    modes are pure deformations: a PCA basis built from aligned scans has the
    same property, and without it shape coefficients locally mimic pose changes.
    """
    draws = [(_unit(rng.normal(size=3)), rng.uniform(0.35, 0.9), rng.normal(size=3))
             for _ in range(6 * count)]
    centers, widths, amps = (np.array(x) for x in zip(*draws))
    # one product per centre: a single matmul may round differently
    ang = np.arccos(np.clip(np.stack([dirs @ c for c in centers]), -1.0, 1.0))
    bumps = np.exp(-0.5 * (ang / widths[:, None]) ** 2)
    amps, bumps = amps.reshape(count, 6, 3, 1), bumps.reshape(count, 6, 1, -1)
    # (count, 3, V) per blob, added in draw order
    fields = sum(amps[:, b] * bumps[:, b] for b in range(6)).transpose(0, 2, 1).reshape(count, -1)
    rigid = _rigid_field_basis(verts)
    return fields - (fields @ rigid) @ rigid.T


def _orthonormalize(rows):
    """Modified Gram-Schmidt with reorthogonalization; rejects dependent rows."""
    out = np.array(rows, dtype=np.float64)
    for i in range(out.shape[0]):
        for _ in range(2):
            for j in range(i):
                out[i] -= (out[i] @ out[j]) * out[j]
        norm = np.linalg.norm(out[i])
        if norm < 1e-8 * max(1.0, np.linalg.norm(rows[i])):
            raise ValueError("requested more modes than independently generated fields")
        out[i] /= norm
    return out


MIN_VERTICES = 50  # procedural model limits and defaults; the CLI's flags read them
MAX_MODES = 20
DEFAULT_VERTICES = 500
DEFAULT_MODES = 10


def make_procedural_model(seed, vertex_count=DEFAULT_VERTICES, modes=DEFAULT_MODES):
    """Deterministic face-like model: ellipsoid with nose/brow/chin relief,
    smooth orthonormal deformation modes, geometrically decaying sigmas,
    and 17 landmark vertices at distinctive spots.
    """
    if vertex_count < MIN_VERTICES:
        raise ValueError("vertex_count must be >= %d" % MIN_VERTICES)
    if not 1 <= modes <= MAX_MODES:
        raise ValueError("modes must be in [1, %d]" % MAX_MODES)

    dirs = _fibonacci_sphere(vertex_count)
    verts = _face_surface(dirs)

    tris = _sphere_triangles(dirs)  # the renderer's mesh, see the module docstring

    rng = np.random.Generator(np.random.PCG64(seed))
    fields = _orthonormalize(_blob_fields(dirs, verts, modes, rng))

    # Scale mode 0 so one standard deviation peaks near 14 mm of surface
    # displacement; later modes decay geometrically.
    peak = np.max(np.linalg.norm(fields[0].reshape(-1, 3), axis=1))
    sigma0 = 14.0 / peak
    sigmas = sigma0 * 0.78 ** np.arange(modes)

    return ShapeModel(
        mean=verts.reshape(-1),
        basis=fields.T,
        sigmas=sigmas,
        landmark_ids=_pick_landmarks(dirs),
        triangles=tris,
    )


# ---------------------------------------------------------------------------
# MFM1 text format
# ---------------------------------------------------------------------------

def save_model(model, path):
    write_fields(path, "MFM", [
        ("vertices", [model.vertex_count]), ("modes", [model.num_modes]),
        ("landmarks", [len(model.landmark_ids), *model.landmark_ids]),
        ("triangles", [len(model.triangles)]), ("mean:", model.mean.reshape(-1, 3)),
        ("sigmas:", [model.sigmas]), ("basis:", model.basis), ("tris:", model.triangles)])


def load_model(path):
    r = TokenReader(path, "MFM")
    v = r.count("vertices")
    k = r.count("modes")
    landmark_ids = r.array(None, int, r.count("landmarks"))
    t = r.count("triangles")
    mean = r.array("mean:", float, 3 * v)
    sigmas = r.array("sigmas:", float, k)
    basis = r.array("basis:", float, 3 * v, k)
    tris = r.array("tris:", int, t, 3)
    r.finish()
    return r.make("model", ShapeModel, mean=mean, basis=basis, sigmas=sigmas,
                  landmark_ids=landmark_ids, triangles=tris)
