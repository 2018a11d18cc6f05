"""PCA shape model: synthesis of 3D instances and the procedural stand-in model.

A model holds a mean shape (stacked xyz per vertex, millimeters), an
orthonormal deformation basis with per-mode standard deviations, a fixed
list of landmark vertex ids used for feature extraction, and a triangle
list used only by the renderer. Coefficients are in standard-deviation
units: an instance is  mean + sum_i alpha_i * sigma_i * basis[:, i].
"""

from dataclasses import dataclass, field

import numpy as np

from .util import TokenReader, atomic_write, fmt_row


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


POSE_NAMES = ["rx", "ry", "rz", "tx", "ty", "tz"]


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
    if not 6 <= theta.shape[0] <= 6 + model.num_modes:
        raise ValueError("theta has %d entries; the model takes 6..%d"
                         % (theta.shape[0], 6 + model.num_modes))
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta has a non-finite entry")
    alpha = np.zeros(model.num_modes)
    alpha[:theta.shape[0] - 6] = theta[6:]
    return theta[:6], alpha


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
    return v / np.linalg.norm(v)


def _fibonacci_sphere(n):
    """n roughly uniform unit directions (golden-angle spiral)."""
    i = np.arange(n, dtype=np.float64)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    return np.stack([r * np.cos(phi), y, r * np.sin(phi)], axis=1)


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
    used = set()
    ids = []
    for target in _LANDMARK_DIRS:
        dots = dirs @ _unit(target)
        for idx in np.argsort(-dots):
            if int(idx) not in used:
                used.add(int(idx))
                ids.append(int(idx))
                break
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

    The rigid-motion component of each field is projected out, so modes are
    pure deformations: a PCA basis built from aligned scans has the same
    property, and without it shape coefficients locally mimic pose changes.
    """
    v = dirs.shape[0]
    fields = np.zeros((count, 3 * v))
    for m in range(count):
        disp = np.zeros((v, 3))
        for _ in range(6):
            center = _unit(rng.normal(size=3))
            width = rng.uniform(0.35, 0.9)
            amp = rng.normal(size=3)
            ang = np.arccos(np.clip(dirs @ center, -1.0, 1.0))
            disp += amp[None, :] * np.exp(-0.5 * (ang / width) ** 2)[:, None]
        fields[m] = disp.reshape(-1)
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


MIN_VERTICES = 50  # procedural model limits; the CLI's flag types read them
MAX_MODES = 20


def make_procedural_model(seed, vertex_count, modes):
    """Deterministic face-like model: ellipsoid with nose/brow/chin relief,
    smooth orthonormal deformation modes, geometrically decaying sigmas,
    and 17 landmark vertices at distinctive spots.
    """
    from scipy.spatial import ConvexHull

    if vertex_count < MIN_VERTICES:
        raise ValueError("vertex_count must be >= %d" % MIN_VERTICES)
    if not 1 <= modes <= MAX_MODES:
        raise ValueError("modes must be in [1, %d]" % MAX_MODES)

    dirs = _fibonacci_sphere(vertex_count)
    verts = _face_surface(dirs)

    # Triangulate on the sphere; orient every triangle outward.
    hull = ConvexHull(dirs)
    tris = hull.simplices.astype(np.int64)
    n = np.cross(dirs[tris[:, 1]] - dirs[tris[:, 0]], dirs[tris[:, 2]] - dirs[tris[:, 0]])
    centroid = (dirs[tris[:, 0]] + dirs[tris[:, 1]] + dirs[tris[:, 2]]) / 3.0
    flip = np.einsum("ij,ij->i", n, centroid) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

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
    v = model.vertex_count
    k = model.num_modes
    lines = [
        "MFM 1",
        "vertices %d" % v,
        "modes %d" % k,
        "landmarks %d %s" % (len(model.landmark_ids), " ".join(str(i) for i in model.landmark_ids)),
        "triangles %d" % len(model.triangles),
        "mean:",
    ]
    mean = model.mean.reshape(-1, 3)
    lines.extend(fmt_row(row) for row in mean)
    lines.append("sigmas:")
    lines.append(fmt_row(model.sigmas))
    lines.append("basis:")
    lines.extend(fmt_row(row) for row in model.basis)
    lines.append("tris:")
    lines.extend("%d %d %d" % tuple(t) for t in model.triangles)
    atomic_write(path, ("\n".join(lines) + "\n").encode())


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
