"""Synthetic image rendering and train/test set generation.

The renderer is a minimal z-buffered triangle rasterizer: per-pixel value
noise anchored to the mean-shape surface (so texture sticks to the mesh
across pose and identity), flat Lambertian shading from a fixed light in
camera space, and a procedural noise background. Output images are
quantized to 8-bit levels so a PGM round-trip is lossless.

Set generation follows a fixed protocol: a yaw/pitch grid with Gaussian
x/y translation noise on the ground truth, several backgrounds per
training pose, and initializations that perturb every angle uniformly:
within +/-init_offset in test sets, within twice that in training sets.
Everything is deterministic given the seeds.
"""

import os
from dataclasses import dataclass, fields

import numpy as np

from .camera import CameraConfig, project_points, to_camera
from .features import GrayImage, read_pgm, write_pgm
from .noise import fbm3, noise_image
from .shape_model import instance_shape
from .util import atomic_write, fmt_float, parallel_map


class RenderError(RuntimeError):
    pass


def subseed(*parts):
    """Stable 32-bit sub-seed derived from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class RenderConfig:
    cam: CameraConfig
    texture_seed: int = 0
    background_seed: int = 0
    light_dir: tuple = (0.4, 0.5, 1.0)   # camera space, fixed
    # Surface albedo = a long-wavelength oriented component plus isotropic
    # detail. The long component keeps descriptor responses near-linear over
    # large landmark displacements; the anisotropy (streaks along y) gives
    # the in-plane rotation a strong orientation-histogram signature.
    texture_scale: float = 60.0          # mm, oriented component lattice
    texture_aniso: tuple = (1.0, 0.3, 1.0)
    texture_detail_scale: float = 12.0   # mm, isotropic detail lattice
    texture_detail_weight: float = 0.5
    background_scale: float = 18.0       # px


@dataclass
class TrainingSample:
    image: GrayImage
    theta_gt: np.ndarray
    theta_init: np.ndarray
    id: str

    def __post_init__(self):
        self.theta_gt = np.asarray(self.theta_gt, dtype=np.float64).reshape(-1)
        self.theta_init = np.asarray(self.theta_init, dtype=np.float64).reshape(-1)
        if self.theta_gt.shape != self.theta_init.shape:
            raise ValueError("theta_gt and theta_init layouts differ")


@dataclass
class ProtocolConfig:
    range_deg: float = 30.0
    step_train: float = 10.0
    step_test: float = 5.0
    trans_sigma: float = 1.5   # mm, x/y ground-truth jitter
    tz: float = -1200.0        # mm
    focal: float = 1500.0      # px
    width: int = 640
    height: int = 480
    backgrounds: int = 5       # per training pose
    init_offset: float = 11.0  # degrees, test-init half-width (train: x TRAIN_INIT_SPREAD)
    n_shape: int = 0           # fitted shape coefficients K'
    seed: int = 0

    def __post_init__(self):
        for step in (self.step_train, self.step_test):
            if step <= 0 or abs(self.range_deg / step - round(self.range_deg / step)) > 1e-9:
                raise ValueError("grid step must divide the angle range")
        if self.trans_sigma < 0 or self.backgrounds < 1 or self.init_offset < 0:
            raise ValueError("invalid protocol configuration")
        if self.n_shape < 0:
            raise ValueError("n_shape must be nonnegative")

    def camera(self):
        return CameraConfig(focal=self.focal, width=self.width, height=self.height)

    def grid(self, mode):
        step = self.step_train if mode == "train" else self.step_test
        n = int(round(2.0 * self.range_deg / step)) + 1
        return np.linspace(-self.range_deg, self.range_deg, n)


def render(model, theta, rc):
    """Rasterize a model instance posed by theta over a noise background."""
    if len(model.triangles) == 0:
        raise ValueError("model has no triangles")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    alpha = np.zeros(model.num_modes)
    alpha[:theta.shape[0] - 6] = theta[6:]
    cam = rc.cam

    verts = instance_shape(model, alpha).reshape(-1, 3)
    uv, visible = project_points(verts, theta[:6], cam)
    u, v = uv[:, 0], uv[:, 1]
    vc = to_camera(verts, theta[:6])
    depth = -vc[:, 2]

    h, w = cam.height, cam.width
    img = 0.1 + 0.8 * noise_image(w, h, rc.background_scale, rc.background_seed)
    zbuf = np.full((h, w), np.inf)
    owner = np.full((h, w), -1, dtype=np.int64)
    bary = np.zeros((h, w, 3))
    tris = model.triangles

    # Geometry pass: z-buffered coverage with barycentric coordinates.
    # Triangles are wound outward, which projects to a negative signed
    # area when front-facing under this screen convention; back faces of
    # the closed mesh are skipped since they can never win the depth test.
    for t_idx in range(len(tris)):
        tri = tris[t_idx]
        if not (visible[tri[0]] and visible[tri[1]] and visible[tri[2]]):
            continue
        xs, ys = u[tri], v[tri]
        x_lo = max(0, int(np.ceil(xs.min())))
        x_hi = min(w - 1, int(np.floor(xs.max())))
        y_lo = max(0, int(np.ceil(ys.min())))
        y_hi = min(h - 1, int(np.floor(ys.max())))
        if x_lo > x_hi or y_lo > y_hi:
            continue
        det = (ys[1] - ys[2]) * (xs[0] - xs[2]) + (xs[2] - xs[1]) * (ys[0] - ys[2])
        if det > -1e-12:
            continue
        px = np.arange(x_lo, x_hi + 1, dtype=np.float64)[None, :]
        py = np.arange(y_lo, y_hi + 1, dtype=np.float64)[:, None]
        l0 = ((ys[1] - ys[2]) * (px - xs[2]) + (xs[2] - xs[1]) * (py - ys[2])) / det
        l1 = ((ys[2] - ys[0]) * (px - xs[2]) + (xs[0] - xs[2]) * (py - ys[2])) / det
        l2 = 1.0 - l0 - l1
        z = l0 * depth[tri[0]] + l1 * depth[tri[1]] + l2 * depth[tri[2]]
        hit = (l0 >= 0) & (l1 >= 0) & (l2 >= 0) & (z < zbuf[y_lo:y_hi + 1, x_lo:x_hi + 1])
        if not hit.any():
            continue
        rows, cols = np.nonzero(hit)
        rows = rows + y_lo
        cols = cols + x_lo
        zbuf[rows, cols] = z[hit]
        owner[rows, cols] = t_idx
        bary[rows, cols, 0] = l0[hit]
        bary[rows, cols, 1] = l1[hit]
        bary[rows, cols, 2] = l2[hit]

    rows, cols = np.nonzero(owner >= 0)
    if rows.size == 0:
        raise RenderError("face entirely outside the view frustum")

    # Shading pass: texture anchored to the mean-shape surface, Gouraud
    # Lambertian shading (smooth per-vertex normals) from a light fixed in
    # camera space.
    light = np.asarray(rc.light_dir, dtype=np.float64)
    light = light / np.linalg.norm(light)
    face_n = np.cross(vc[tris[:, 1]] - vc[tris[:, 0]], vc[tris[:, 2]] - vc[tris[:, 0]])
    fn = np.linalg.norm(face_n, axis=1)
    face_n = face_n / np.where(fn > 0, fn, 1.0)[:, None]
    face_n[face_n[:, 2] < 0] *= -1.0  # orient toward the camera
    vert_n = np.zeros_like(vc)
    for k in range(3):
        np.add.at(vert_n, tris[:, k], face_n)
    vn = np.linalg.norm(vert_n, axis=1)
    vert_n = vert_n / np.where(vn > 0, vn, 1.0)[:, None]
    vert_shade = 0.35 + 0.65 * np.maximum(0.0, vert_n @ light)

    mean_pts = model.mean.reshape(-1, 3)
    hit_tris = owner[rows, cols]
    lam = bary[rows, cols]
    surf = np.einsum("ni,nij->nj", lam, mean_pts[tris[hit_tris]])
    dw = rc.texture_detail_weight
    albedo = (1.0 - dw) * fbm3(surf * np.asarray(rc.texture_aniso),
                               rc.texture_scale, rc.texture_seed, octaves=1) \
        + dw * fbm3(surf, rc.texture_detail_scale, rc.texture_seed + 777, octaves=2)
    tex = 0.35 + 0.6 * albedo
    shade = np.einsum("ni,ni->n", lam, vert_shade[tris[hit_tris]])
    img[rows, cols] = tex * shade

    img = np.rint(np.clip(img, 0.0, 1.0) * 255.0) / 255.0
    return GrayImage(width=w, height=h, pixels=img)


_MODE_TAGS = {"train": 1, "test": 2}
# Half-width of the training inits' angle perturbations, in units of
# init_offset. Each cascade stage only learns to correct the init errors its
# training set spans, and uniform draws within +/-init_offset almost never
# reach the cube's corners, where the fixed regime starts every angle; twice
# the interval puts those corners well inside the training distribution.
TRAIN_INIT_SPREAD = 2.0


def generate_set(model, pc, mode, jobs=1):
    """Generate the protocol dataset for `mode` ("train" or "test").

    Train mode: coarse yaw/pitch grid, `pc.backgrounds` backgrounds per
    pose. Test mode: fine grid, one background per pose. The stored
    initialization perturbs every angle uniformly, within
    +/-`pc.init_offset` in test mode (the uniform regime; the fixed-offset
    regime is derived from the labels downstream) and within
    +/-TRAIN_INIT_SPREAD * `pc.init_offset` in train mode.
    """
    if mode not in _MODE_TAGS:
        raise ValueError("mode must be 'train' or 'test'")
    tag = _MODE_TAGS[mode]
    if pc.n_shape > model.num_modes:
        raise ValueError("n_shape exceeds model modes")

    rng_trans = np.random.Generator(np.random.PCG64(subseed(pc.seed, tag, 11)))
    rng_alpha = np.random.Generator(np.random.PCG64(subseed(pc.seed, tag, 12)))
    rng_init = np.random.Generator(np.random.PCG64(subseed(pc.seed, tag, 13)))
    texture_seed = subseed(pc.seed, 5)  # shared by train and test sets
    cam = pc.camera()

    n_bg = pc.backgrounds if mode == "train" else 1
    spread = pc.init_offset * (TRAIN_INIT_SPREAD if mode == "train" else 1.0)
    specs = []
    idx = 0
    for pitch in pc.grid(mode):
        for yaw in pc.grid(mode):
            tx, ty = rng_trans.normal(0.0, pc.trans_sigma, size=2)
            for b in range(n_bg):
                # fresh identity per rendered sample
                alpha = rng_alpha.standard_normal(pc.n_shape) if pc.n_shape else np.zeros(0)
                theta_gt = np.concatenate([[pitch, yaw, 0.0, tx, ty, pc.tz], alpha])
                d_ang = rng_init.uniform(-spread, spread, size=3)
                theta_init = theta_gt.copy()
                theta_init[:3] += d_ang
                theta_init[6:] = 0.0  # shape always starts at the mean face
                sid = "%s_p%+g_y%+g_b%d" % (mode, pitch, yaw, b)
                specs.append((sid, theta_gt, theta_init, subseed(pc.seed, tag, 20, idx)))
                idx += 1

    def render_one(spec):
        sid, gt, init, bg_seed = spec
        rc = RenderConfig(cam=cam, texture_seed=texture_seed, background_seed=bg_seed)
        try:
            img = render(model, gt, rc)
        except RenderError as e:
            raise RenderError("sample %s: %s" % (sid, e)) from e
        return TrainingSample(image=img, theta_gt=gt, theta_init=init, id=sid)

    return parallel_map(render_one, specs, jobs)


# ---------------------------------------------------------------------------
# Dataset directory layout
# ---------------------------------------------------------------------------

def _csv_lines(samples, which, n_shape):
    header = "id,rx,ry,rz,tx,ty,tz" + "".join(",a%d" % i for i in range(n_shape))
    lines = [header]
    for s in samples:
        vec = s.theta_gt if which == "gt" else s.theta_init
        lines.append(s.id + "," + ",".join(fmt_float(x) for x in vec))
    return "\n".join(lines) + "\n"


def write_dataset(path, samples, pc):
    os.makedirs(os.path.join(path, "images"), exist_ok=True)
    for s in samples:
        write_pgm(s.image, os.path.join(path, "images", s.id + ".pgm"))
    n_shape = pc.n_shape
    atomic_write(os.path.join(path, "labels.csv"), _csv_lines(samples, "gt", n_shape).encode())
    atomic_write(os.path.join(path, "inits.csv"), _csv_lines(samples, "init", n_shape).encode())
    fields = [
        ("range_deg", fmt_float(pc.range_deg)),
        ("step_train", fmt_float(pc.step_train)),
        ("step_test", fmt_float(pc.step_test)),
        ("trans_sigma", fmt_float(pc.trans_sigma)),
        ("tz", fmt_float(pc.tz)),
        ("focal", fmt_float(pc.focal)),
        ("width", str(pc.width)),
        ("height", str(pc.height)),
        ("backgrounds", str(pc.backgrounds)),
        ("init_offset", fmt_float(pc.init_offset)),
        ("n_shape", str(pc.n_shape)),
        ("seed", str(pc.seed)),
    ]
    atomic_write(os.path.join(path, "protocol.txt"),
                 ("\n".join("%s %s" % kv for kv in fields) + "\n").encode())


def load_protocol(path):
    fname = os.path.join(path, "protocol.txt")
    values = {}
    with open(fname) as f:
        for line in f:
            parts = line.split(None, 1)
            if len(parts) == 1:
                raise ValueError("%s: field %r has no value" % (fname, parts[0]))
            if parts:
                values[parts[0]] = parts[1].strip()
    kwargs = {}
    for f in fields(ProtocolConfig):
        if f.name not in values:
            raise ValueError("%s: missing field %r" % (fname, f.name))
        try:
            kwargs[f.name] = f.type(values[f.name])  # every field is an int or a float
        except ValueError as e:
            raise ValueError("%s: field %r: %s" % (fname, f.name, e)) from None
    return ProtocolConfig(**kwargs)


def _read_csv(path):
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ValueError("%s: empty file" % path)
    header = lines[0].split(",")
    rows = {}
    for row, ln in enumerate(lines[1:], 1):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError("%s: row %d has %d fields, header has %d"
                             % (path, row, len(parts), len(header)))
        try:
            rows[parts[0]] = np.array([float(x) for x in parts[1:]])
        except ValueError as e:
            raise ValueError("%s: row %d: %s" % (path, row, e)) from None
    return header, rows


def load_dataset(path):
    """Read a dataset directory back into TrainingSamples (sorted by id)."""
    pc = load_protocol(path)
    _, labels = _read_csv(os.path.join(path, "labels.csv"))
    _, inits = _read_csv(os.path.join(path, "inits.csv"))
    if set(labels) != set(inits):
        raise ValueError("labels.csv and inits.csv disagree on sample ids")
    samples = []
    for sid in sorted(labels):
        img = read_pgm(os.path.join(path, "images", sid + ".pgm"))
        samples.append(TrainingSample(image=img, theta_gt=labels[sid],
                                      theta_init=inits[sid], id=sid))
    return samples, pc
