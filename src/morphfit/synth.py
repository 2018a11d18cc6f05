"""Synthetic image rendering and train/test set generation.

The renderer is a minimal z-buffered triangle rasterizer: per-pixel value
noise anchored to the mean-shape surface (so texture sticks to the mesh
across pose and identity), Gouraud Lambertian shading (smooth per-vertex
normals) from a fixed light in camera space, and a procedural noise
background. Output images are quantized to 8-bit levels and held as them,
one byte per pixel, so a PGM round-trip is lossless.

Coverage needs no loop over triangles. Each row of a front face's clipped
bounding box is cut to the x-span its three edge functions allow (Pineda,
SIGGRAPH 1988), loosened by a bound on the hit test's rounding, so that it
holds every pixel the barycentric hit test accepts. The spans expand into
candidate pixels, at most RASTER_BATCH at a time. Two minimum reductions
give each pixel its nearest triangle and, among equally near ones, the
lowest index, as a strict depth test drawing the triangles in index order
would; triangle and batch order do not matter.

Set generation follows a fixed protocol: a yaw/pitch grid with Gaussian
x/y translation noise on the ground truth, several backgrounds per
training pose, and initializations that perturb every angle uniformly:
within +/-INIT_OFFSET in test sets, within twice that in training sets.
Everything is deterministic given the seeds.

A render is a face pass and a background pass. The face pass rasterizes
into a depth buffer over the face's box, not the frame, then textures and
shades FACE_BLOCK covered pixels at a time. The background pass (noise,
paste, quantization) makes a block of rows at a time. Consecutive samples
with one ground truth share a face pass: without shape draws, a training
pose's face is shaded once per set and laid over each of its backgrounds.
Every image equals the one `render` gives for its sample alone.
"""

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .camera import CameraConfig, perspective, to_camera
from .features import GrayImage, read_pgm, write_pgm
from .noise import fbm3, noise_rows
from .shape_model import init_theta, instance_shape, param_layout, split_theta
from .util import TokenReader, ascii_lines, parallel_map, write_csv, write_fields


class RenderError(RuntimeError):
    pass


def subseed(*parts):
    """Stable 32-bit sub-seed derived from integer parts. Trailing zero parts change
    nothing (SeedSequence pads with zeros: subseed(7, 5) == subseed(7, 5, 0)), so
    every tag comes from the table below, which keeps the streams apart."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# Every random stream is subseed(seed, tag, ...): a SEED_TAGS tag, or a set's
# MODE_TAGS tag and then a SET_STREAM_TAGS tag; a sample index or a sample id's
# bytes may follow. Every tag is nonzero and each family's first tag is unique (a
# set's stream tags are distinct), so no two streams alias, even after an index or
# a sample id's bytes are appended.
SEED_TAGS = {"texture": 5,        # one texture for the train and test sets
             "posit_noise": 3,    # posit --noise-px, per sample id
             "init_noise": 4}     # fit --init-noise
MODE_TAGS = {"train": 1, "test": 2}  # set modes
SET_STREAM_TAGS = {"translation": 11, "identity": 12, "init": 13, "background": 20}


LIGHT_DIR = (0.4, 0.5, 1.0)   # camera space, fixed
# Surface albedo = a long-wavelength oriented component plus isotropic
# detail. The long component keeps descriptor responses near-linear over
# large landmark displacements; the anisotropy (streaks along y) gives
# the in-plane rotation a strong orientation-histogram signature.
TEXTURE_SCALE = 60.0          # mm, oriented component lattice
TEXTURE_ANISO = (1.0, 0.3, 1.0)
TEXTURE_DETAIL_SCALE = 12.0   # mm, isotropic detail lattice
TEXTURE_DETAIL_WEIGHT = 0.5
BACKGROUND_SCALE = 18.0       # px
# Candidate (span) pixels the geometry pass holds at once; a longer span
# forms a batch by itself.
RASTER_BATCH = 1 << 15
# Covered pixels the face pass textures and shades at once.
FACE_BLOCK = 8192
# Frame rows the background pass holds as floats at once.
BACKGROUND_BLOCK_ROWS = 32


@dataclass(eq=False)
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


# Fixed settings of the protocol, which protocol.txt does not record.
INIT_OFFSET = 11.0  # degrees, test-init half-width (train: x TRAIN_INIT_SPREAD)
TRANS_SIGMA = 1.5   # mm, x/y ground-truth jitter

# Lower bounds of ProtocolConfig fields; the CLI's flag types read them too.
PROTOCOL_MINIMUMS = {"range_deg": 0, "width": 1, "height": 1, "backgrounds": 1,
                     "n_shape": 0, "seed": 0}


@dataclass
class ProtocolConfig:
    range_deg: float = 30.0
    step_train: float = 10.0
    step_test: float = 5.0
    tz: float = -1200.0        # mm
    focal: float = CameraConfig.focal  # px
    width: int = CameraConfig.width
    height: int = CameraConfig.height
    backgrounds: int = 5       # per training pose
    n_shape: int = 0           # fitted shape coefficients K'
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError("field %r is not finite" % f.name)
        for name, low in PROTOCOL_MINIMUMS.items():
            if getattr(self, name) < low:
                raise ValueError("field %r is below %d" % (name, low))
        for step in (self.step_train, self.step_test):
            if step <= 0:
                raise ValueError("grid step %g must be positive" % step)
        self.camera()  # the camera's own rules, such as a positive focal

    def camera(self):
        return CameraConfig(focal=self.focal, width=self.width, height=self.height)

    def grid(self, mode):
        """Yaw and pitch values of the `mode` set; its step must divide range_deg."""
        step = self.step_train if mode == "train" else self.step_test
        if abs(self.range_deg / step - round(self.range_deg / step)) > 1e-9:
            raise ValueError("grid step %g must divide range_deg %g" % (step, self.range_deg))
        n = int(round(2.0 * self.range_deg / step)) + 1
        return np.linspace(-self.range_deg, self.range_deg, n)


def _barycentric(coef, px, py):
    """Barycentric coordinates (l0, l1, l2) of pixels (px, py), each in the
    triangle of its column of coef: rows x2, y2, y1 - y2, x2 - x1, y2 - y0,
    x0 - x2 and det, twice the signed area."""
    x2, y2, a0, b0, a1, b1, det = coef
    l0 = (a0 * (px - x2) + b0 * (py - y2)) / det
    l1 = (a1 * (px - x2) + b1 * (py - y2)) / det
    return l0, l1, 1.0 - l0 - l1


def _rasterize(uv, visible, depth, tris, w, h):
    """Z-buffered coverage of a w x h frame by the triangles tris over
    vertices at pixel positions uv with camera depth `depth`.

    Returns the rows and columns of the covered pixels in row-major order,
    the triangle covering each and its barycentric coordinates there, (n, 3).
    Triangles are wound outward, which projects to a negative signed area
    when front-facing under this screen convention; back faces of the
    closed mesh are skipped since they can never win the depth test, as
    are triangles with a vertex behind the camera or a box clipped away.
    Each row of a kept triangle's box is cut to a span that holds every
    pixel the hit test there accepts, and the spans expand into candidate
    pixels, RASTER_BATCH at most at a time. A pixel's depth is the minimum
    over its candidates, and its owner the minimum triangle index among
    those at that depth; a nearer depth first resets the owner to the
    sentinel n. The depth and owner buffers cover the bounding box of the
    kept triangles' boxes, whose row-major order is the frame's.
    """
    tri_ids = np.flatnonzero(visible[tris].all(axis=1))
    corners = uv[tris[tri_ids]]
    # clipped before the integer cast, which a far-off vertex would overflow
    lo = np.clip(np.ceil(corners.min(axis=1)), 0, (w, h)).astype(np.int64)
    hi = np.clip(np.floor(corners.max(axis=1)), -1, (w - 1, h - 1)).astype(np.int64)
    (x0, x1, x2), (y0, y1, y2) = corners.T
    coef = np.array([x2, y2, y1 - y2, x2 - x1, y2 - y0, x0 - x2,
                     (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)])
    keep = np.all(lo <= hi, axis=1) & (coef[6] <= -1e-12)
    tri_ids, lo, hi, coef = tri_ids[keep], lo[keep], hi[keep], coef[:, keep]
    tri_depth = depth[tris[tri_ids]].T

    # one span per (triangle, box row): l0, l1, l2 >= 0 as a * dx <= c in
    # dx = x - x2, clipped to the box
    rows_per = hi[:, 1] - lo[:, 1] + 1
    span_t = np.repeat(np.arange(len(tri_ids)), rows_per)
    span_row = np.arange(len(span_t)) - np.repeat(np.cumsum(rows_per) - rows_per - lo[:, 1],
                                                  rows_per)
    sx2, sy2, a0, b0, a1, b1, det = coef[:, span_t]
    dy = span_row - sy2
    # The hit test rounds: by a hair for l0 and l1, but l2 = 1 - l0 - l1 by
    # up to ~eps (|l0| + |l1|), which next to a nearly horizontal edge 2 admits
    # hits many pixels past the row's exact crossing. Each c is loosened by a
    # bound on that rounding. That clears every accepted pixel by ~29 eps
    # (max|dx| + |c/a|), more than x2 + c/a rounds, so the bounds' ceiling
    # and floor keep every hit.
    dx_max = np.maximum(np.abs(lo[:, 0] - coef[0]), np.abs(hi[:, 0] - coef[0]))[span_t]
    slack = 2.0 ** -48 * (np.abs(det) + (np.abs(a0) + np.abs(a1)) * dx_max
                          + (np.abs(b0) + np.abs(b1)) * np.abs(dy))
    left, right = np.full(len(dy), -np.inf), np.full(len(dy), np.inf)
    for a, c in ((a0, -b0 * dy), (a1, -b1 * dy), (-(a0 + a1), (b0 + b1) * dy - det)):
        # a == 0 is a horizontal edge, along the box's top or bottom: no bound
        with np.errstate(over="ignore"):  # a bound past the float range is +-inf
            x = sx2 + (c + slack) / np.where(a == 0, 1.0, a)
        left = np.where(a < 0, np.maximum(left, x), left)
        right = np.where(a > 0, np.minimum(right, x), right)
    span_x = np.clip(np.ceil(left), lo[span_t, 0], hi[span_t, 0] + 1).astype(np.int64)
    span_end = np.clip(np.floor(right), lo[span_t, 0] - 1, hi[span_t, 0]).astype(np.int64)
    size = np.maximum(span_end - span_x + 1, 0)

    ends = np.cumsum(size)
    starts = ends - size
    shift = starts - span_x
    n = len(tri_ids)
    bx, by = lo.min(axis=0) if n else (0, 0)
    bw, bh = hi.max(axis=0) + 1 - (bx, by) if n else (0, 0)
    zbuf = np.full(bh * bw, np.inf)
    owner = np.full(bh * bw, n, dtype=np.int64)
    i = 0
    while i < len(ends):
        j = max(int(np.searchsorted(ends, starts[i] + RASTER_BATCH, side="right")), i + 1)
        s = np.repeat(np.arange(i, j), size[i:j])
        row, col, t = span_row[s], np.arange(starts[i], ends[j - 1]) - shift[s], span_t[s]
        i = j
        l0, l1, l2 = _barycentric(coef.take(t, axis=1), col, row)
        z = l0 * tri_depth[0, t] + l1 * tri_depth[1, t] + l2 * tri_depth[2, t]
        hit = (l0 >= 0) & (l1 >= 0) & (l2 >= 0)
        pix, z, t = ((row - by) * bw + (col - bx))[hit], z[hit], t[hit]
        owner[pix[z < zbuf[pix]]] = n  # a nearer candidate clears the old owner
        np.minimum.at(zbuf, pix, z)
        won = z == zbuf[pix]
        np.minimum.at(owner, pix[won], t[won])

    pix = np.flatnonzero(owner < n)
    rows, cols = np.divmod(pix, bw)
    rows += by
    cols += bx
    lam = np.stack(_barycentric(coef.take(owner[pix], axis=1), cols, rows), axis=1)
    return rows, cols, tri_ids[owner[pix]], lam


def _render_face(model, theta, cam, texture_seed):
    """Face pass: rasterize a model instance posed by theta, then texture and
    shade it. Returns the rows and columns of the covered pixels and their
    values; raises RenderError when no pixel is covered."""
    if len(model.triangles) == 0:
        raise ValueError("model has no triangles")
    pose, alpha = split_theta(model, theta)

    verts = instance_shape(model, alpha).reshape(-1, 3)
    vc = to_camera(verts, pose)
    uv, visible = perspective(vc, cam)
    tris = model.triangles

    rows, cols, hit_tris, lam = _rasterize(uv, visible, -vc[:, 2], tris, cam.width, cam.height)
    if rows.size == 0:
        raise RenderError("face entirely outside the view frustum")

    # Shading pass: texture anchored to the mean-shape surface, Gouraud
    # Lambertian shading (smooth per-vertex normals) from a light fixed in
    # camera space.
    light = np.asarray(LIGHT_DIR, dtype=np.float64)
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

    # gather each triangle's corners and shades once, then texture and shade
    # FACE_BLOCK covered pixels at a time, picking their covering triangles
    tri_pts = model.mean.reshape(-1, 3)[tris]
    tri_shade = vert_shade[tris]
    dw = TEXTURE_DETAIL_WEIGHT
    values = np.empty(len(rows))
    for i in range(0, len(rows), FACE_BLOCK):
        block = slice(i, i + FACE_BLOCK)
        t, l = hit_tris[block], lam[block]
        surf = np.einsum("ni,nij->nj", l, tri_pts[t])
        albedo = (1.0 - dw) * fbm3(surf * np.asarray(TEXTURE_ANISO),
                                   TEXTURE_SCALE, texture_seed, octaves=1) \
            + dw * fbm3(surf, TEXTURE_DETAIL_SCALE, texture_seed + 777, octaves=2)
        tex = 0.35 + 0.6 * albedo
        values[block] = tex * np.einsum("ni,ni->n", l, tri_shade[t])
    return rows, cols, values


def _over_background(face, cam, background_seed):
    """Background pass: paste a face pass's pixels over a noise background
    and quantize the frame to 8-bit levels."""
    rows, cols, values = face
    h, w = cam.height, cam.width
    noise = noise_rows(w, h, BACKGROUND_SCALE, background_seed)
    # the frame is made a block of rows at a time, straight into the levels
    # that outlive the pass: a block's float temporaries (160 kB at 640 px)
    # stay in the allocator's free lists for the next block and render, where
    # frame-sized ones would fault in fresh pages on every render. No value
    # leaves [0, 1], so none is clipped: the background is 0.8 * noise + 0.1
    # with noise in [0, 1), and a face pixel is tex * shade with tex in
    # [0.35, 0.95) and shade a barycentric mix of vertex shades in [0.35, 1]
    levels = np.empty((h, w), dtype=np.uint8)
    starts = range(0, h, BACKGROUND_BLOCK_ROWS)
    cuts = np.searchsorted(rows, [*starts, h])  # face pixels come in row-major order
    for y0, i0, i1 in zip(starts, cuts, cuts[1:]):
        y1 = min(y0 + BACKGROUND_BLOCK_ROWS, h)
        block = noise(y0, y1)
        block *= 0.8
        block += 0.1
        block[rows[i0:i1] - y0, cols[i0:i1]] = values[i0:i1]
        block *= 255.0
        levels[y0:y1] = np.rint(block, out=block)
    return GrayImage(levels)


def render(model, theta, cam, texture_seed, background_seed):
    """Rasterize a model instance posed by theta over a noise background."""
    return _over_background(_render_face(model, theta, cam, texture_seed), cam, background_seed)


# Half-width of the training inits' angle perturbations, in units of
# INIT_OFFSET. Each cascade stage only learns to correct the init errors its
# training set spans, and uniform draws within +/-INIT_OFFSET almost never
# reach the cube's corners, where the fixed regime starts every angle; twice
# the interval puts those corners well inside the training distribution.
TRAIN_INIT_SPREAD = 2.0


def generate_set(model, pc, mode, jobs=1):
    """Generate the protocol dataset for `mode` ("train" or "test").

    Train mode: coarse yaw/pitch grid, `pc.backgrounds` backgrounds per
    pose. Test mode: fine grid, one background per pose. The stored
    initialization perturbs every angle uniformly, within
    +/-INIT_OFFSET in test mode (the uniform regime; the fixed-offset
    regime is derived from the labels downstream) and within
    +/-TRAIN_INIT_SPREAD * INIT_OFFSET in train mode.
    """
    if mode not in MODE_TAGS:
        raise ValueError("mode must be 'train' or 'test'")
    tag = MODE_TAGS[mode]

    rng_trans, rng_alpha, rng_init = (
        np.random.Generator(np.random.PCG64(subseed(pc.seed, tag, SET_STREAM_TAGS[k])))
        for k in ("translation", "identity", "init"))
    texture_seed = subseed(pc.seed, SEED_TAGS["texture"])
    bg_tag = SET_STREAM_TAGS["background"]
    cam = pc.camera()

    n_bg = pc.backgrounds if mode == "train" else 1
    spread = INIT_OFFSET * (TRAIN_INIT_SPREAD if mode == "train" else 1.0)
    specs = []
    for pitch in pc.grid(mode):
        for yaw in pc.grid(mode):
            tx, ty = rng_trans.normal(0.0, TRANS_SIGMA, size=2)
            for b in range(n_bg):
                # fresh identity per rendered sample
                alpha = rng_alpha.standard_normal(pc.n_shape) if pc.n_shape else np.zeros(0)
                theta_gt = np.concatenate([[pitch, yaw, 0.0, tx, ty, pc.tz], alpha])
                theta_init = init_theta(theta_gt, rng_init.uniform(-spread, spread, size=3))
                sid = "%s_p%+g_y%+g_b%d" % (mode, pitch, yaw, b)
                specs.append((sid, theta_gt, theta_init, subseed(pc.seed, tag, bg_tag, len(specs))))

    # consecutive samples of one ground truth (a pose's backgrounds when no
    # shape is drawn) share one face pass
    groups = []
    for spec in specs:
        if groups and np.array_equal(groups[-1][0][1], spec[1]):
            groups[-1].append(spec)
        else:
            groups.append([spec])

    def render_group(group):
        try:
            face = _render_face(model, group[0][1], cam, texture_seed)
        except RenderError as e:
            raise RenderError("sample %s: %s" % (group[0][0], e)) from e
        return [TrainingSample(image=_over_background(face, cam, bg_seed), theta_gt=gt,
                               theta_init=init, id=sid)
                for sid, gt, init, bg_seed in group]

    return [s for samples in parallel_map(render_group, groups, jobs) for s in samples]


# ---------------------------------------------------------------------------
# Dataset directory layout
# ---------------------------------------------------------------------------

def _plain_id(sid):
    """Whether `sid` can be a sample id: it names images/<id>.pgm and leads its
    labels.csv and inits.csv rows, so it must be a file name other than . and ..,
    with no path separator or comma, of printable ASCII with no surrounding space."""
    return (sid not in ("", ".", "..") and sid.isascii() and sid.isprintable()
            and sid == sid.strip() and not set(sid) & set("/\\,"))


def write_dataset(path, samples, pc):
    """Write `samples` as a dataset directory that `load_dataset` reads back.
    A sample it would refuse (an id that breaks `_plain_id` or repeats, an
    image not of the protocol's size, a theta not of its layout or not
    finite) is a ValueError before anything is made."""
    header = ["id", *param_layout(pc.n_shape)]
    seen = set()
    for s in samples:
        if not _plain_id(s.id) or s.id in seen:
            raise ValueError("%s: sample id %r is repeated or not a plain ASCII file name"
                             % (path, s.id))
        seen.add(s.id)
        if (s.image.width, s.image.height) != (pc.width, pc.height):
            raise ValueError("%s: sample %r: image is %dx%d, the protocol says %dx%d"
                             % (path, s.id, s.image.width, s.image.height, pc.width, pc.height))
        if len(s.theta_gt) != len(header) - 1:
            raise ValueError("%s: sample %r: theta has %d entries; the protocol takes %d"
                             % (path, s.id, len(s.theta_gt), len(header) - 1))
        if not np.all(np.isfinite([s.theta_gt, s.theta_init])):
            raise ValueError("%s: sample %r: theta has a non-finite entry" % (path, s.id))
    os.makedirs(os.path.join(path, "images"), exist_ok=True)
    for s in samples:
        write_pgm(s.image, os.path.join(path, "images", s.id + ".pgm"))
    write_csv(os.path.join(path, "labels.csv"), header, [[s.id, *s.theta_gt] for s in samples])
    write_csv(os.path.join(path, "inits.csv"), header, [[s.id, *s.theta_init] for s in samples])
    write_fields(os.path.join(path, "protocol.txt"), "MFP",
                 [(f.name, [getattr(pc, f.name)]) for f in fields(pc)])


def load_protocol(path):
    """The ProtocolConfig of a dataset's protocol.txt: `MFP 1`, then one
    `name value` line per field, in field order."""
    r = TokenReader(os.path.join(path, "protocol.txt"), "MFP")
    kwargs = {f.name: r.value(f.name, f.type) for f in fields(ProtocolConfig)}
    r.finish()
    return r.make("protocol", ProtocolConfig, **kwargs)


def _read_csv(path, header):
    """Parameter rows keyed by id of a CSV headed `header`; errors name the file line."""
    lines = ascii_lines(path)
    if not lines:
        raise ValueError("%s: empty file" % path)
    if lines[0][1].split(",") != header:
        raise ValueError("%s: header %r, expected %r" % (path, lines[0][1], ",".join(header)))
    rows = {}
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError("%s: line %d has %d fields, header has %d"
                             % (path, n, len(parts), len(header)))
        if parts[0] in rows:
            raise ValueError("%s: line %d: duplicate id %r" % (path, n, parts[0]))
        try:
            rows[parts[0]] = np.array([float(x) for x in parts[1:]])
        except ValueError as e:
            raise ValueError("%s: line %d: %s" % (path, n, e)) from None
        if not np.all(np.isfinite(rows[parts[0]])):
            raise ValueError("%s: line %d: non-finite value" % (path, n))
    return rows


def load_dataset(path):
    """Read a dataset directory back into TrainingSamples (sorted by id)."""
    pc = load_protocol(path)
    header = ["id", *param_layout(pc.n_shape)]
    labels = _read_csv(os.path.join(path, "labels.csv"), header)
    inits = _read_csv(os.path.join(path, "inits.csv"), header)
    if set(labels) != set(inits):
        raise ValueError("%s: labels.csv and inits.csv disagree on sample ids" % path)
    samples = []
    for sid in sorted(labels):
        image = os.path.join(path, "images", sid + ".pgm")
        if not (_plain_id(sid) and os.path.isfile(image)):
            raise ValueError("%s: images/%s.pgm: no image for id %r" % (path, sid, sid))
        img = read_pgm(image)
        if (img.width, img.height) != (pc.width, pc.height):
            raise ValueError("%s: images/%s.pgm is %dx%d, protocol.txt says %dx%d"
                             % (path, sid, img.width, img.height, pc.width, pc.height))
        samples.append(TrainingSample(image=img, theta_gt=labels[sid],
                                      theta_init=inits[sid], id=sid))
    return samples, pc
