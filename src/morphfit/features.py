"""Upright fixed-scale gradient-orientation-histogram descriptors.

Each descriptor summarizes a square window around a (possibly fractional)
pixel location as a 4x4 grid of cells with 8 orientation bins per cell:
128 values, L2-normalized, clamped at 0.2 and renormalized. No scale
pyramid, no dominant-orientation alignment, no keypoint detection.
"""

from dataclasses import dataclass

import numpy as np

from .util import atomic_write

DESCRIPTOR_SIZE = 128
_CLAMP = 0.2

# Window size shared by every pipeline surface (training, fitting,
# evaluation, CLI). Large enough that descriptor responses stay correlated
# over the landmark displacements produced by the worst initializations.
DEFAULT_PATCH_SIZE = 96


class FeatureError(RuntimeError):
    """No usable landmark projections: feature vector cannot be assembled."""


@dataclass
class GrayImage:
    width: int
    height: int
    pixels: np.ndarray  # (height, width) float64 in [0, 1]

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.shape != (self.height, self.width):
            raise ValueError("pixel buffer must be (height, width)")
        self.pixels = np.clip(px, 0.0, 1.0)

    @staticmethod
    def from_array(pixels):
        px = np.asarray(pixels, dtype=np.float64)
        return GrayImage(width=px.shape[1], height=px.shape[0], pixels=px)


def _window_gradients(img, x0, y0, size):
    """Gradients over an integer window [x0, x0+size) x [y0, y0+size).

    Central differences on a zero-padded copy of the image, so reads that
    fall outside the raster contribute 0 intensity.
    """
    h, w = img.pixels.shape
    patch = np.zeros((size + 2, size + 2))
    ys0, ys1 = max(0, y0 - 1), min(h, y0 + size + 1)
    xs0, xs1 = max(0, x0 - 1), min(w, x0 + size + 1)
    if ys0 < ys1 and xs0 < xs1:
        patch[ys0 - (y0 - 1):ys1 - (y0 - 1), xs0 - (x0 - 1):xs1 - (x0 - 1)] = \
            img.pixels[ys0:ys1, xs0:xs1]
    gx = patch[1:-1, 2:] - patch[1:-1, :-2]
    gy = patch[2:, 1:-1] - patch[:-2, 1:-1]
    return gx, gy


def extract_descriptor(img, center, patch_size=DEFAULT_PATCH_SIZE):
    """128-vector descriptor of the patch_size window centered at `center`.

    The window covers integer pixels whose offset from the center lies in
    [-patch_size/2, patch_size/2). Gradient votes are weighted by a
    Gaussian (sigma = patch_size/2) and spread bilinearly over the 4x4
    cell grid and linearly over the two nearest of 8 orientation bins.
    Textureless windows give the zero vector.
    """
    patch_size = int(patch_size)
    if patch_size <= 0 or patch_size % 4 != 0:
        raise ValueError("patch_size must be a positive multiple of 4")
    cx, cy = float(center[0]), float(center[1])
    half = patch_size / 2.0
    x0 = int(np.ceil(cx - half))
    y0 = int(np.ceil(cy - half))

    gx, gy = _window_gradients(img, x0, y0, patch_size)
    mag = np.hypot(gx, gy)
    if not np.any(mag > 0):
        return np.zeros(DESCRIPTOR_SIZE)
    ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)

    # Offsets of each sample from the window center.
    ox = (x0 + np.arange(patch_size)) - cx
    oy = (y0 + np.arange(patch_size)) - cy
    oxg, oyg = np.meshgrid(ox, oy)

    sigma = patch_size / 2.0
    weight = np.exp(-(oxg ** 2 + oyg ** 2) / (2.0 * sigma ** 2))
    vote = (mag * weight).ravel()

    cell = patch_size / 4.0
    rbin = ((oyg + half) / cell - 0.5).ravel()
    cbin = ((oxg + half) / cell - 0.5).ravel()
    obin = (ang * (8.0 / (2.0 * np.pi))).ravel()

    r0 = np.floor(rbin).astype(np.int64)
    c0 = np.floor(cbin).astype(np.int64)
    o0 = np.floor(obin).astype(np.int64) % 8
    fr = rbin - np.floor(rbin)
    fc = cbin - np.floor(cbin)
    fo = obin - np.floor(obin)

    idx_parts = []
    w_parts = []
    for dr in (0, 1):
        rr = r0 + dr
        wr = fr if dr else 1.0 - fr
        for dc in (0, 1):
            cc = c0 + dc
            wc = fc if dc else 1.0 - fc
            ok = (rr >= 0) & (rr < 4) & (cc >= 0) & (cc < 4)
            for do in (0, 1):
                oo = (o0 + do) % 8
                wo = fo if do else 1.0 - fo
                idx_parts.append(((rr * 4 + cc) * 8 + oo)[ok])
                w_parts.append((vote * wr * wc * wo)[ok])
    hist = np.bincount(np.concatenate(idx_parts),
                       weights=np.concatenate(w_parts),
                       minlength=DESCRIPTOR_SIZE)

    norm = np.linalg.norm(hist)
    if norm < 1e-12:
        return np.zeros(DESCRIPTOR_SIZE)
    desc = hist / norm
    desc = np.minimum(desc, _CLAMP)
    return desc / np.linalg.norm(desc)


def assemble_feature(img, theta, model, cam, patch_size=DEFAULT_PATCH_SIZE):
    """Concatenated landmark descriptors for parameter vector theta.

    theta is [rx ry rz tx ty tz alpha...]; missing trailing shape
    coefficients are treated as zero. Landmarks that fail to project
    contribute a zero descriptor; if every landmark fails, the model is
    entirely behind the camera and a FeatureError is raised.
    """
    from .camera import project_points
    from .shape_model import select_landmarks

    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.shape[0] < 6 or theta.shape[0] > 6 + model.num_modes:
        raise ValueError("theta must have 6..6+K entries")
    alpha = np.zeros(model.num_modes)
    alpha[:theta.shape[0] - 6] = theta[6:]

    pts3d = select_landmarks(model, alpha)
    uv, valid = project_points(pts3d, theta[:6], cam)
    if not np.any(valid):
        raise FeatureError("all landmark projections failed")

    blocks = np.zeros((pts3d.shape[0], DESCRIPTOR_SIZE))
    for i in range(pts3d.shape[0]):
        if valid[i]:
            blocks[i] = extract_descriptor(img, uv[i], patch_size)
    return blocks.reshape(-1)


# ---------------------------------------------------------------------------
# Binary PGM (P5) I/O, 8-bit
# ---------------------------------------------------------------------------

def write_pgm(img, path):
    data = np.rint(img.pixels * 255.0).astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (img.width, img.height)
    atomic_write(path, header + data.tobytes())


def _read_pgm_token(buf, pos):
    # netpbm tokens are separated by whitespace; '#' starts a comment line
    while pos < len(buf):
        c = buf[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_pgm(path):
    with open(path, "rb") as f:
        buf = f.read()
    magic, pos = _read_pgm_token(buf, 0)
    if magic != b"P5":
        raise ValueError("%s: not a binary PGM (P5) file" % path)
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _read_pgm_token(buf, pos)
        if not tok.isdigit():
            raise ValueError("%s: bad or missing PGM %s %r"
                             % (path, name, tok.decode("latin-1")))
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError("%s: PGM size %dx%d is empty" % (path, width, height))
    if not 1 <= maxval <= 255:
        raise ValueError("%s: unsupported PGM maxval %d" % (path, maxval))
    pos += 1  # single whitespace after maxval
    raster = buf[pos:pos + width * height]
    if len(raster) != width * height:
        raise ValueError("%s: truncated PGM raster" % path)
    px = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / maxval
    return GrayImage(width=width, height=height, pixels=px.reshape(height, width))
