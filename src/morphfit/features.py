"""Upright fixed-scale gradient-orientation-histogram descriptors.

Each descriptor summarizes a square window around a (possibly fractional)
pixel location as a 4x4 grid of cells with 8 orientation bins per cell:
128 values, L2-normalized, clamped at 0.2 and renormalized. No scale
pyramid, no dominant-orientation alignment, no keypoint detection.
Binning is dense, HOG style (Dalal & Triggs, CVPR 2005): one call builds 8
soft-binned gradient-magnitude planes over the bounding box of its windows.
The Gaussian and bilinear cell weights are separable, so each descriptor is
Wr . planes[:, window] . Wc^T, with Wr and Wc the 4 x patch_size weights.
"""

from dataclasses import dataclass

import numpy as np

from .camera import project_points
from .shape_model import select_landmarks, split_theta
from .util import atomic_write

DESCRIPTOR_SIZE = 128
_CLAMP = 0.2

# Window size shared by every pipeline surface (training, fitting,
# evaluation, CLI). Large enough that descriptor responses stay correlated
# over the landmark displacements produced by the worst initializations.
DEFAULT_PATCH_SIZE = 96


class FeatureError(RuntimeError):
    """No landmark window reads the image: feature vector cannot be assembled."""


@dataclass
class GrayImage:
    pixels: np.ndarray  # (height, width) float64 in [0, 1]

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError("pixels must be a 2-D (height, width) array")
        # min and max are NaN when any pixel is, which fails both comparisons
        if px.size and not (px.min() >= 0.0 and px.max() <= 1.0):
            raise ValueError("pixels must be finite and in [0, 1]")
        self.pixels = px

    height = property(lambda self: self.pixels.shape[0])
    width = property(lambda self: self.pixels.shape[1])


def _orientation_planes(img, x0, y0, x1, y1):
    """(8, y1-y0, x1-x0) planes over the box [x0, x1) x [y0, y1), which lies
    in the image grown by one pixel: the central-difference gradient magnitude
    of the zero-padded image, split linearly between the 2 nearest of 8 bins.
    Updates run in place and temporaries go early: fresh box-sized arrays
    cost more than the arithmetic, and raise the process's peak memory.
    """
    pad = np.zeros((y1 - y0 + 2, x1 - x0 + 2))
    ya, xa = max(y0 - 1, 0), max(x0 - 1, 0)
    src = img.pixels[ya:y1 + 1, xa:x1 + 1]
    pad[ya - y0 + 1:ya - y0 + 1 + src.shape[0], xa - x0 + 1:xa - x0 + 1 + src.shape[1]] = src
    gx = pad[1:-1, 2:] - pad[1:-1, :-2]
    gy = pad[2:, 1:-1] - pad[:-2, 1:-1]
    del pad
    fo = np.arctan2(gy, gx).ravel()
    fo *= 4.0 / np.pi
    n = fo.shape[0]
    idx = np.floor(fo)
    fo -= idx  # the share of the upper bin
    idx = (idx.astype(np.int64) & 7) * n + np.arange(n)  # lower bin mod 8, then pixel
    gx *= gx
    gx += np.square(gy, out=gy)
    del gy
    mag = np.sqrt(gx, out=gx).ravel()
    planes = np.zeros(8 * n)
    planes[idx] = mag * (1.0 - fo)
    fo *= mag
    idx += n
    idx %= 8 * n
    planes[idx] = fo
    return planes.reshape(8, y1 - y0, x1 - x0)


def _descriptors(img, centers, patch_size):
    """(n, 128) descriptors of the windows at `centers` (n, 2), and the mask
    of windows that read the raster: gradients are nonzero only on the image
    grown by one pixel. The other windows (NaN centers too) get the zero
    vector and are left out of the planes' box, which is clipped to it.
    """
    patch_size = int(patch_size)
    if patch_size <= 0 or patch_size % 4 != 0:
        raise ValueError("patch_size must be a positive multiple of 4")
    h, w = img.pixels.shape
    half = patch_size / 2.0
    corners = np.ceil(centers - half)
    reads = np.all((corners < [w + 1, h + 1]) & (corners + patch_size > -1), axis=1)
    out = np.zeros((centers.shape[0], DESCRIPTOR_SIZE))
    idx = np.flatnonzero(reads)
    if not idx.size:
        return out, reads
    bx0, by0 = np.maximum(corners[idx].min(axis=0), -1).astype(np.int64)
    bx1, by1 = np.minimum(corners[idx].max(axis=0) + patch_size, [w + 1, h + 1]).astype(np.int64)
    planes = _orientation_planes(img, bx0, by0, bx1, by1)
    # Wc, Wr of every window, (n, x/y, cell, pixel): Gaussian x bilinear
    offsets = (corners[idx, :, None] + np.arange(patch_size) - centers[idx, :, None])[:, :, None]
    dist = np.abs((offsets + half) / (patch_size / 4.0) - 0.5 - np.arange(4.0)[:, None])
    weights = np.exp(-offsets ** 2 / (2.0 * half ** 2)) * np.maximum(0.0, 1.0 - dist)
    for (wc, wr), i in zip(weights, idx):
        x0, y0 = corners[i].astype(np.int64)
        xa, xb = max(x0, bx0), min(x0 + patch_size, bx1)
        ya, yb = max(y0, by0), min(y0 + patch_size, by1)
        window = planes[:, ya - by0:yb - by0, xa - bx0:xb - bx0]
        hist = wr[:, ya - y0:yb - y0] @ (window @ wc[:, xa - x0:xb - x0].T)
        norm = np.linalg.norm(hist)
        if norm >= 1e-12:
            desc = np.minimum(hist.transpose(1, 2, 0).ravel() / norm, _CLAMP)
            out[i] = desc / np.linalg.norm(desc)
    return out, reads


def extract_descriptor(img, center, patch_size=DEFAULT_PATCH_SIZE):
    """128-vector descriptor of the patch_size window centered at `center`:
    the integer pixels whose offset from the center lies in
    [-patch_size/2, patch_size/2), weighted by a Gaussian (sigma =
    patch_size/2). Textureless and off-image windows give the zero vector.
    """
    center = np.asarray(center, dtype=np.float64).reshape(1, 2)
    if not np.all(np.isfinite(center)):
        raise ValueError("descriptor center must be finite")
    return _descriptors(img, center, patch_size)[0][0]


def assemble_feature(img, theta, model, cam, patch_size=DEFAULT_PATCH_SIZE):
    """Concatenated landmark descriptors for parameter vector theta.

    theta is [rx ry rz tx ty tz alpha...], split by `split_theta`: missing
    trailing shape coefficients are treated as zero. Landmarks that fail to
    project or whose window lies off the image contribute a zero descriptor;
    if all do (the model is behind the camera or off the image),
    FeatureError is raised.
    """
    pose, alpha = split_theta(model, theta)
    uv, valid = project_points(select_landmarks(model, alpha), pose, cam)
    if not np.any(valid):
        raise FeatureError("all landmark projections failed")
    blocks, reads = _descriptors(img, uv, patch_size)
    if not np.any(reads):
        raise FeatureError("no landmark window overlaps the image")
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
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if px.max() > maxval:
        raise ValueError("%s: PGM sample exceeds maxval %d" % (path, maxval))
    return GrayImage(px / maxval)
