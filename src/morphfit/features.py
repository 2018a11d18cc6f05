"""Upright fixed-scale gradient-orientation-histogram descriptors.

Each descriptor summarizes a square window around a (possibly fractional)
pixel location as a 4x4 grid of cells with 8 orientation bins per cell:
128 values, L2-normalized, clamped at 0.2 and renormalized. No scale
pyramid, no dominant-orientation alignment, no keypoint detection.
Binning is dense, HOG style (Dalal & Triggs, CVPR 2005): 8 soft-binned
gradient-magnitude planes cover the bounding box of a call's windows. The
Gaussian and bilinear cell weights are separable, so each descriptor is
Wr . planes[:, window] . Wc^T, with Wr and Wc the 4 x patch_size weights.

Descriptors read the planes from a PlaneStore, which holds them over a box
that only grows. A plane value is a function of the pixel alone (central
differences of the zero-padded image), not of the box it was built over,
so a held box is sliced and a larger one adds only its new edge strips,
bit for bit equal to building it whole. `assemble_feature` reads the store
its caller passes: `cascade.fit` keeps one for its stages, whose boxes
overlap, so each pixel's planes are built once per fit.

A GrayImage holds a uint8 array of 8-bit levels (renders and 8-bit PGMs)
or a float array of pixels in [0, 1]. The planes read a zero-padded
float64 box of it, so levels become floats only where windows read them.
"""

import operator
import re

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


class GrayImage:
    """A grayscale image over the array it is given, held uncopied: a uint8
    array holds 8-bit levels, each read as level / 255; any other array holds
    pixels in [0, 1], read as float64. A box is read into a caller's buffer,
    and `pixels` makes levels into a new float64 array on every read, so an
    image of levels keeps one byte per pixel.
    """

    def __init__(self, pixels):
        px = np.asarray(pixels)
        if px.ndim != 2:
            raise ValueError("pixels must be a 2-D (height, width) array")
        if px.dtype != np.uint8:
            px = np.asarray(px, dtype=np.float64)
            # min and max are NaN when any pixel is, which fails both comparisons
            if px.size and not (px.min() >= 0.0 and px.max() <= 1.0):
                raise ValueError("pixels must be finite and in [0, 1]")
        self._data = px

    height = property(lambda self: self._data.shape[0])
    width = property(lambda self: self._data.shape[1])

    @property
    def pixels(self):
        """(height, width) float64 in [0, 1]."""
        if self._data.dtype != np.uint8:
            return self._data
        return self.read_box(0, 0, np.empty(self._data.shape))

    @property
    def levels(self):
        """(height, width) uint8 8-bit levels: the held ones, or the pixels
        rounded to the nearest level."""
        if self._data.dtype == np.uint8:
            return self._data
        return np.rint(self._data * 255.0).astype(np.uint8)

    def read_box(self, x0, y0, out):
        """Write the pixels of the box of out's shape whose top-left pixel is
        (x0, y0) into the float64 array `out`, and return it. The part of the
        box outside the image is left as it is."""
        h, w = out.shape
        xa, ya = max(x0, 0), max(y0, 0)
        xb, yb = min(x0 + w, self.width), min(y0 + h, self.height)
        if xa < xb and ya < yb:
            src, dst = self._data[ya:yb, xa:xb], out[ya - y0:yb - y0, xa - x0:xb - x0]
            if src.dtype == np.uint8:
                np.divide(src, 255.0, out=dst)
            else:
                dst[...] = src
        return out


def _orientation_planes(img, x0, y0, x1, y1):
    """(8, y1-y0, x1-x0) planes over the box [x0, x1) x [y0, y1), which lies
    in the image grown by one pixel: the central-difference gradient magnitude
    of the zero-padded image, split linearly between the 2 nearest of 8 bins.
    Updates run in place and temporaries go early: fresh box-sized arrays
    cost more than the arithmetic, and raise the process's peak memory.
    """
    pad = img.read_box(x0 - 1, y0 - 1, np.zeros((y1 - y0 + 2, x1 - x0 + 2)))
    gx = pad[1:-1, 2:] - pad[1:-1, :-2]
    gy = pad[2:, 1:-1] - pad[:-2, 1:-1]
    del pad
    fo = np.arctan2(gy, gx).ravel()
    fo *= 4.0 / np.pi
    n = fo.shape[0]
    lo = np.floor(fo)
    fo -= lo  # the share of the upper bin
    lo = lo.astype(np.int8) & 7  # the lower bin; int8, as it lives to the second write
    idx = np.multiply(lo, n, dtype=np.int64)  # an int64 loop under either promotion rule
    idx += np.arange(n)  # bin, then pixel
    gx *= gx
    gx += np.square(gy, out=gy)
    del gy
    mag = np.sqrt(gx, out=gx).ravel()
    planes = np.zeros(8 * n)
    planes[idx] = mag * (1.0 - fo)
    fo *= mag
    lo += 1
    lo &= 7  # the upper bin: & 7 wraps 8 to 0
    np.multiply(lo, n, dtype=np.int64, out=idx)
    idx += np.arange(n)
    planes[idx] = fo
    return planes.reshape(8, y1 - y0, x1 - x0)


class PlaneStore:
    """One image's orientation planes over a box that only grows: a held
    box is sliced; any other grows the store to the union box, with the held
    planes copied in and only the (at most 4) new edge strips built.
    """

    def __init__(self, img):
        self.img = img
        self.box = None  # (x0, y0, x1, y1) held
        self.planes = None

    def over(self, x0, y0, x1, y1):
        """(8, y1-y0, x1-x0) planes over [x0, x1) x [y0, y1)."""
        if self.box is None:
            self.box, self.planes = (x0, y0, x1, y1), _orientation_planes(self.img, x0, y0, x1, y1)
        hx0, hy0, hx1, hy1 = self.box
        ux0, uy0, ux1, uy1 = min(x0, hx0), min(y0, hy0), max(x1, hx1), max(y1, hy1)
        if (ux0, uy0, ux1, uy1) != self.box:
            planes = np.empty((8, uy1 - uy0, ux1 - ux0))
            planes[:, hy0 - uy0:hy1 - uy0, hx0 - ux0:hx1 - ux0] = self.planes
            for sx0, sy0, sx1, sy1 in ((ux0, uy0, ux1, hy0), (ux0, hy1, ux1, uy1),
                                       (ux0, hy0, hx0, hy1), (hx1, hy0, ux1, hy1)):
                if sx0 < sx1 and sy0 < sy1:
                    planes[:, sy0 - uy0:sy1 - uy0, sx0 - ux0:sx1 - ux0] = \
                        _orientation_planes(self.img, sx0, sy0, sx1, sy1)
            self.box, self.planes = (ux0, uy0, ux1, uy1), planes
        return self.planes[:, y0 - uy0:y1 - uy0, x0 - ux0:x1 - ux0]


def _descriptors(store, centers, patch_size):
    """(n, 128) descriptors of the windows at `centers` (n, 2) on the image
    of `store`, and the mask of windows that read the raster: gradients are
    nonzero only on the image grown by one pixel. The other windows (NaN
    centers too) get the zero vector and are left out of the planes' box,
    which is clipped to it.
    """
    try:
        patch_size = operator.index(patch_size)
    except TypeError:
        raise ValueError("patch_size must be an integer, got %r" % (patch_size,)) from None
    if patch_size <= 0 or patch_size % 4 != 0:
        raise ValueError("patch_size must be a positive multiple of 4, got %d" % patch_size)
    h, w = store.img.height, store.img.width
    half = patch_size / 2.0
    corners = np.ceil(centers - half)
    reads = np.all((corners < [w + 1, h + 1]) & (corners + patch_size > -1), axis=1)
    out = np.zeros((centers.shape[0], DESCRIPTOR_SIZE))
    idx = np.flatnonzero(reads)
    if not idx.size:
        return out, reads
    bx0, by0 = np.maximum(corners[idx].min(axis=0), -1).astype(np.int64)
    bx1, by1 = np.minimum(corners[idx].max(axis=0) + patch_size, [w + 1, h + 1]).astype(np.int64)
    planes = store.over(bx0, by0, bx1, by1)
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
    return _descriptors(PlaneStore(img), center, patch_size)[0][0]


def assemble_feature(planes, theta, model, cam):
    """Concatenated landmark descriptors for parameter vector theta, read
    from the PlaneStore `planes` of the image at DEFAULT_PATCH_SIZE windows.

    theta is [rx ry rz tx ty tz alpha...], split by `split_theta`: missing
    trailing shape coefficients are treated as zero. Landmarks that fail to
    project or whose window lies off the image contribute a zero descriptor;
    if all do (the model is behind the camera or off the image),
    FeatureError is raised. A camera whose frame is not the image's size is
    a ValueError.
    """
    img = planes.img
    if (img.width, img.height) != (cam.width, cam.height):
        raise ValueError("the image is %dx%d, but the camera's frame is %dx%d"
                         % (img.width, img.height, cam.width, cam.height))
    pose, alpha = split_theta(model, theta)
    uv, valid = project_points(select_landmarks(model, alpha), pose, cam)
    if not np.any(valid):
        raise FeatureError("all landmark projections failed")
    blocks, reads = _descriptors(planes, uv, DEFAULT_PATCH_SIZE)
    if not np.any(reads):
        raise FeatureError("no landmark window overlaps the image")
    return blocks.reshape(-1)


# ---------------------------------------------------------------------------
# Binary PGM (P5) I/O, 8-bit
# ---------------------------------------------------------------------------

def write_pgm(img, path):
    header = b"P5\n%d %d\n255\n" % (img.width, img.height)
    atomic_write(path, header + img.levels.tobytes())


# netpbm tokens are separated by whitespace; '#' starts a comment line
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pgm_token(buf, pos):
    m = _PGM_TOKEN.match(buf, pos)
    return m.group(1), m.end()


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
    # 8-bit levels are held as they are; other maxvals are scaled into [0, 1]
    return GrayImage(px if maxval == 255 else px / maxval)
