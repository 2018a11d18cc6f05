"""Deterministic hash-based value noise.

All noise here is computed from integer lattice hashing, so results are
bit-identical for a given seed on any platform. No global RNG state is
touched anywhere.
"""

import itertools

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
NOISE_IMAGE_OCTAVES = 3


def _mix(h):
    """32-bit finalizer (lowbias32), computed in uint64 with explicit masking."""
    h = h & _MASK32
    h = ((h ^ (h >> np.uint64(16))) * np.uint64(0x7FEB352D)) & _MASK32
    h = ((h ^ (h >> np.uint64(15))) * np.uint64(0x846CA68B)) & _MASK32
    h = h ^ (h >> np.uint64(16))
    return h & _MASK32


def _lattice_hash(ix, iy, iz, seed):
    """Hash integer lattice coordinates to floats in [0, 1)."""
    h = np.uint64(int(seed) & 0xFFFFFFFF)
    for i, k in ((ix, 0x9E3779B1), (iy, 0x85EBCA77), (iz, 0xC2B2AE3D)):
        i = np.asarray(i, dtype=np.int64).astype(np.uint64) & _MASK32
        h = _mix(h ^ (i * np.uint64(k) & _MASK32))
    return h.astype(np.float64) / 4294967296.0


def _cell(t):
    """Lattice cell and smoothstep weight of coordinates t (lattice units)."""
    i = np.floor(t).astype(np.int64)
    f = t - i
    return i, f * f * (3.0 - 2.0 * f)


def value_noise3(points, seed):
    """Trilinearly interpolated lattice noise at `points` (n, 3), lattice units.

    Returns values in [0, 1). Smoothstep fade between lattice corners.
    """
    p0, w = _cell(np.asarray(points, dtype=np.float64).T.copy())  # (3, n), contiguous rows
    wts = (1.0 - w, w)
    return sum(_lattice_hash(p0[0] + dx, p0[1] + dy, p0[2] + dz, seed)
               * wts[dx][0] * wts[dy][1] * wts[dz][2]
               for dx, dy, dz in itertools.product((0, 1), repeat=3))


def _fractal(octave, scale, seed, octaves):
    """Sum of `octave(spacing, seed)` over octaves that each halve the
    spacing and the amplitude, divided by the total amplitude."""
    amps = [0.5 ** o for o in range(octaves)]
    total = sum(a * octave(scale * a, seed + 101 * o) for o, a in enumerate(amps))
    return total / sum(amps)


def fbm3(points, scale, seed, octaves=2):
    """Fractal sum of 3D value noise.

    points are in physical units; `scale` is the base lattice spacing in the
    same units. Each octave halves the spacing. Output in [0, 1).
    """
    pts = np.asarray(points, dtype=np.float64)
    return _fractal(lambda step, s: value_noise3(pts / step, s), scale, seed, octaves)


def _grid_noise2(width, height, scale, seed):
    """One octave of 2D value noise over a pixel grid.

    Exploits the regular grid: only the lattice corners the image covers
    are hashed, each lattice row is blended along x once, and pixel rows
    blend two of those rows along y.
    """
    ix, wx = _cell(np.arange(width) / scale)
    iy, wy = _cell(np.arange(height) / scale)
    # pixel 0 lies in lattice cell 0, so the covered lattice starts there
    lattice = _lattice_hash(np.arange(ix[-1] + 2)[None, :], np.arange(iy[-1] + 2)[:, None],
                            0, seed)
    rows = lattice[:, ix] * (1.0 - wx) + lattice[:, ix + 1] * wx
    wy = wy[:, None]
    return rows[iy] * (1.0 - wy) + rows[iy + 1] * wy


def noise_image(width, height, scale, seed):
    """Grayscale noise raster (height, width) with values in [0, 1)."""
    return _fractal(lambda step, s: _grid_noise2(width, height, step, s), scale, seed,
                    NOISE_IMAGE_OCTAVES)
