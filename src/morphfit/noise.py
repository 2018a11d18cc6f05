"""Deterministic hash-based value noise.

All noise here is computed from integer lattice hashing, so results are
bit-identical for a given seed on any platform. No global RNG state is
touched anywhere.

The lattice hash is a chain of lowbias32 rounds, one per axis:
h = mix(mix(mix(seed ^ x*k1) ^ y*k2) ^ z*k3), with coordinates taken mod
2**32 and every step computed in uint32, where products wrap mod 2**32.
`_lattice_hash` is the one chain; its callers share the chain's prefixes by
broadcasting. `value_noise3` passes a cell's x, y and z corners on separate
axes, so 2 x-rounds, 4 xy-rounds and 8 z-rounds hash the cell's 8 corners,
14 rounds instead of 24. It hashes once per run of consecutive points in one
cell, not per point, and gathers its corner values: a face's pixels come in
row-major order, so neighbours mostly share a cell.
"""

import numpy as np

NOISE_IMAGE_OCTAVES = 3
# per-axis multipliers of the lattice hash chain (x, y, z)
_AXIS_MULT = tuple(np.uint32(k) for k in (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D))


def _chain(h, ik):
    """One step of the lattice hash chain: lowbias32(h ^ ik), where ik is a
    uint32 coordinate already times its axis multiplier."""
    h = h ^ ik
    h ^= h >> 16
    h *= 0x7FEB352D
    h ^= h >> 15
    h *= 0x846CA68B
    h ^= h >> 16
    return h


def _lattice_hash(ix, iy, iz, seed):
    """Hash integer lattice coordinate arrays, broadcast together, to floats
    in [0, 1)."""
    h = np.uint32(int(seed) & 0xFFFFFFFF)
    for i, k in zip((ix, iy, iz), _AXIS_MULT):
        h = _chain(h, np.asarray(i, dtype=np.int64).astype(np.uint32) * k)
    return h / 4294967296.0


def _cell(t):
    """Lattice cell and smoothstep weight of coordinates t (lattice units)."""
    i = np.floor(t)
    f = t - i
    return i.astype(np.int64), f * f * (3.0 - 2.0 * f)


def value_noise3(points, seed):
    """Trilinearly interpolated lattice noise at `points` (n, 3), lattice units.

    Returns values in [0, 1). Smoothstep fade between lattice corners.
    """
    p0, w = _cell(np.asarray(points, dtype=np.float64).T.copy())  # (3, n), contiguous rows
    n = p0.shape[1]
    # consecutive points mostly share a cell: each run of equal cells is hashed once
    new_cell = np.ones(n, dtype=bool)
    np.any(p0[:, 1:] != p0[:, :-1], axis=0, out=new_cell[1:])
    run = np.cumsum(new_cell)
    run -= 1
    cx, cy, cz = p0[:, new_cell]
    d = np.arange(2)
    corners = _lattice_hash(cx + d[:, None, None, None], cy + d[:, None, None], cz + d[:, None],
                            seed)  # (2, 2, 2, runs), by (dx, dy, dz)
    wts = [(1.0 - c, c) for c in w]
    total = np.zeros(n)
    # corners summed in (dx, dy, dz) order, the order that fixes the rounding
    for dx, dy, dz in np.ndindex(2, 2, 2):
        term = corners[dx, dy, dz].take(run)
        term *= wts[0][dx]
        term *= wts[1][dy]
        term *= wts[2][dz]
        total += term
    return total


def _octaves(scale, seed, octaves):
    """(spacing, seed, amplitude) of each octave of a fractal sum: each octave
    halves the spacing and the amplitude of the one before."""
    if octaves < 1:
        raise ValueError("octaves must be at least 1, got %r" % (octaves,))
    return [(scale * 0.5 ** o, seed + 101 * o, 0.5 ** o) for o in range(octaves)]


def _fractal(octave, octaves):
    """Sum of `octave(spacing, seed)` times its amplitude over `octaves`,
    divided by the total amplitude."""
    (step, s, _), *rest = octaves
    total = octave(step, s)  # amplitude 1
    for step, s, a in rest:
        v = octave(step, s)
        v *= a
        total += v
    total /= sum(a for _, _, a in octaves)
    return total


def fbm3(points, scale, seed, octaves=2):
    """Fractal sum of 3D value noise.

    points are in physical units; `scale` is the base lattice spacing in the
    same units. Each octave halves the spacing. Output in [0, 1).
    """
    pts = np.asarray(points, dtype=np.float64)
    return _fractal(lambda step, s: value_noise3(pts / step, s), _octaves(scale, seed, octaves))


def _grid_noise2(width, height, scale, seed):
    """One octave of 2D value noise over a pixel grid, as a function of a row
    range [y0, y1) that returns those rows, (y1 - y0, width).

    Exploits the regular grid: only the lattice corners the image covers
    are hashed and each lattice row is blended along x, once, up front;
    pixel rows blend two of those rows along y.
    """
    ix, wx = _cell(np.arange(width) / scale)
    iy, wy = _cell(np.arange(height) / scale)
    # pixel 0 lies in lattice cell 0, so the covered lattice starts there
    lattice = _lattice_hash(np.arange(ix[-1] + 2)[None, :], np.arange(iy[-1] + 2)[:, None],
                            0, seed)
    rows = lattice.take(ix, axis=1)
    rows *= 1.0 - wx
    right = lattice.take(ix + 1, axis=1)
    right *= wx
    rows += right
    wy = wy[:, None]

    def block(y0, y1):
        out = rows[iy[y0:y1]]
        out *= 1.0 - wy[y0:y1]
        below = rows[iy[y0:y1] + 1]
        below *= wy[y0:y1]
        out += below
        return out
    return block


def noise_rows(width, height, scale, seed):
    """`noise_image` by row blocks: a function of a row range [y0, y1) that
    returns those rows of the raster. Each octave's lattice is hashed once."""
    octaves = _octaves(scale, seed, NOISE_IMAGE_OCTAVES)
    blocks = {(step, s): _grid_noise2(width, height, step, s) for step, s, _ in octaves}
    return lambda y0, y1: _fractal(lambda step, s: blocks[step, s](y0, y1), octaves)


def noise_image(width, height, scale, seed):
    """Grayscale noise raster (height, width) with values in [0, 1)."""
    return noise_rows(width, height, scale, seed)(0, height)
