import functools
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import quantized_noise_image
from morphfit import CameraConfig, CascadeRegressor, FeatureError, GrayImage, ParamScale, \
    ShapeModel, WeakRegressor, assemble_feature, extract_descriptor, load_model, \
    load_regressor, make_procedural_model, project_points, read_pgm, save_model, \
    save_regressor, write_pgm


# ---------------------------------------------------------------------------
# brute-force oracle: per-pixel loops, no vectorized shortcuts
# ---------------------------------------------------------------------------

def oracle_descriptor(img, center, patch_size):
    cx, cy = float(center[0]), float(center[1])
    half = patch_size / 2.0
    cell = patch_size / 4.0
    sigma = patch_size / 2.0

    def pix(x, y):
        if 0 <= x < img.width and 0 <= y < img.height:
            return img.pixels[y, x]
        return 0.0

    hist = [[[0.0] * 8 for _ in range(4)] for _ in range(4)]
    x0 = math.ceil(cx - half)
    y0 = math.ceil(cy - half)
    for qy in range(y0, y0 + patch_size):
        for qx in range(x0, x0 + patch_size):
            gx = pix(qx + 1, qy) - pix(qx - 1, qy)
            gy = pix(qx, qy + 1) - pix(qx, qy - 1)
            mag = math.hypot(gx, gy)
            if mag == 0.0:
                continue
            ang = math.atan2(gy, gx) % (2.0 * math.pi)
            ox = qx - cx
            oy = qy - cy
            w = math.exp(-(ox * ox + oy * oy) / (2.0 * sigma * sigma))
            rbin = (oy + half) / cell - 0.5
            cbin = (ox + half) / cell - 0.5
            obin = ang * 8.0 / (2.0 * math.pi)
            r0 = math.floor(rbin)
            c0 = math.floor(cbin)
            o0 = math.floor(obin)
            fr = rbin - r0
            fc = cbin - c0
            fo = obin - o0
            for dr in (0, 1):
                rr = r0 + dr
                if not 0 <= rr < 4:
                    continue
                for dc in (0, 1):
                    cc = c0 + dc
                    if not 0 <= cc < 4:
                        continue
                    for do in (0, 1):
                        oo = (o0 + do) % 8
                        wgt = (fr if dr else 1 - fr) * (fc if dc else 1 - fc) \
                            * (fo if do else 1 - fo)
                        hist[rr][cc][oo] += mag * w * wgt

    flat = np.array([hist[r][c][o] for r in range(4) for c in range(4) for o in range(8)])
    norm = np.linalg.norm(flat)
    if norm < 1e-12:
        return np.zeros(128)
    flat = flat / norm
    flat = np.minimum(flat, 0.2)
    return flat / np.linalg.norm(flat)


def test_matches_oracle_on_random_patches():
    rng = np.random.default_rng(10)
    img = quantized_noise_image(rng, 90, 70)
    for _ in range(25):
        patch = int(rng.choice([8, 16, 32]))
        center = (rng.uniform(-5, img.width + 5), rng.uniform(-5, img.height + 5))
        got = extract_descriptor(img, center, patch)
        want = oracle_descriptor(img, center, patch)
        np.testing.assert_allclose(got, want, atol=1e-9)
        n = np.linalg.norm(got)
        assert n == 0.0 or abs(n - 1.0) <= 1e-9


def test_constant_image_gives_zero_descriptor():
    img = GrayImage(width=64, height=64, pixels=np.full((64, 64), 0.5))
    d = extract_descriptor(img, (32.0, 32.0), 32)
    assert np.array_equal(d, np.zeros(128))


def test_step_edges_fill_only_horizontal_bins():
    # bright band: left edge votes bin 0, right edge votes bin 4
    px = np.full((64, 64), 0.2)
    px[:, 28:36] = 0.8
    img = GrayImage(width=64, height=64, pixels=px)
    d = extract_descriptor(img, (31.5, 31.5), 16)
    np.testing.assert_allclose(d, oracle_descriptor(img, (31.5, 31.5), 16), atol=1e-9)
    cells = d.reshape(4, 4, 8)
    mass_other = np.abs(cells[:, :, [1, 2, 3, 5, 6, 7]]).sum()
    assert cells[:, :, 0].sum() > 0 and cells[:, :, 4].sum() > 0
    assert mass_other == 0.0


def test_rot90_permutes_cells_and_orientations():
    rng = np.random.default_rng(11)
    img = quantized_noise_image(rng, 64, 64)
    center = (31.5, 31.5)  # fixed point of np.rot90 on a 64x64 raster
    d = extract_descriptor(img, center, 32).reshape(4, 4, 8)
    rot = GrayImage.from_array(np.rot90(img.pixels).copy())
    d_rot = extract_descriptor(rot, center, 32).reshape(4, 4, 8)
    for r in range(4):
        for c in range(4):
            for o in range(8):
                assert d_rot[3 - c, r, (o - 2) % 8] == pytest.approx(d[r, c, o], abs=1e-9)


def test_additive_shift_invariance_exact():
    rng = np.random.default_rng(12)
    img = quantized_noise_image(rng, 48, 48)  # dyadic values in [0.1, 0.6]
    shifted = GrayImage.from_array(img.pixels + 0.25)
    a = extract_descriptor(img, (24.0, 24.0), 16)
    b = extract_descriptor(shifted, (24.0, 24.0), 16)
    assert np.array_equal(a, b)


def test_gain_invariance():
    # gain cancels in the pre-clamp normalization as long as no pixel
    # saturates the [0, 1] range
    rng = np.random.default_rng(13)
    img = quantized_noise_image(rng, 48, 48, lo=0.1, hi=0.45)
    assert (img.pixels * 2.0 <= 1.0).all()
    a = extract_descriptor(img, (24.0, 24.0), 16)
    doubled = GrayImage.from_array(img.pixels * 2.0)
    b = extract_descriptor(doubled, (24.0, 24.0), 16)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gray_image_rejects_pixels_outside_unit_range():
    # one bad pixel is an error, not a clipped copy or an all-zero descriptor
    for bad in (np.nan, np.inf, -0.25, 1.5):
        px = np.full((64, 64), 0.5)
        px[32, 32] = bad
        with pytest.raises(ValueError, match=r"pixels must be finite and in \[0, 1\]"):
            GrayImage.from_array(px)
    px = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    assert GrayImage.from_array(px).pixels is px  # valid pixels are kept, not copied


def test_patch_size_validation():
    img = GrayImage(width=16, height=16, pixels=np.zeros((16, 16)))
    with pytest.raises(ValueError):
        extract_descriptor(img, (8, 8), 30)
    with pytest.raises(ValueError):
        extract_descriptor(img, (8, 8), 0)


def two_landmark_model():
    basis = np.zeros((6, 1))
    basis[2, 0] = 1.0
    return ShapeModel(vertex_count=2, mean=[-100.0, 0.0, 0.0, 100.0, 0.0, 0.0],
                      basis=basis, sigmas=[1.0], landmark_ids=[0, 1])


def test_assemble_order_length_and_zero_blocks():
    rng = np.random.default_rng(14)
    cam = CameraConfig(focal=1500.0, width=640, height=480)
    px = np.full((480, 640), 0.5)
    px[:, :330] = quantized_noise_image(rng, 330, 480).pixels
    img = GrayImage.from_array(px)
    model = two_landmark_model()
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    f = assemble_feature(img, theta, model, cam, patch_size=32)
    assert f.shape == (256,)
    # landmark 0 projects to u=195 (noise half), landmark 1 to u=445 (flat half)
    b0, b1 = f[:128], f[128:]
    assert np.linalg.norm(b0) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(b1, np.zeros(128))
    d0 = extract_descriptor(img, (195.0, 240.0), 32)
    np.testing.assert_array_equal(b0, d0)
    # purity
    assert np.array_equal(f, assemble_feature(img, theta, model, cam, patch_size=32))


def pinned_landmark_model(uv, cam, depth=1200.0):
    """Rigid model whose landmarks project to the pixel positions `uv`
    under the pose [0 0 0 0 0 -depth]."""
    uv = np.asarray(uv, dtype=np.float64)
    pts = np.zeros((uv.shape[0], 3))
    pts[:, 0] = (uv[:, 0] - cam.cx) * depth / cam.focal
    pts[:, 1] = -(uv[:, 1] - cam.cy) * depth / cam.focal
    return ShapeModel(vertex_count=uv.shape[0], mean=pts.reshape(-1),
                      basis=np.zeros((pts.size, 0)), sigmas=[],
                      landmark_ids=np.arange(uv.shape[0]))


AHEAD = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])


def test_assemble_blocks_equal_single_descriptors_at_edges():
    rng = np.random.default_rng(16)
    cam = CameraConfig(focal=500.0, width=160, height=120)
    img = quantized_noise_image(rng, 160, 120)
    centers = [(80.3, 60.7),                                   # inside
               (2.5, 60.2), (158.2, 59.9), (80.1, 1.5), (79.6, 118.6),  # edges
               (0.4, 0.2), (159.7, 0.3), (0.1, 119.9), (159.5, 119.5),  # corners
               (-16.5, 60.0), (176.0, 60.0),  # only the one-pixel gradient margin
               (-40.0, 60.0), (220.0, 60.0), (80.0, -60.0)]  # entirely off-raster
    model = pinned_landmark_model(centers, cam)
    f = assemble_feature(img, AHEAD, model, cam, patch_size=32)
    blocks = f.reshape(len(centers), 128)
    # the projection returns the centers up to round-off; compare at its output
    uv, _ = project_points(model.mean.reshape(-1, 3), AHEAD, cam)
    np.testing.assert_allclose(uv, centers, atol=1e-12)
    for block, center in zip(blocks, uv):
        single = extract_descriptor(img, center, 32)
        np.testing.assert_array_equal(block, single)
        np.testing.assert_allclose(single, oracle_descriptor(img, center, 32), atol=1e-9)
    assert all(np.linalg.norm(b) == pytest.approx(1.0, abs=1e-9) for b in blocks[:11])
    assert not np.any(blocks[11:])


def test_far_off_landmark_gives_zero_block_without_large_allocation():
    rng = np.random.default_rng(17)
    cam = CameraConfig(focal=500.0, width=160, height=120)
    img = quantized_noise_image(rng, 160, 120)
    model = pinned_landmark_model([(70.2, 50.9), (1e7, 60.0)], cam)
    tracemalloc.start()
    try:
        f = assemble_feature(img, AHEAD, model, cam, patch_size=96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(f[:128], extract_descriptor(img, (70.2, 50.9), 96))
    assert np.linalg.norm(f[:128]) > 0 and not np.any(f[128:])
    # a box reaching u = 1e7 would take > 50 GB; planes over the whole
    # image and its one-pixel margin take 8 * 162 * 122 * 8 B = 1.3 MB
    assert peak < 8 * 1024 * 1024


def test_assemble_fails_when_no_window_overlaps_the_image():
    cam = CameraConfig(focal=500.0, width=160, height=120)
    img = GrayImage(width=160, height=120, pixels=np.full((120, 160), 0.5))
    model = pinned_landmark_model([(-60.0, 60.0), (300.0, 60.0)], cam)
    with pytest.raises(FeatureError, match="no landmark window overlaps the image"):
        assemble_feature(img, AHEAD, model, cam, patch_size=32)


def test_assemble_rejects_bad_theta_and_behind_camera():
    cam = CameraConfig(focal=1500.0, width=640, height=480)
    img = GrayImage(width=640, height=480, pixels=np.zeros((480, 640)))
    model = two_landmark_model()
    with pytest.raises(ValueError):
        assemble_feature(img, np.zeros(9), model, cam)  # 6 + K' > 6 + K
    with pytest.raises(FeatureError):
        assemble_feature(img, np.array([0, 0, 0, 0, 0, 1200.0]), model, cam)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    px = np.round(rng.uniform(0, 1, (33, 47)) * 255.0) / 255.0
    img = GrayImage.from_array(px)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert back.width == 47 and back.height == 33
    np.testing.assert_allclose(back.pixels, img.pixels, atol=1e-15)
    # second round trip is byte-identical
    write_pgm(back, tmp_path / "img2.pgm")
    assert (tmp_path / "img.pgm").read_bytes() == (tmp_path / "img2.pgm").read_bytes()


def test_pgm_rejects_garbage(tmp_path):
    # every error names the file and the problem
    p = tmp_path / "bad.pgm"
    for data, problem in ((b"P2\n2 2\n255\n0 0 0 0\n", "P5"),
                          (b"P5\n4 4\n255\n\x00\x00", "truncated"),
                          (b"P5\n4 x\n255\n", "height"), (b"P5\n4", "height"),
                          (b"P5\n", "width"), (b"P5\n4 4\n", "maxval"),
                          (b"P5\n0 4\n255\n", "empty"),
                          (b"P5\n2 1\n100\n\x00\xff", "exceeds maxval")):
        p.write_bytes(data)
        with pytest.raises(ValueError, match="bad.pgm.*" + problem):
            read_pgm(p)


def test_pgm_handles_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
    img = read_pgm(p)
    np.testing.assert_allclose(img.pixels, [[0.0, 1.0]])


def _pgm_bytes(width, height, maxval, seed):
    raster = np.random.default_rng(seed).integers(0, maxval + 1, width * height)
    return b"P5\n%d %d\n%d\n" % (width, height, maxval) + raster.astype(np.uint8).tobytes()


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 6), height=st.integers(1, 6), maxval=st.integers(1, 255),
       seed=st.integers(0, 2 ** 16), cut=st.integers(0, 64),
       edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=4))
def test_pgm_truncated_or_corrupt_raises_only_value_error(tmp_path_factory, width, height,
                                                          maxval, seed, cut, edits):
    data = bytearray(_pgm_bytes(width, height, maxval, seed))
    for pos, byte in edits:
        data[pos % len(data)] = byte
    p = tmp_path_factory.mktemp("pgm") / "fuzz.pgm"
    p.write_bytes(bytes(data[:len(data) - cut]))
    try:
        img = read_pgm(p)
    except ValueError as e:
        assert "fuzz.pgm" in str(e)
        return
    # an accepted file decodes to its full raster, scaled into [0, 1]
    assert img.pixels.shape == (img.height, img.width)
    assert np.all((img.pixels >= 0.0) & (img.pixels <= 1.0))


# MFM1 and MFR1 share one field reader: whatever the damage, the only
# outcome besides a valid load is a ValueError naming the file.
LOADERS = {"model.mfm": (save_model, load_model), "reg.mfr": (save_regressor, load_regressor)}


@functools.lru_cache(maxsize=None)
def _saved_bytes(name):
    rng = np.random.default_rng(4)
    obj = make_procedural_model(9, 50, 2) if name == "model.mfm" else CascadeRegressor(
        stages=[WeakRegressor(A=rng.normal(size=(2, 3)), b=rng.normal(size=2)) for _ in range(2)],
        scale=ParamScale(rng.normal(size=2), [1.5, 2.0]), feature_dim=3, layout=["rx", "ry"])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        LOADERS[name][0](obj, path)
        with open(path, "rb") as f:
            return f.read()


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(LOADERS)), cut=st.integers(0, 2 ** 16),
       edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)), max_size=4))
def test_mfm_mfr_truncated_or_corrupt_raise_only_value_error(tmp_path_factory, name, cut, edits):
    data = bytearray(_saved_bytes(name))
    for pos, byte in edits:
        data[pos % len(data)] = byte
    p = tmp_path_factory.mktemp("fuzz") / name
    p.write_bytes(bytes(data[:len(data) - cut % (len(data) + 1)]))
    try:
        LOADERS[name][1](p)
    except ValueError as e:
        assert str(p) in str(e)


@pytest.mark.parametrize("name, edit, problem", [
    ("reg.mfr", lambda d: d.replace(b"stages 2", b"stages 1.5"), "stages: invalid literal"),
    ("reg.mfr", lambda d: d.replace(b"pdim 2", b"pdim -2"), "pdim: negative count -2"),
    ("reg.mfr", lambda d: d.replace(b"\nb:\n", b"\nb:\n\xff", 1),
     "b: line 13: non-ASCII byte 0xff"),
    ("reg.mfr", lambda d: d[:d.index(b"A:") + 10], "A: unexpected end of file"),
    ("model.mfm", lambda d: d.replace(b"landmarks 17", b"landmarks -2"),
     "landmarks: negative count -2"),
    ("model.mfm", lambda d: d.replace(b"\nsigmas:\n", b"\nsigmas:\n\xff"),
     "sigmas: line 58: non-ASCII byte 0xff"),
    ("model.mfm", lambda d: d[:d.index(b"tris:") + 10], "tris: unexpected end of file"),
])
def test_mfm_mfr_errors_name_file_and_field(tmp_path, name, edit, problem):
    data = _saved_bytes(name)
    path = tmp_path / name
    path.write_bytes(edit(data))
    assert path.read_bytes() != data
    with pytest.raises(ValueError) as exc:
        LOADERS[name][1](path)
    assert str(exc.value).startswith("%s: %s" % (path, problem))
