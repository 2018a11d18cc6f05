import functools
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import quantized_noise_image
from morphfit import CameraConfig, CascadeRegressor, FeatureError, GrayImage, ParamScale, \
    ShapeModel, WeakRegressor, assemble_feature, extract_descriptor, fit, load_model, \
    load_regressor, make_procedural_model, predict_update, project_points, read_pgm, \
    save_model, save_regressor, select_landmarks, write_pgm
from morphfit.features import PlaneStore, _orientation_planes


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
    img = GrayImage(np.full((64, 64), 0.5))
    d = extract_descriptor(img, (32.0, 32.0), 32)
    assert np.array_equal(d, np.zeros(128))


def test_step_edges_fill_only_horizontal_bins():
    # bright band: left edge votes bin 0, right edge votes bin 4
    px = np.full((64, 64), 0.2)
    px[:, 28:36] = 0.8
    img = GrayImage(px)
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
    rot = GrayImage(np.rot90(img.pixels).copy())
    d_rot = extract_descriptor(rot, center, 32).reshape(4, 4, 8)
    for r in range(4):
        for c in range(4):
            for o in range(8):
                assert d_rot[3 - c, r, (o - 2) % 8] == pytest.approx(d[r, c, o], abs=1e-9)


def test_additive_shift_invariance_exact():
    rng = np.random.default_rng(12)
    img = quantized_noise_image(rng, 48, 48)  # dyadic values in [0.1, 0.6]
    shifted = GrayImage(img.pixels + 0.25)
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
    doubled = GrayImage(img.pixels * 2.0)
    b = extract_descriptor(doubled, (24.0, 24.0), 16)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gray_image_rejects_pixels_outside_unit_range():
    # one bad pixel is an error, not a clipped copy or an all-zero descriptor
    for bad in (np.nan, np.inf, -0.25, 1.5):
        px = np.full((64, 64), 0.5)
        px[32, 32] = bad
        with pytest.raises(ValueError, match=r"pixels must be finite and in \[0, 1\]"):
            GrayImage(px)
    px = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    assert GrayImage(px).pixels is px  # valid pixels are kept, not copied


def test_gray_image_size_is_the_pixel_shape():
    for dtype in (np.float64, np.uint8):
        img = GrayImage(np.zeros((33, 47), dtype=dtype))
        assert (img.width, img.height) == (47, 33)
        for shape in ((47,), (2, 33, 47)):
            with pytest.raises(ValueError, match="pixels must be a 2-D"):
                GrayImage(np.zeros(shape, dtype=dtype))


def test_gray_image_of_levels_makes_new_pixels_on_every_read():
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    img = GrayImage(levels)
    assert img.levels is levels  # held, not copied
    a, b = img.pixels, img.pixels
    assert a is not b and a.dtype == b.dtype == np.float64
    assert np.array_equal(a, np.arange(256).reshape(16, 16) / 255.0)
    a[:] = 0.0  # a read is the caller's own array
    assert np.array_equal(img.pixels, b)


def test_patch_size_validation():
    img = GrayImage(np.zeros((16, 16)))
    with pytest.raises(ValueError):
        extract_descriptor(img, (8, 8), 30)
    with pytest.raises(ValueError):
        extract_descriptor(img, (8, 8), 0)
    # an integer or an error: neither a float nor a string is cut or parsed to one
    img = GrayImage(np.zeros((120, 160)))
    for bad in (96.7, "96"):
        with pytest.raises(ValueError, match="must be an integer, got " + re.escape(repr(bad))):
            extract_descriptor(img, (80, 60), bad)
    for good in (96, np.int64(96)):
        assert extract_descriptor(img, (80, 60), good).shape == (128,)


def two_landmark_model():
    basis = np.zeros((6, 1))
    basis[2, 0] = 1.0
    return ShapeModel(mean=[-100.0, 0.0, 0.0, 100.0, 0.0, 0.0],
                      basis=basis, sigmas=[1.0], landmark_ids=[0, 1])


def test_assemble_order_length_and_zero_blocks():
    rng = np.random.default_rng(14)
    cam = CameraConfig(focal=1500.0, width=640, height=480)
    px = np.full((480, 640), 0.5)
    px[:, :330] = quantized_noise_image(rng, 330, 480).pixels
    img = GrayImage(px)
    model = two_landmark_model()
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    f = assemble_feature(PlaneStore(img), theta, model, cam)
    assert f.shape == (256,)
    # landmark 0 projects to u=195 (noise half), landmark 1 to u=445 (flat half)
    b0, b1 = f[:128], f[128:]
    assert np.linalg.norm(b0) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(b1, np.zeros(128))
    d0 = extract_descriptor(img, (195.0, 240.0))
    np.testing.assert_array_equal(b0, d0)
    # purity
    assert np.array_equal(f, assemble_feature(PlaneStore(img), theta, model, cam))


def pinned_landmark_model(uv, cam, depth=1200.0):
    """Rigid model whose landmarks project to the pixel positions `uv`
    under the pose [0 0 0 0 0 -depth]."""
    uv = np.asarray(uv, dtype=np.float64)
    pts = np.zeros((uv.shape[0], 3))
    pts[:, 0] = (uv[:, 0] - cam.cx) * depth / cam.focal
    pts[:, 1] = -(uv[:, 1] - cam.cy) * depth / cam.focal
    return ShapeModel(mean=pts.reshape(-1),
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
               (-48.5, 60.0), (208.0, 60.0),  # only the one-pixel gradient margin
               (-60.0, 60.0), (220.0, 60.0), (80.0, -60.0)]  # entirely off-raster
    model = pinned_landmark_model(centers, cam)
    f = assemble_feature(PlaneStore(img), AHEAD, model, cam)
    blocks = f.reshape(len(centers), 128)
    # the projection returns the centers up to round-off; compare at its output
    uv, _ = project_points(model.mean.reshape(-1, 3), AHEAD, cam)
    np.testing.assert_allclose(uv, centers, atol=1e-12)
    for block, center in zip(blocks, uv):
        single = extract_descriptor(img, center)
        np.testing.assert_array_equal(block, single)
        np.testing.assert_allclose(single, oracle_descriptor(img, center, 96), atol=1e-9)
    assert all(np.linalg.norm(b) == pytest.approx(1.0, abs=1e-9) for b in blocks[:11])
    assert not np.any(blocks[11:])


def test_far_off_landmark_gives_zero_block_without_large_allocation():
    rng = np.random.default_rng(17)
    cam = CameraConfig(focal=500.0, width=160, height=120)
    img = quantized_noise_image(rng, 160, 120)
    model = pinned_landmark_model([(70.2, 50.9), (1e7, 60.0)], cam)
    tracemalloc.start()
    try:
        f = assemble_feature(PlaneStore(img), AHEAD, model, cam)
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
    img = GrayImage(np.full((120, 160), 0.5))
    model = pinned_landmark_model([(-60.0, 60.0), (300.0, 60.0)], cam)
    with pytest.raises(FeatureError, match="no landmark window overlaps the image"):
        assemble_feature(PlaneStore(img), AHEAD, model, cam)


def test_assemble_rejects_bad_theta_and_behind_camera():
    cam = CameraConfig(focal=1500.0, width=640, height=480)
    img = GrayImage(np.zeros((480, 640)))
    model = two_landmark_model()
    with pytest.raises(ValueError):
        assemble_feature(PlaneStore(img), np.zeros(9), model, cam)  # 6 + K' > 6 + K
    with pytest.raises(FeatureError):
        assemble_feature(PlaneStore(img), np.array([0, 0, 0, 0, 0, 1200.0]), model, cam)


# ---------------------------------------------------------------------------
# plane store: a pixel's planes do not depend on the box they are built over
# ---------------------------------------------------------------------------

def _draw_box(draw, w, h):
    """A nonempty box inside the w x h image grown by one pixel."""
    x0, y0 = draw(st.integers(-1, w)), draw(st.integers(-1, h))
    return x0, y0, draw(st.integers(x0 + 1, w + 1)), draw(st.integers(y0 + 1, h + 1))


@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 24), h=st.integers(1, 24), levels=st.sampled_from([2, 4, 512]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_planes_over_any_box_are_slices_of_the_full_frame(w, h, levels, seed, data):
    # coarse levels give flat runs and gradients on the bin boundaries
    img = quantized_noise_image(np.random.default_rng(seed), w, h, levels=levels)
    full = _orientation_planes(img, -1, -1, w + 1, h + 1)
    x0, y0, x1, y1 = _draw_box(data.draw, w, h)
    assert np.array_equal(_orientation_planes(img, x0, y0, x1, y1),
                          full[:, y0 + 1:y1 + 1, x0 + 1:x1 + 1])


@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 24), h=st.integers(1, 24), seed=st.integers(0, 2 ** 16),
       n=st.integers(1, 5), data=st.data())
def test_plane_store_grows_to_the_union_and_returns_full_frame_slices(w, h, seed, n, data):
    img = quantized_noise_image(np.random.default_rng(seed), w, h, levels=4)
    full = _orientation_planes(img, -1, -1, w + 1, h + 1)
    store = PlaneStore(img)
    boxes = [_draw_box(data.draw, w, h) for _ in range(n)]
    for x0, y0, x1, y1 in boxes:
        assert np.array_equal(store.over(x0, y0, x1, y1), full[:, y0 + 1:y1 + 1, x0 + 1:x1 + 1])
    x0s, y0s, x1s, y1s = zip(*boxes)
    assert store.box == (min(x0s), min(y0s), max(x1s), max(y1s))


# ---------------------------------------------------------------------------
# 8-bit levels: a uint8 image reads as its float twin, level / 255, bit for bit
# ---------------------------------------------------------------------------

def level_twins(rng, w, h, top=255):
    """An image of random 8-bit levels in [0, top] and its float twin."""
    levels = rng.integers(0, top + 1, (h, w)).astype(np.uint8)
    return GrayImage(levels), GrayImage(levels / 255.0)


@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 24), h=st.integers(1, 24), top=st.sampled_from([1, 3, 255]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_levels_give_the_planes_of_their_float_twin(w, h, top, seed, data):
    # boxes reach into the one-pixel margin past the frame on any side
    levels, twin = level_twins(np.random.default_rng(seed), w, h, top)
    box = _draw_box(data.draw, w, h)
    assert np.array_equal(_orientation_planes(levels, *box), _orientation_planes(twin, *box))


def one_shot_trajectory(img, theta, reg, model, cam):
    """fit's trajectory, each stage's features assembled from a fresh store."""
    traj = [theta]
    for wr in reg.stages:
        f = assemble_feature(PlaneStore(img), traj[-1], model, cam)
        traj.append(traj[-1] + predict_update(wr, f, reg.scale))
    return np.stack(traj)


# per-stage updates b of a 3-stage cascade fitted from AHEAD; tz +200 brings the
# face closer, so its windows spread, and tx moves them sideways
STORE_CASES = {
    "grows on all sides": [[0, 0, 0, 0, 0, 200], [0, 0, 0, 0, 0, 100], [0] * 6],
    "inside the held box": [[0, 0, 0, 0, 0, -300], [0, 0, 0, 0, 0, -300], [0] * 6],
    "windows leave the image": [[0, 0, 0, 480, 0, 0], [0, 0, 0, -240, 0, 0], [0] * 6],
}


@pytest.mark.parametrize("case", sorted(STORE_CASES))
def test_fit_through_one_plane_store_equals_one_shot_features(case, monkeypatch):
    rng = np.random.default_rng(18)
    cam = CameraConfig(focal=500.0, width=320, height=240)
    img = quantized_noise_image(rng, 320, 240)
    model = pinned_landmark_model([(110.3, 70.6), (210.2, 69.9), (109.8, 170.1),
                                   (210.5, 170.4)], cam)
    # small random weights: every feature bit reaches theta, but barely moves the windows
    reg = CascadeRegressor(stages=[WeakRegressor(A=rng.normal(scale=1e-3, size=(6, 512)), b=b)
                                   for b in STORE_CASES[case]],
                           scale=ParamScale(np.zeros(6), np.ones(6)), feature_dim=512)
    boxes, over = [], PlaneStore.over
    monkeypatch.setattr(PlaneStore, "over", lambda store, *box: boxes.append(box)
                        or over(store, *box))
    traj = fit(img, AHEAD, reg, model, cam).trajectory
    monkeypatch.undo()
    np.testing.assert_array_equal(traj, one_shot_trajectory(img, AHEAD, reg, model, cam))
    assert len(boxes) == 3
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes[:2]
    if case == "grows on all sides":
        assert bx0 < ax0 and by0 < ay0 and bx1 > ax1 and by1 > ay1
    elif case == "inside the held box":
        assert ax0 < bx0 and ay0 < by0 and bx1 < ax1 and by1 < ay1
    else:
        assert bx1 - bx0 < ax1 - ax0
        blocks = assemble_feature(PlaneStore(img), traj[1], model, cam).reshape(4, 128)
        assert np.any(blocks) and not np.all(np.any(blocks, axis=1))


def test_levels_give_the_features_and_fits_of_their_float_twin():
    rng = np.random.default_rng(21)
    cam = CameraConfig(focal=500.0, width=320, height=240)
    levels, twin = level_twins(rng, 320, 240)
    model = pinned_landmark_model([(110.3, 70.6), (210.2, 69.9), (109.8, 170.1),
                                   (210.5, 170.4), (5.5, 230.2)], cam)
    stores = PlaneStore(levels), PlaneStore(twin)
    for b in STORE_CASES.values():  # windows that grow, stay inside and leave the image
        for theta in np.cumsum([AHEAD, *b], axis=0):
            assert np.array_equal(assemble_feature(stores[0], theta, model, cam),
                                  assemble_feature(stores[1], theta, model, cam))
    assert stores[0].box == stores[1].box
    for b in STORE_CASES.values():
        reg = CascadeRegressor(stages=[WeakRegressor(A=rng.normal(scale=1e-3, size=(6, 640)),
                                                     b=stage) for stage in b],
                               scale=ParamScale(np.zeros(6), np.ones(6)), feature_dim=640)
        assert np.array_equal(fit(levels, AHEAD, reg, model, cam).trajectory,
                              fit(twin, AHEAD, reg, model, cam).trajectory)


def test_fit_sending_a_landmark_far_off_grows_no_large_store():
    rng = np.random.default_rng(19)
    cam = CameraConfig(focal=500.0, width=160, height=120)
    img = quantized_noise_image(rng, 160, 120)
    rigid = pinned_landmark_model([(70.2, 50.9), (90.4, 60.0)], cam)
    basis = np.zeros((6, 1))
    basis[3, 0] = 1.0  # moves landmark 1 along x
    model = ShapeModel(mean=rigid.mean, basis=basis, sigmas=[1.0], landmark_ids=[0, 1])
    shove = (1e7 - 90.4) * 1200.0 / cam.focal  # stage 0 sends landmark 1 to u = 1e7
    reg = CascadeRegressor(stages=[WeakRegressor(A=np.zeros((7, 256)), b=[0] * 6 + [shove]),
                                   WeakRegressor(A=np.zeros((7, 256)), b=np.zeros(7))],
                           scale=ParamScale(np.zeros(7), np.ones(7)), feature_dim=256)
    tracemalloc.start()
    try:
        traj = fit(img, np.append(AHEAD, 0.0), reg, model, cam).trajectory
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    uv, _ = project_points(select_landmarks(model, traj[1, 6:]), AHEAD, cam)
    assert uv[1, 0] == pytest.approx(1e7)
    # the store's box stays inside the image and its one-pixel margin:
    # 8 * 162 * 122 * 8 B = 1.3 MB at most
    assert peak < 8 * 1024 * 1024


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    px = np.round(rng.uniform(0, 1, (33, 47)) * 255.0) / 255.0
    img = GrayImage(px)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert back.width == 47 and back.height == 33
    np.testing.assert_allclose(back.pixels, img.pixels, atol=1e-15)
    # second round trip is byte-identical
    write_pgm(back, tmp_path / "img2.pgm")
    assert (tmp_path / "img.pgm").read_bytes() == (tmp_path / "img2.pgm").read_bytes()


def test_pgm_holds_8_bit_levels_and_writes_either_form_alike(tmp_path):
    levels, twin = level_twins(np.random.default_rng(22), 47, 33)
    write_pgm(levels, tmp_path / "levels.pgm")
    write_pgm(twin, tmp_path / "twin.pgm")
    assert (tmp_path / "levels.pgm").read_bytes() == (tmp_path / "twin.pgm").read_bytes()
    back = read_pgm(tmp_path / "levels.pgm")
    assert back.levels.dtype == np.uint8 and back.levels is back.levels  # held levels
    assert np.array_equal(back.levels, levels.levels)
    # other maxvals are scaled into [0, 1] and held as floats
    p = tmp_path / "m100.pgm"
    p.write_bytes(b"P5\n3 1\n100\n\x00\x32\x64")
    img = read_pgm(p)
    assert img.pixels is img.pixels and np.array_equal(img.pixels, [[0.0, 0.5, 1.0]])


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
        stages=[WeakRegressor(A=rng.normal(size=(6, 3)), b=rng.normal(size=6)) for _ in range(2)],
        scale=ParamScale(rng.normal(size=6), [1.5, 2.0, 1.0, 0.5, 3.0, 1.25]), feature_dim=3)
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
    ("reg.mfr", lambda d: d.replace(b"pdim 6", b"pdim -6"), "pdim: negative count -6"),
    ("reg.mfr", lambda d: d.replace(b"\nb:\n", b"\nb:\n\xff", 1),
     "b: line 17: non-ASCII byte 0xff"),
    ("reg.mfr", lambda d: d[:d.index(b"A:") + 10], "A: unexpected end of file"),
    ("reg.mfr", lambda d: d + b"extra\n", "end: trailing data from 'extra'"),
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
