import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphfit import CameraConfig, GrayImage, ShapeModel, make_procedural_model, read_pgm, \
    write_pgm
from morphfit import synth
from morphfit.camera import project_points, to_camera
from morphfit import noise
from morphfit.noise import fbm3, noise_image
from morphfit.synth import BACKGROUND_SCALE, ProtocolConfig, RenderError, generate_set, \
    load_dataset, render, write_dataset

SMALL_PC = dict(range_deg=20.0, step_train=20.0, step_test=10.0, backgrounds=2,
                width=160, height=120, focal=500.0)


def test_render_deterministic(small_model, small_cam):
    theta = np.array([5.0, -10.0, 2.0, 1.0, -1.0, -1200.0])
    a = render(small_model, theta, small_cam, 1, 2)
    b = render(small_model, theta, small_cam, 1, 2)
    assert np.array_equal(a.pixels, b.pixels)


def test_render_foreground_present_and_inside(small_model, small_cam):
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    img = render(small_model, theta, small_cam, 1, 2)
    # pixels still equal to the untouched background are not foreground
    bg = noise_image(small_cam.width, small_cam.height, BACKGROUND_SCALE, 2)
    bg = np.rint(np.clip(0.1 + 0.8 * bg, 0.0, 1.0) * 255.0) / 255.0
    fg = img.pixels != bg
    assert fg.sum() > 300
    rows, cols = np.nonzero(fg)
    assert 0 < rows.min() and rows.max() < small_cam.height - 1
    assert 0 < cols.min() and cols.max() < small_cam.width - 1


def test_render_quantized_to_8bit(small_render):
    scaled = small_render.pixels * 255.0
    np.testing.assert_allclose(scaled, np.rint(scaled), atol=1e-9)


def test_rendered_image_pgm_lossless(small_render, tmp_path):
    path = tmp_path / "r.pgm"
    write_pgm(small_render, path)
    back = read_pgm(path)
    np.testing.assert_allclose(back.pixels, small_render.pixels, atol=1e-12)


def overlap_model(z_near, z_far):
    # two stacked triangles covering the image center
    mean = np.array([
        [-60.0, -60.0, z_far], [60.0, -60.0, z_far], [0.0, 70.0, z_far],
        [-60.0, -55.0, z_near], [60.0, -55.0, z_near], [0.0, 75.0, z_near],
    ]).reshape(-1)
    basis = np.zeros((18, 1))
    basis[0, 0] = 1.0
    return ShapeModel(mean=mean, basis=basis, sigmas=[1.0],
                      landmark_ids=[0, 1, 2, 3],
                      triangles=[[0, 1, 2], [3, 4, 5]])


def test_zbuffer_keeps_nearer_triangle(small_cam):
    # camera looks down -z from the model at tz=-1200: larger model z is nearer
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    both = render(overlap_model(z_near=40.0, z_far=0.0), theta, small_cam, 3, 4)

    near_only = ShapeModel(mean=overlap_model(40.0, 0.0).mean,
                           basis=overlap_model(40.0, 0.0).basis, sigmas=[1.0],
                           landmark_ids=[0], triangles=[[3, 4, 5]])
    far_only = ShapeModel(mean=overlap_model(40.0, 0.0).mean,
                          basis=overlap_model(40.0, 0.0).basis, sigmas=[1.0],
                          landmark_ids=[0], triangles=[[0, 1, 2]])
    near_img = render(near_only, theta, small_cam, 3, 4)
    far_img = render(far_only, theta, small_cam, 3, 4)
    cy, cx = small_cam.height // 2, small_cam.width // 2
    assert both.pixels[cy, cx] == near_img.pixels[cy, cx]
    assert near_img.pixels[cy, cx] != far_img.pixels[cy, cx]


def test_render_requires_triangles_and_visibility(small_model, small_cam):
    no_tris = ShapeModel(mean=small_model.mean,
                         basis=small_model.basis, sigmas=small_model.sigmas,
                         landmark_ids=small_model.landmark_ids)
    with pytest.raises(ValueError):
        render(no_tris, np.array([0, 0, 0, 0, 0, -1200.0]), small_cam, 1, 1)
    with pytest.raises(RenderError):
        render(small_model, np.array([0, 0, 0, 1e6, 0, -1200.0]), small_cam, 1, 1)


def test_render_rejects_malformed_theta(small_model, small_cam):
    # 3 modes: 10 entries is one shape coefficient too many
    with pytest.raises(ValueError, match="theta has 10 entries; the model takes 6..9"):
        render(small_model, np.array([0, 0, 0, 0, 0, -1200.0, 0, 0, 0, 1.0]), small_cam, 1, 1)
    with pytest.raises(ValueError, match="theta has a non-finite entry"):
        render(small_model, np.array([0, 0, 0, 0, 0, -1200.0, np.nan]), small_cam, 1, 1)


def test_subseed_ignores_trailing_zero_parts():
    # SeedSequence pads its entropy with zeros, so a new stream's tag must differ
    # from every tag in use in a nonzero part
    assert synth.subseed(7, 5) == synth.subseed(7, 5, 0) != synth.subseed(7, 5, 1)


def test_seed_tags_never_alias():
    # each stream family's tags: one of SEED_TAGS, or a set mode's tag and a stream
    # tag; an index may follow. With trailing zeros stripped, no family's tags may
    # be a prefix of another's, or an index could make their streams one.
    families = [(tag,) for tag in synth.SEED_TAGS.values()] + \
        [(mode, stream) for mode in synth.MODE_TAGS.values()
         for stream in synth.SET_STREAM_TAGS.values()]
    assert all(type(tag) is int and tag != 0 for tags in families for tag in tags)
    stripped = []
    for tags in families:
        while tags and tags[-1] == 0:
            tags = tags[:-1]
        stripped.append(tags)
    for i, a in enumerate(stripped):
        for j, b in enumerate(stripped):
            assert i == j or b[:len(a)] != a, (a, b)


def test_generate_counts_and_init_contract(small_model):
    pc = ProtocolConfig(seed=5, **SMALL_PC)
    train = generate_set(small_model, pc, "train")
    # 3x3 grid x 2 backgrounds
    assert len(train) == 18
    test = generate_set(small_model, pc, "test")
    assert len(test) == 25  # 5x5 grid, one background
    train_d = np.stack([s.theta_init - s.theta_gt for s in train])
    test_d = np.stack([s.theta_init - s.theta_gt for s in test])
    # training inits spread over twice the interval that test inits keep to
    assert np.all(np.abs(train_d[:, :3]) <= 2.0 * synth.INIT_OFFSET)
    assert np.any(np.abs(train_d[:, :3]) > synth.INIT_OFFSET)
    assert np.all(np.abs(test_d[:, :3]) <= synth.INIT_OFFSET)
    assert np.all(train_d[:, 3:] == 0.0) and np.all(test_d[:, 3:] == 0.0)
    for s in train + test:
        assert s.theta_gt[2] == 0.0  # roll fixed at zero in ground truth
        assert s.theta_gt[5] == pc.tz
    ids = [s.id for s in train]
    assert len(set(ids)) == len(ids)


def test_generate_shape_mode_draws(small_model):
    pc = ProtocolConfig(seed=5, n_shape=2, **SMALL_PC)
    train = generate_set(small_model, pc, "train")
    alphas = np.stack([s.theta_gt[6:] for s in train])
    assert alphas.shape == (18, 2)
    assert len(np.unique(alphas[:, 0])) == 18  # fresh identity per sample
    for s in train:
        assert np.all(s.theta_init[6:] == 0.0)


def test_generate_deterministic_and_jobs_invariant(small_model):
    pc = ProtocolConfig(seed=6, **SMALL_PC)
    a = generate_set(small_model, pc, "train")
    b = generate_set(small_model, pc, "train")
    c = generate_set(small_model, pc, "train", jobs=3)
    for x, y in zip(a, b):
        assert x.id == y.id
        assert np.array_equal(x.image.pixels, y.image.pixels)
        assert np.array_equal(x.theta_gt, y.theta_gt)
    for x, y in zip(a, c):
        assert np.array_equal(x.image.pixels, y.image.pixels)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1, got %d" % jobs):
            generate_set(small_model, pc, "train", jobs=jobs)


@pytest.mark.parametrize("n_shape, faces", [(0, 9), (2, 18)])
def test_generate_shades_each_ground_truth_once(small_model, monkeypatch, n_shape, faces):
    # without shape draws a pose's 2 backgrounds share one face pass; with
    # them every sample has its own identity and so its own face
    face_pass, calls = synth._render_face, []

    def counted(*args):
        calls.append(args)
        return face_pass(*args)

    monkeypatch.setattr(synth, "_render_face", counted)
    pc = ProtocolConfig(seed=5, n_shape=n_shape, **SMALL_PC)
    train = generate_set(small_model, pc, "train")
    assert len(calls) == faces
    assert len({s.theta_gt.tobytes() for s in train}) == faces
    # a shared face leaves every sample as render draws it alone
    for i, s in enumerate(train):
        want = render(small_model, s.theta_gt, pc.camera(), synth.subseed(pc.seed, 5),
                      synth.subseed(pc.seed, 1, 20, i))
        assert np.array_equal(s.image.pixels, want.pixels)


@pytest.mark.parametrize("jobs", [1, 3])
def test_generate_names_first_sample_outside_view(small_model, jobs):
    # at tz = +1200 every pose puts the face behind the camera
    pc = ProtocolConfig(seed=5, tz=1200.0, **SMALL_PC)
    with pytest.raises(RenderError, match="^sample train_p-20_y-20_b0: face entirely outside "
                                          "the view frustum$"):
        generate_set(small_model, pc, "train", jobs=jobs)


# SHA-256 of a tiny seeded train + test set (ids, 8-bit pixels, theta_gt,
# theta_init). Renderer and set-generation changes must keep it; a change
# that moves it on purpose names the new value and the reason.
GOLDEN_SET_SHA256 = "32ef05be8b33b84b302f7e5908ddd78d2f4be488a167b8ffd74e2427a9cf7434"
# The same digest of a train set without shape coefficients: every pose's
# backgrounds share one ground truth and so one face, which the n_shape = 1
# set above never does.
GOLDEN_SHARED_FACE_SHA256 = "930373d5e47b42457355449f3e99c5dc4187e93ef7f8a2830415ff274144a0c7"


def set_digest(model, pc, modes):
    h = hashlib.sha256()
    for mode in modes:
        for s in generate_set(model, pc, mode):
            h.update(s.id.encode())
            h.update(np.rint(s.image.pixels * 255.0).astype(np.uint8).tobytes())
            h.update(s.theta_gt.astype("<f8").tobytes())
            h.update(s.theta_init.astype("<f8").tobytes())
    return h.hexdigest()


def test_seeded_sets_match_golden_digest(small_model):
    pc = ProtocolConfig(seed=9, n_shape=1, **SMALL_PC)
    assert set_digest(small_model, pc, ("train", "test")) == GOLDEN_SET_SHA256


def test_shared_face_set_matches_golden_digest(small_model):
    pc = ProtocolConfig(seed=9, **dict(SMALL_PC, backgrounds=3))
    assert set_digest(small_model, pc, ("train",)) == GOLDEN_SHARED_FACE_SHA256


@pytest.fixture(scope="module")
def standard_model():
    return make_procedural_model(42, 500, 10)


STANDARD_CAM = CameraConfig(focal=1500.0, width=640, height=480)
# Frontal; tilted with roll; pushed across the left image edge; close range,
# clipped at the top and bottom edges.
GOLDEN_RENDER_POSES = [
    [0.0, 0.0, 0.0, 0.0, 0.0, -1200.0],
    [20.0, -20.0, 8.0, 0.0, 0.0, -1200.0],
    [-20.0, 20.0, -8.0, -230.0, 0.0, -1200.0],
    [5.0, 10.0, 0.0, 0.0, 0.0, -600.0],
]
# SHA-256 of the 8-bit pixels of the poses above with the standard model at
# 640x480. Unlike the golden set digest, this pins the full mesh's
# shared-edge depth ties and the clipping at the image border.
GOLDEN_RENDER_SHA256 = "33a6e80feddde542df6ec826981d1fbfe8c46717399f2371a16eb7c7308bc5ee"


def test_standard_renders_match_golden_digest(standard_model):
    h = hashlib.sha256()
    for theta in GOLDEN_RENDER_POSES:
        img = render(standard_model, np.array(theta), STANDARD_CAM, 11, 12)
        h.update(np.rint(img.pixels * 255.0).astype(np.uint8).tobytes())
    assert h.hexdigest() == GOLDEN_RENDER_SHA256


def test_render_levels_need_no_clip(standard_model):
    # the background pass clips nothing: background values lie in [0.1, 0.9)
    # and face values in [0.1225, 0.95), so every level lies between rint(255 * 0.1)
    # and rint(255 * 0.95), close range included
    for theta in GOLDEN_RENDER_POSES + [[0.0, 0.0, 0.0, 0.0, 0.0, -400.0]]:
        levels = render(standard_model, np.array(theta), STANDARD_CAM, 11, 12).levels
        assert 26 <= levels.min() and levels.max() <= 242


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_close_range_render_memory_is_bounded(standard_model):
    # at tz = -400 triangle boxes cover much of the frame; the geometry pass
    # must not hold every candidate pixel of every triangle at once, nor the
    # texture pass every covered pixel's noise temporaries
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -400.0])
    peak = traced_peak(lambda: render(standard_model, theta, STANDARD_CAM, 11, 12))
    # the per-triangle loop peaked at 83.3 MiB here, mostly in the shading
    # pass; the unblocked texture pass over a frame-sized z-buffer at 69.1 MiB
    assert peak <= 48 * 1024 * 1024


def test_face_pass_memory_is_bounded(standard_model):
    # a frontal face covers ~41 k pixels; a frame-sized z-buffer and texture
    # temporaries over every covered pixel at once peaked at 10.8 MiB
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    peak = traced_peak(lambda: synth._render_face(standard_model, theta, STANDARD_CAM, 11))
    assert peak <= 8 * 1024 * 1024


@pytest.mark.parametrize("block", [1, 97, synth.FACE_BLOCK])
def test_face_pass_blocks_match_one_block(block, standard_model, monkeypatch):
    # bit for bit: the same pixels and values whether the texture and shading
    # run over one covered pixel at a time or over all of them at once. A
    # one-pixel block costs ~0.6 ms, so that case renders the centre 48 x 36
    # of the standard view.
    cam = STANDARD_CAM if block > 1 else CameraConfig(focal=STANDARD_CAM.focal, width=48,
                                                       height=36)
    for theta in ([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0], [0.0, 0.0, 10.0, 0.0, 0.0, -400.0]):
        monkeypatch.setattr(synth, "FACE_BLOCK", 1 << 30)
        want = synth._render_face(standard_model, np.array(theta), cam, 11)
        monkeypatch.setattr(synth, "FACE_BLOCK", block)
        got = synth._render_face(standard_model, np.array(theta), cam, 11)
        assert want[0].size > block
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def loop_rasterize(uv, visible, depth, tris, w, h):
    """Reference geometry pass: one triangle at a time in index order, a
    strict `<` depth test, so the first of equally near triangles wins."""
    u, v = uv[:, 0], uv[:, 1]
    zbuf = np.full((h, w), np.inf)
    owner = np.full((h, w), -1, dtype=np.int64)
    bary = np.zeros((h, w, 3))
    for t_idx, tri in enumerate(tris):
        if not visible[tri].all():
            continue
        xs, ys = u[tri], v[tri]
        x_lo, x_hi = max(0, int(np.ceil(xs.min()))), min(w - 1, int(np.floor(xs.max())))
        y_lo, y_hi = max(0, int(np.ceil(ys.min()))), min(h - 1, int(np.floor(ys.max())))
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
        rows, cols = np.nonzero(hit)
        rows, cols = rows + y_lo, cols + x_lo
        zbuf[rows, cols] = z[hit]
        owner[rows, cols] = t_idx
        bary[rows, cols] = np.stack([l0[hit], l1[hit], l2[hit]], axis=1)
    rows, cols = np.nonzero(owner >= 0)
    return rows, cols, owner[rows, cols], bary[rows, cols]


def tie_mesh(rng, w, h):
    # integer vertices on two depth levels: many pixels sit exactly on shared
    # edges, duplicated triangles tie exactly, rotated copies nearly; some
    # vertices fall outside the frame or behind the camera
    n = 60
    uv = np.stack([rng.integers(-8, w + 8, n), rng.integers(-8, h + 8, n)], axis=1).astype(float)
    depth = rng.choice([500.0, 600.0], n)
    visible = rng.random(n) > 0.05
    tris = rng.integers(0, n, (150, 3))
    tris = np.concatenate([tris, tris, np.roll(tris, 1, axis=1), tris[:, ::-1]])
    return uv, visible, depth, tris[rng.permutation(len(tris))]


@pytest.mark.parametrize("batch", [1, 97, synth.RASTER_BATCH])
def test_rasterize_matches_per_triangle_loop(batch, standard_model, monkeypatch):
    # bit for bit: same pixels, same winning triangle, same barycentrics,
    # whether each triangle is a batch or many triangles share one
    monkeypatch.setattr(synth, "RASTER_BATCH", batch)
    rng = np.random.default_rng(23)
    cases = [tie_mesh(rng, 48, 36) + (48, 36) for _ in range(4)]
    verts = standard_model.mean.reshape(-1, 3)
    for theta in GOLDEN_RENDER_POSES[1:] + [[0.0, 0.0, 0.0, 0.0, 0.0, -400.0]]:
        uv, visible = project_points(verts, theta, STANDARD_CAM)
        depth = -to_camera(verts, theta)[:, 2]
        cases.append((uv, visible, depth, standard_model.triangles, 640, 480))
    for case in cases:
        got, want = synth._rasterize(*case), loop_rasterize(*case)
        assert want[0].size > 0
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_loop(uv, visible, depth, tris, w, h):
    got, want = synth._rasterize(uv, visible, depth, tris, w, h), \
        loop_rasterize(uv, visible, depth, tris, w, h)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return want[0].size


# pixel coordinates on integers and half-integers, a few ulps or a hair off
# them, and far off the frame: edges exactly or nearly horizontal or
# vertical, pixels exactly on edges and boxes clipped
NEAR_OFFSETS = [2.0 ** -40, -2.0 ** -40, 1e-13, -1e-13, 2.0 ** -46, -2.0 ** -46]
FAR = [-1e6, 1e6, -1e6 + 0.5, 1e6 - 0.5]


def snapped_mesh(rng, w, h):
    n = 40

    def coords(limit):
        c = rng.integers(-3, limit + 4, n) + rng.choice([0.0, 0.5], n)
        c += rng.choice([0.0, 0.0] + NEAR_OFFSETS, n)
        for _ in range(3):
            c = np.where(rng.random(n) < 0.3, np.nextafter(c, rng.choice([-1e9, 1e9], n)), c)
        return np.where(rng.random(n) < 0.1, rng.choice(FAR, n), c)

    uv = np.stack([coords(w), coords(h)], axis=1)
    tris = rng.integers(0, n, (120, 3))
    return uv, np.ones(n, bool), rng.choice([500.0, 600.0], n), tris, w, h


def rotated_mesh(rng, w, h, triangles):
    # each triangle wound front-facing and in all three rotations, so each of
    # its edges is edge 2 once
    uv, tris = [], []
    for v in triangles:
        (x0, y0), (x1, y1), (x2, y2) = v
        if (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2) > 0:
            v = [v[1], v[0], v[2]]
        tris += [[len(uv) + i, len(uv) + (i + 1) % 3, len(uv) + (i + 2) % 3] for i in range(3)]
        uv += list(v)
    n = len(uv)
    return np.array(uv), np.ones(n, bool), rng.uniform(500.0, 600.0, n), np.array(tris), w, h


def sliver_mesh(rng, w, h):
    # slivers along lines through pixel centres, of twice-signed area near the
    # -1e-12 cut-off
    slivers = []
    while len(slivers) < 30:
        p, d = rng.integers(0, (w, h)).astype(float), rng.integers(-3, 4, 2).astype(float)
        if d.any():
            k = int(rng.integers(2, 5))
            # v2 off the midpoint by e along the normal: twice the area is k * e
            e = rng.uniform(0.6e-12, 1.6e-12) / k
            slivers.append([p, p + k * d, p + k * d / 2 + e * np.array([-d[1], d[0]]) / (d @ d)])
    return rotated_mesh(rng, w, h, slivers)


def flat_edge_mesh(rng, w, h):
    # one edge a hair off horizontal, its ends within 1e-12 px of one pixel
    # row: l2 = 1 - l0 - l1 rounds at about 1e-16, which there moves that
    # edge along the row by many pixels
    flat = []
    for _ in range(40):
        row = float(rng.integers(1, h - 1))
        ends = row + rng.choice([0.0, 1.0, -1.0], 2) * rng.choice([2.0 ** -50, 2.0 ** -46, 1e-13,
                                                                    1e-12], 2)
        flat.append([(rng.uniform(-10, w + 10), ends[0]), (rng.uniform(-10, w + 10), ends[1]),
                     (rng.uniform(0, w), row + rng.choice([-1, 1]) * rng.uniform(0.5, h))])
    return rotated_mesh(rng, w, h, flat)


@pytest.mark.parametrize("batch", [1, 97, synth.RASTER_BATCH])
def test_rasterize_edge_cases_match_per_triangle_loop(batch, monkeypatch):
    monkeypatch.setattr(synth, "RASTER_BATCH", batch)
    rng = np.random.default_rng(31)
    for make in (sliver_mesh, flat_edge_mesh, snapped_mesh):
        for _ in range(4):
            assert assert_matches_loop(*make(rng, 40, 30)) > 0


COORD = st.one_of(st.integers(-3, 12).map(float), st.integers(-6, 24).map(lambda k: k / 2),
                  st.tuples(st.integers(-3, 12), st.sampled_from(NEAR_OFFSETS)).map(sum),
                  st.floats(-3.0, 12.0, allow_subnormal=False), st.sampled_from(FAR))


@settings(max_examples=300, deadline=None)
@given(w=st.integers(1, 10), h=st.integers(1, 10),
       verts=st.lists(st.tuples(COORD, COORD, st.sampled_from([500.0, 600.0, 550.5])),
                      min_size=3, max_size=7),
       corners=st.lists(st.integers(0, 6), min_size=3, max_size=24),
       batch=st.sampled_from([1, 7, synth.RASTER_BATCH]))
def test_rasterize_matches_per_triangle_loop_on_small_frames(w, h, verts, corners, batch):
    verts = np.array(verts)
    tris = np.array(corners[:len(corners) // 3 * 3]).reshape(-1, 3) % len(verts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "RASTER_BATCH", batch)
        assert_matches_loop(verts[:, :2], np.ones(len(verts), bool), verts[:, 2], tris, w, h)


def test_train_and_test_share_surface_texture(small_model, monkeypatch):
    # same pose rendered in train and test mode differs only by background
    monkeypatch.setattr(synth, "TRANS_SIGMA", 0.0)
    pc = ProtocolConfig(seed=7, **SMALL_PC)
    train = generate_set(small_model, pc, "train")
    test = generate_set(small_model, pc, "test")
    t0 = [s for s in train if s.id == "train_p+0_y+0_b0"][0]
    s0 = [s for s in test if s.id == "test_p+0_y+0_b0"][0]
    same = t0.image.pixels == s0.image.pixels
    assert same.any() and not same.all()  # foreground shared, background fresh


def test_dataset_round_trip(tmp_path, small_model):
    # protocol.txt's seed is read as a Python int, which holds any size, not as a C long;
    # float fields given as ints print as the floats they are read back as
    pc = ProtocolConfig(seed=10 ** 20, n_shape=1, **{**SMALL_PC, "range_deg": 20, "focal": 500})
    samples = generate_set(small_model, pc, "train")
    out = tmp_path / "ds"
    write_dataset(out, samples, pc)
    assert (out / "protocol.txt").read_text().startswith("MFP 1\nrange_deg 20\n")
    back, pc2 = load_dataset(out)
    assert pc2 == pc
    write_dataset(tmp_path / "again", back, pc2)
    assert (tmp_path / "again" / "protocol.txt").read_bytes() == \
        (out / "protocol.txt").read_bytes()
    by_id = {s.id: s for s in samples}
    assert len(back) == len(samples)
    for s in back:
        orig = by_id[s.id]
        assert np.array_equal(s.theta_gt, orig.theta_gt)
        assert np.array_equal(s.theta_init, orig.theta_init)
        np.testing.assert_allclose(s.image.pixels, orig.image.pixels, atol=1e-12)


def test_generated_and_loaded_sets_hold_one_byte_per_pixel(tmp_path, small_model):
    # tracemalloc sees numpy's data buffers; what a call still holds when it
    # returns is its images' 8-bit levels and a few kB of samples and labels
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    out = tmp_path / "ds"
    write_dataset(out, generate_set(small_model, pc, "train"), pc)  # warms every cache
    load_dataset(out)
    for make in (lambda: generate_set(small_model, pc, "train"), lambda: load_dataset(out)[0]):
        tracemalloc.start()
        try:
            samples = make()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= len(samples) * pc.width * pc.height + 64 * 1024
        del samples


def test_dataset_readers_name_file_and_problem(tmp_path, small_model):
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    out = tmp_path / "ds"
    write_dataset(out, generate_set(small_model, pc, "train")[:2], pc)
    labels = (out / "labels.csv").read_text()
    protocol = (out / "protocol.txt").read_text()

    (out / "labels.csv").write_text("")
    with pytest.raises(ValueError, match="labels.csv.*empty"):
        load_dataset(out)
    (out / "labels.csv").write_text(labels.replace(",-1200", "", 1))
    with pytest.raises(ValueError, match="labels.csv: line 2 has 6 fields"):
        load_dataset(out)
    # errors name the file line, blank lines counted
    head, first, second = labels.splitlines()
    (out / "labels.csv").write_text("\n".join([head, "", first, second.replace(",", ",x", 1)]))
    with pytest.raises(ValueError, match="labels.csv: line 4: could not convert string to float"):
        load_dataset(out)
    (out / "labels.csv").write_bytes(labels.encode().replace(b"\n", b"\n\xff", 1))
    with pytest.raises(ValueError, match="labels.csv: line 2: non-ASCII byte 0xff"):
        load_dataset(out)
    (out / "labels.csv").write_text(labels)

    inits = (out / "inits.csv").read_text()
    rx = inits.splitlines()[1].split(",")[1]
    (out / "inits.csv").write_text(inits.replace("," + rx + ",", ",nan,", 1))
    with pytest.raises(ValueError, match="inits.csv: line 2: non-finite"):
        load_dataset(out)
    (out / "inits.csv").write_text(inits)

    # a repeated id, an extra column, and shape columns that protocol.txt's
    # n_shape 0 does not have
    (out / "labels.csv").write_text(labels + labels.splitlines()[1] + "\n")
    with pytest.raises(ValueError, match="labels.csv: line 4: duplicate id"):
        load_dataset(out)
    (out / "labels.csv").write_text(labels.replace("\n", ",0\n").replace("tz,0", "tz,extra", 1))
    with pytest.raises(ValueError, match="labels.csv: header 'id,rx,ry,rz,tx,ty,tz,extra'"):
        load_dataset(out)
    for name, text in (("labels.csv", labels), ("inits.csv", inits)):
        (out / name).write_text(text.replace("\n", ",0.5\n").replace("tz,0.5", "tz,a0", 1))
    with pytest.raises(ValueError, match="labels.csv: header .*, expected 'id,rx,ry,rz,tx,ty,tz'"):
        load_dataset(out)
    (out / "labels.csv").write_text(labels)
    with pytest.raises(ValueError, match="inits.csv: header"):
        load_dataset(out)
    (out / "inits.csv").write_text(inits)

    (out / "protocol.txt").write_bytes(protocol.encode().replace(b"focal 5", b"focal \xff5"))
    with pytest.raises(ValueError, match="protocol.txt: focal: line 6: non-ASCII byte 0xff"):
        load_dataset(out)
    (out / "protocol.txt").write_text(protocol.replace("focal ", "focus ", 1))
    with pytest.raises(ValueError, match="protocol.txt: focal: expected 'focal', found 'focus'"):
        load_dataset(out)
    (out / "protocol.txt").write_text(protocol.replace("width 160", "width many", 1))
    with pytest.raises(ValueError, match="protocol.txt: width: invalid literal .* 'many'"):
        load_dataset(out)
    (out / "protocol.txt").write_text(protocol + "seed\n")
    with pytest.raises(ValueError, match="protocol.txt: end: trailing data from 'seed'"):
        load_dataset(out)
    for name in ("tz", "focal", "range_deg"):
        edited = "".join(name + " nan\n" if ln.split()[0] == name else ln + "\n"
                         for ln in protocol.splitlines())
        (out / "protocol.txt").write_text(edited)
        with pytest.raises(ValueError,
                           match="protocol.txt: protocol: field '%s' is not finite" % name):
            load_dataset(out)
    for old, new in (("range_deg 20", "range_deg -20"), ("width 160", "width 0")):
        (out / "protocol.txt").write_text(protocol.replace(old, new, 1))
        with pytest.raises(ValueError,
                           match="protocol.txt: protocol: field '%s' is below" % old.split()[0]):
            load_dataset(out)
    (out / "protocol.txt").write_text(protocol.replace("focal 500", "focal 0", 1))
    with pytest.raises(ValueError, match="protocol.txt: protocol: focal must be finite"):
        load_dataset(out)
    # the fields come in the order write_dataset writes them, under the MFP 1 header
    (out / "protocol.txt").write_text(protocol.replace("width 160\nheight 120",
                                                       "height 120\nwidth 160", 1))
    with pytest.raises(ValueError, match="protocol.txt: width: expected 'width', found 'height'"):
        load_dataset(out)
    (out / "protocol.txt").write_text(protocol.replace("MFP 1\n", "", 1))
    with pytest.raises(ValueError, match="protocol.txt: header: not a MFP1 file"):
        load_dataset(out)


def test_load_dataset_rejects_an_image_of_another_size(tmp_path, small_model):
    # train and eval place every window with the protocol's camera, so an
    # image of another size would be read at the wrong pixels
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    samples = generate_set(small_model, pc, "test")[:2]
    write_dataset(tmp_path, samples, pc)
    small = GrayImage(samples[1].image.pixels[:10, :12])
    write_pgm(small, tmp_path / "images" / (samples[1].id + ".pgm"))
    with pytest.raises(ValueError, match="images/%s.pgm is 12x10, protocol.txt says 160x120"
                       % samples[1].id):
        load_dataset(tmp_path)


@pytest.mark.parametrize("bad_id, plant", [
    ("", True), (".", True), ("..", True), ("../images/test_p-20_y-10_b0", False),
    ("sub/x", True), ("test_p-20_y-10_b", False),
], ids=["empty", "dot", "dotdot", "parent", "separator", "missing-image"])
def test_load_dataset_rejects_ids_that_name_no_image(tmp_path, small_model, bad_id, plant):
    # an id names images/<id>.pgm, so it must be a plain file name with an image there
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    samples = generate_set(small_model, pc, "test")[:2]
    assert samples[1].id == "test_p-20_y-10_b0"
    write_dataset(tmp_path, samples, pc)
    for name in ("labels.csv", "inits.csv"):
        text = (tmp_path / name).read_text()
        (tmp_path / name).write_text(text.replace("\ntest_p-20_y-10_b0,", "\n%s," % bad_id))
    if plant:  # an image where the id points, so that only the id's form is at fault
        target = tmp_path / "images" / (bad_id + ".pgm")
        target.parent.mkdir(exist_ok=True)
        target.write_bytes((tmp_path / "images" / "test_p-20_y-10_b0.pgm").read_bytes())
    with pytest.raises(ValueError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == "%s: images/%s.pgm: no image for id %r" % (tmp_path, bad_id, bad_id)


@pytest.mark.parametrize("bad_id", [
    "", ".", "..", "../escaped", "../../escaped", "sub/x", "sub\\x", "a,b", "a\nb", "a\rb",
    "caf\xe9", "a\tb", " x", "x ", "repeated"])
def test_write_dataset_rejects_ids_it_cannot_read_back(tmp_path, small_model, bad_id):
    # written, ../escaped would land outside images/ and a,b would split its CSV
    # rows into 8 fields under a 7-field header; each is refused before anything is made
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    samples = generate_set(small_model, pc, "test")[:2]
    sid = samples[0].id if bad_id == "repeated" else bad_id
    samples[1] = dataclasses.replace(samples[1], id=sid)
    out = tmp_path / "set"
    with pytest.raises(ValueError) as exc:
        write_dataset(out, samples, pc)
    assert str(exc.value) == "%s: sample id %r is repeated or not a plain ASCII file name" \
        % (out, sid)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("case, message", [
    ("size", "image is 12x10, the protocol says 160x120"),
    ("layout", "theta has 7 entries; the protocol takes 6"),
    ("nan-label", "theta has a non-finite entry"),
    ("inf-init", "theta has a non-finite entry"),
], ids=["size", "layout", "nan-label", "inf-init"])
def test_write_dataset_rejects_samples_load_dataset_refuses(tmp_path, small_model, case,
                                                             message):
    # load_dataset refuses an image of another size, a row of the wrong field
    # count and a nan or inf field, so write_dataset writes none of them
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    samples = generate_set(small_model, pc, "test")[:2]
    s = samples[1]
    if case == "size":
        s = dataclasses.replace(s, image=GrayImage(s.image.levels[:10, :12]))
    elif case == "layout":
        s = dataclasses.replace(s, theta_gt=[*s.theta_gt, 0.0], theta_init=[*s.theta_init, 0.0])
    elif case == "nan-label":
        s.theta_gt[3] = np.nan
    else:
        s.theta_init[0] = np.inf
    samples[1] = s
    out = tmp_path / "set"
    with pytest.raises(ValueError) as exc:
        write_dataset(out, samples, pc)
    assert str(exc.value) == "%s: sample %r: %s" % (out, s.id, message)
    assert os.listdir(tmp_path) == []


def test_plain_ids_round_trip(tmp_path, small_model):
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    ids = ["a b", "x.y", "p+1_y-2", "..a"]
    samples = [dataclasses.replace(s, id=sid)
               for s, sid in zip(generate_set(small_model, pc, "test"), ids)]
    write_dataset(tmp_path, samples, pc)
    assert [s.id for s in load_dataset(tmp_path)[0]] == sorted(ids)


@pytest.fixture(scope="module")
def written_set(tmp_path_factory, small_model):
    """A small dataset on disk and the bytes of its three text files."""
    pc = ProtocolConfig(seed=8, n_shape=1, **SMALL_PC)
    out = tmp_path_factory.mktemp("fuzzset")
    write_dataset(out, generate_set(small_model, pc, "test")[:3], pc)
    return out, {name: (out / name).read_bytes()
                 for name in ("labels.csv", "inits.csv", "protocol.txt")}


# whatever the damage to a text file, the only outcome besides a valid load
# is a ValueError naming the dataset
@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["labels.csv", "inits.csv", "protocol.txt"]),
       cut=st.integers(0, 2 ** 16),
       edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)), max_size=4))
def test_dataset_truncated_or_corrupt_raises_only_value_error(written_set, name, cut, edits):
    out, texts = written_set
    for n, data in texts.items():
        (out / n).write_bytes(data)
    data = bytearray(texts[name])
    for pos, byte in edits:
        data[pos % len(data)] = byte
    (out / name).write_bytes(bytes(data[:len(data) - cut % (len(data) + 1)]))
    try:
        load_dataset(out)
    except ValueError as e:
        assert str(out) in str(e)


def test_generate_rejects_more_shape_modes_than_the_model_has(small_model):
    pc = ProtocolConfig(seed=8, n_shape=small_model.num_modes + 1, **SMALL_PC)
    with pytest.raises(ValueError, match="the model takes 6..%d" % (6 + small_model.num_modes)):
        generate_set(small_model, pc, "test")


def test_load_protocol_rejects_duplicate_and_unknown_fields(tmp_path, small_model):
    pc = ProtocolConfig(seed=8, **SMALL_PC)
    write_dataset(str(tmp_path), generate_set(small_model, pc, "test")[:1], pc)
    protocol = (tmp_path / "protocol.txt").read_text()
    assert synth.load_protocol(str(tmp_path)) == pc
    # a repeated or unknown field after the last one is named as the first
    # token left unread
    for extra, problem in (("backgrounds 7\n", "end: trailing data from 'backgrounds'"),
                           ("bogus 3\n", "end: trailing data from 'bogus'"),
                           ("bogus 3\nbackgrounds 7\n", "end: trailing data from 'bogus'"),
                           ("zeta 1\nbogus 3\n", "end: trailing data from 'zeta'")):
        (tmp_path / "protocol.txt").write_text(protocol + extra)
        with pytest.raises(ValueError, match="protocol.txt: %s" % problem):
            synth.load_protocol(str(tmp_path))


def test_protocol_validation():
    # only the grid a set uses must divide the range
    with pytest.raises(ValueError, match="grid step 7 must divide range_deg 30"):
        ProtocolConfig(range_deg=30.0, step_train=7.0).grid("train")
    assert len(ProtocolConfig(range_deg=30.0, step_train=7.0).grid("test")) == 13
    for step in ("step_train", "step_test"):
        with pytest.raises(ValueError, match="grid step 0 must be positive"):
            ProtocolConfig(**{step: 0.0})
        with pytest.raises(ValueError, match="field '%s' is not finite" % step):
            ProtocolConfig(**{step: float("nan")})
    # a bound violation names the field; a negative range used to pass here and
    # fail later in grid(), a zero size only in camera()
    for field, bad in (("range_deg", -10.0), ("width", 0), ("height", 0), ("backgrounds", 0),
                       ("n_shape", -1), ("seed", -1)):
        with pytest.raises(ValueError, match="field '%s' is below" % field):
            ProtocolConfig(**{field: bad})
    # the camera's own rule, at construction, not first in camera()
    for focal in (0.0, -5.0):
        with pytest.raises(ValueError, match="focal must be finite and positive"):
            ProtocolConfig(focal=focal)


def test_background_noise_has_texture(small_cam):
    bg = noise_image(small_cam.width, small_cam.height, 18.0, 42)
    assert bg.std() > 0.05
    gx = np.abs(np.diff(bg, axis=1)).mean()
    assert gx > 1e-3  # descriptors on background see real gradients


# SHA-256 of the float64 bytes of the background raster and of the surface
# texture noise at the octave counts render uses; unlike the golden set
# digest these see every bit, not 8-bit 160x120 renders.
NOISE_SHA256 = {
    ("image", 0): "d6c4d5d4d9ffbce6ebab3cfa99f94898d8982f645a2bd334de86cff8646618cf",
    ("fbm1", 0): "955ec003ee60ec84171a082523b17b36abb5565377efc646c90ff40f51b5c424",
    ("fbm2", 0): "ced780c4ed4040771935ee12294f326118de8409cb667ac8a7be16a02d57c166",
    ("image", 2718): "c033f4beee6aca8758b9a4cad57b68a64ab387676e913abc5cc9243c54f59cbb",
    ("fbm1", 2718): "435dec4a7c88937e475d60725202ddc747b87b2437c989ac774f52e59fa8943f",
    ("fbm2", 2718): "bb7b26e669800f091f5f2df28c496a860f236811487274baf41ff75219323b40",
}


def test_noise_matches_golden_digests():
    pts = np.random.default_rng(3).uniform(-150.0, 150.0, size=(2000, 3))
    got = {}
    for s in (0, 2718):
        got["image", s] = noise_image(640, 480, BACKGROUND_SCALE, s)
        for k in (1, 2):
            got["fbm%d" % k, s] = fbm3(pts, 60.0, s, octaves=k)
    assert {key: hashlib.sha256(v.astype("<f8").tobytes()).hexdigest()
            for key, v in got.items()} == NOISE_SHA256
    with pytest.raises(ValueError, match="octaves must be at least 1, got 0"):
        fbm3(pts, 60.0, 0, octaves=0)


def test_value_noise3_does_not_depend_on_neighbouring_points():
    # value_noise3 hashes a cell's corners once per run of consecutive points
    # in that cell; runs of one point and of hundreds, points sorted into runs
    # or shuffled, must give every point the same value
    rng = np.random.default_rng(17)
    cells = rng.integers(-5, 5, size=(60, 3))
    counts = rng.choice([1, 1, 2, 40, 400], size=len(cells))
    pts = np.repeat(cells, counts, axis=0) + rng.random((counts.sum(), 3))
    perm = rng.permutation(len(pts))
    for seed in (0, 2718):
        runs = noise.value_noise3(pts, seed)
        assert np.array_equal(noise.value_noise3(pts[perm], seed), runs[perm])
        one_by_one = [noise.value_noise3(pts[i:i + 1], seed)[0] for i in range(0, len(pts), 97)]
        assert runs[::97].tolist() == one_by_one
    empty = noise.value_noise3(np.zeros((0, 3)), 1)
    assert empty.dtype == np.float64 and empty.shape == (0,)


def _lowbias32_chain(ix, iy, iz, seed):
    """The lattice hash in Python ints, masked to 32 bits after every step."""
    def mix(h):
        h ^= h >> 16
        h = h * 0x7FEB352D & 0xFFFFFFFF
        h ^= h >> 15
        h = h * 0x846CA68B & 0xFFFFFFFF
        return h ^ h >> 16
    h = seed & 0xFFFFFFFF
    for i, k in ((ix, 0x9E3779B1), (iy, 0x85EBCA77), (iz, 0xC2B2AE3D)):
        h = mix(h ^ (i & 0xFFFFFFFF) * k & 0xFFFFFFFF)
    return h / 4294967296.0


def test_lattice_hash_matches_scalar_reference():
    # negative coordinates and magnitudes past 2**31 and 2**32, where the
    # 32-bit wrap of the coordinates and products matters
    coords = [0, 1, -1, 7, -150, 2 ** 31 - 1, 2 ** 31, -2 ** 31, -2 ** 31 - 1, 2 ** 32 - 1,
              2 ** 32, 2 ** 32 + 5, -2 ** 32 - 3, 3 * 2 ** 40 + 17, -(2 ** 45) + 9]
    rng = np.random.default_rng(11)
    ijk = rng.choice(coords, size=(400, 3))
    for seed in (0, 2718, 2 ** 32 + 99):
        want = [_lowbias32_chain(*map(int, row), seed) for row in ijk]
        assert noise._lattice_hash(ijk[:, 0], ijk[:, 1], ijk[:, 2], seed).tolist() == want
        # at a lattice point value_noise3 is that corner's hash, whose weight is 1
        assert noise.value_noise3(ijk.astype(np.float64), seed).tolist() == want
    # between lattice points every corner counts; the smoothstep weights are
    # 0.5 at cell centres, exact in binary
    centre = ijk[:50].astype(np.float64) + 0.5
    want = [sum(_lowbias32_chain(int(x) + dx, int(y) + dy, int(z) + dz, 5) * 0.5 * 0.5 * 0.5
                for dx in (0, 1) for dy in (0, 1) for dz in (0, 1))
            for x, y, z in ijk[:50]]
    assert noise.value_noise3(centre, 5).tolist() == want
