import hashlib

import numpy as np
import pytest

from morphfit import ShapeModel, read_pgm, write_pgm
from morphfit.noise import noise_image
from morphfit.synth import ProtocolConfig, RenderConfig, RenderError, generate_set, \
    load_dataset, render, write_dataset

SMALL_PC = dict(range_deg=20.0, step_train=20.0, step_test=10.0, backgrounds=2,
                width=160, height=120, focal=500.0)


def test_render_deterministic(small_model, small_cam):
    rc = RenderConfig(cam=small_cam, texture_seed=1, background_seed=2)
    theta = np.array([5.0, -10.0, 2.0, 1.0, -1.0, -1200.0])
    a = render(small_model, theta, rc)
    b = render(small_model, theta, rc)
    assert np.array_equal(a.pixels, b.pixels)


def test_render_foreground_present_and_inside(small_model, small_cam):
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    rc = RenderConfig(cam=small_cam, texture_seed=1, background_seed=2)
    img = render(small_model, theta, rc)
    # pixels still equal to the untouched background are not foreground
    bg = noise_image(small_cam.width, small_cam.height, rc.background_scale, 2)
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
    return ShapeModel(vertex_count=6, mean=mean, basis=basis, sigmas=[1.0],
                      landmark_ids=[0, 1, 2, 3],
                      triangles=[[0, 1, 2], [3, 4, 5]])


def test_zbuffer_keeps_nearer_triangle(small_cam):
    # camera looks down -z from the model at tz=-1200: larger model z is nearer
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    rc = RenderConfig(cam=small_cam, texture_seed=3, background_seed=4)
    both = render(overlap_model(z_near=40.0, z_far=0.0), theta, rc)

    near_only = ShapeModel(vertex_count=6, mean=overlap_model(40.0, 0.0).mean,
                           basis=overlap_model(40.0, 0.0).basis, sigmas=[1.0],
                           landmark_ids=[0], triangles=[[3, 4, 5]])
    far_only = ShapeModel(vertex_count=6, mean=overlap_model(40.0, 0.0).mean,
                          basis=overlap_model(40.0, 0.0).basis, sigmas=[1.0],
                          landmark_ids=[0], triangles=[[0, 1, 2]])
    near_img = render(near_only, theta, rc)
    far_img = render(far_only, theta, rc)
    cy, cx = small_cam.height // 2, small_cam.width // 2
    assert both.pixels[cy, cx] == near_img.pixels[cy, cx]
    assert near_img.pixels[cy, cx] != far_img.pixels[cy, cx]


def test_render_requires_triangles_and_visibility(small_model, small_cam):
    rc = RenderConfig(cam=small_cam, texture_seed=1, background_seed=1)
    no_tris = ShapeModel(vertex_count=small_model.vertex_count, mean=small_model.mean,
                         basis=small_model.basis, sigmas=small_model.sigmas,
                         landmark_ids=small_model.landmark_ids)
    with pytest.raises(ValueError):
        render(no_tris, np.array([0, 0, 0, 0, 0, -1200.0]), rc)
    with pytest.raises(RenderError):
        render(small_model, np.array([0, 0, 0, 1e6, 0, -1200.0]), rc)


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
    assert np.all(np.abs(train_d[:, :3]) <= 2.0 * pc.init_offset)
    assert np.any(np.abs(train_d[:, :3]) > pc.init_offset)
    assert np.all(np.abs(test_d[:, :3]) <= pc.init_offset)
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


# SHA-256 of a tiny seeded train + test set (ids, 8-bit pixels, theta_gt,
# theta_init). Renderer and set-generation changes must keep it; a change
# that moves it on purpose names the new value and the reason.
GOLDEN_SET_SHA256 = "32ef05be8b33b84b302f7e5908ddd78d2f4be488a167b8ffd74e2427a9cf7434"


def test_seeded_sets_match_golden_digest(small_model):
    pc = ProtocolConfig(seed=9, n_shape=1, **SMALL_PC)
    h = hashlib.sha256()
    for mode in ("train", "test"):
        for s in generate_set(small_model, pc, mode):
            h.update(s.id.encode())
            h.update(np.rint(s.image.pixels * 255.0).astype(np.uint8).tobytes())
            h.update(s.theta_gt.astype("<f8").tobytes())
            h.update(s.theta_init.astype("<f8").tobytes())
    assert h.hexdigest() == GOLDEN_SET_SHA256


def test_train_and_test_share_surface_texture(small_model):
    # same pose rendered in train and test mode differs only by background
    pc = ProtocolConfig(seed=7, trans_sigma=0.0, **SMALL_PC)
    train = generate_set(small_model, pc, "train")
    test = generate_set(small_model, pc, "test")
    t0 = [s for s in train if s.id == "train_p+0_y+0_b0"][0]
    s0 = [s for s in test if s.id == "test_p+0_y+0_b0"][0]
    same = t0.image.pixels == s0.image.pixels
    assert same.any() and not same.all()  # foreground shared, background fresh


def test_dataset_round_trip(tmp_path, small_model):
    pc = ProtocolConfig(seed=8, n_shape=1, **SMALL_PC)
    samples = generate_set(small_model, pc, "train")
    out = tmp_path / "ds"
    write_dataset(out, samples, pc)
    assert (out / "protocol.txt").exists()
    back, pc2 = load_dataset(out)
    assert pc2 == pc
    by_id = {s.id: s for s in samples}
    assert len(back) == len(samples)
    for s in back:
        orig = by_id[s.id]
        assert np.array_equal(s.theta_gt, orig.theta_gt)
        assert np.array_equal(s.theta_init, orig.theta_init)
        np.testing.assert_allclose(s.image.pixels, orig.image.pixels, atol=1e-12)


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
    with pytest.raises(ValueError, match="labels.csv.*row 1"):
        load_dataset(out)
    (out / "labels.csv").write_text(labels)

    (out / "protocol.txt").write_text(protocol.replace("focal ", "focus ", 1))
    with pytest.raises(ValueError, match="protocol.txt.*missing field 'focal'"):
        load_dataset(out)
    (out / "protocol.txt").write_text(protocol.replace("width 160", "width many", 1))
    with pytest.raises(ValueError, match="protocol.txt.*'width'"):
        load_dataset(out)
    (out / "protocol.txt").write_text(protocol + "seed\n")
    with pytest.raises(ValueError, match="protocol.txt.*'seed' has no value"):
        load_dataset(out)


def test_protocol_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(range_deg=30.0, step_train=7.0)
    with pytest.raises(ValueError):
        ProtocolConfig(backgrounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(n_shape=-1)


def test_background_noise_has_texture(small_cam):
    bg = noise_image(small_cam.width, small_cam.height, 18.0, 42)
    assert bg.std() > 0.05
    gx = np.abs(np.diff(bg, axis=1)).mean()
    assert gx > 1e-3  # descriptors on background see real gradients
