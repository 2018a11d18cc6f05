import numpy as np
import pytest

from conftest import random_unit_basis
from morphfit import ShapeModel, instance_shape, load_model, make_procedural_model, \
    save_model, select_landmarks


def tiny_model(rng, v=10, k=3, n_landmarks=4):
    basis = random_unit_basis(rng, 3 * v, k)
    sigmas = np.sort(rng.uniform(1.0, 5.0, k))[::-1]
    return ShapeModel(
        vertex_count=v,
        mean=rng.normal(0.0, 50.0, 3 * v),
        basis=basis,
        sigmas=sigmas,
        landmark_ids=rng.choice(v, n_landmarks, replace=False),
    )


def test_zero_alpha_gives_mean():
    rng = np.random.default_rng(0)
    m = tiny_model(rng)
    assert np.array_equal(instance_shape(m, np.zeros(3)), m.mean)


def test_unit_alpha_gives_scaled_column():
    rng = np.random.default_rng(1)
    m = tiny_model(rng)
    e1 = np.array([1.0, 0.0, 0.0])
    expected = m.mean + m.sigmas[0] * m.basis[:, 0]
    np.testing.assert_allclose(instance_shape(m, e1), expected, atol=1e-12)


def test_linear_combination_identity():
    # instance(2 e1 + 3 e2) == 2 instance(e1) + 3 instance(e2) - 4 mean,
    # checked against direct matrix arithmetic
    rng = np.random.default_rng(2)
    m = tiny_model(rng)
    a = np.array([2.0, 3.0, 0.0])
    direct = m.mean + m.basis @ (a * m.sigmas)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    combined = 2 * instance_shape(m, e1) + 3 * instance_shape(m, e2) - 4 * m.mean
    np.testing.assert_allclose(combined, direct, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(instance_shape(m, a), direct, rtol=1e-12)


def test_instance_linearity_random():
    rng = np.random.default_rng(3)
    m = tiny_model(rng)
    for _ in range(20):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        a, b = rng.normal(size=2)
        lhs = instance_shape(m, a * x + b * y)
        rhs = a * instance_shape(m, x) + b * instance_shape(m, y) - (a + b - 1) * m.mean
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * np.abs(rhs).max())


def test_alpha_length_checked():
    rng = np.random.default_rng(4)
    m = tiny_model(rng)
    with pytest.raises(ValueError):
        instance_shape(m, np.zeros(5))


def test_select_landmarks_identity_row():
    rng = np.random.default_rng(5)
    m = tiny_model(rng)
    m.landmark_ids = np.array([0])
    pts = select_landmarks(m, np.zeros(3))
    np.testing.assert_array_equal(pts, [[m.mean[0], m.mean[1], m.mean[2]]])


def test_select_landmarks_order_and_gather():
    rng = np.random.default_rng(6)
    m = tiny_model(rng, n_landmarks=5)
    alpha = np.array([1.0, 0.0, 0.0])
    pts = select_landmarks(m, alpha)
    verts = instance_shape(m, alpha).reshape(-1, 3)
    # brute-force row gather
    assert pts.shape == (5, 3)
    for row, lid in zip(pts, m.landmark_ids):
        np.testing.assert_array_equal(row, verts[lid])
    # permuting landmark ids permutes rows identically
    perm = np.array([3, 1, 4, 0, 2])
    m2 = ShapeModel(vertex_count=m.vertex_count, mean=m.mean, basis=m.basis,
                    sigmas=m.sigmas, landmark_ids=m.landmark_ids[perm])
    np.testing.assert_array_equal(select_landmarks(m2, alpha), pts[perm])


def test_procedural_model_deterministic():
    a = make_procedural_model(11, 60, 2)
    b = make_procedural_model(11, 60, 2)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.sigmas, b.sigmas)
    assert np.array_equal(a.landmark_ids, b.landmark_ids)
    assert np.array_equal(a.triangles, b.triangles)


def test_procedural_model_invariants():
    m = make_procedural_model(42, 500, 10)
    # construction already validates; double-check the headline numbers
    assert m.vertex_count == 500
    assert m.basis.shape == (1500, 10)
    assert len(m.landmark_ids) == 17
    assert len(np.unique(m.landmark_ids)) == 17
    gram = m.basis.T @ m.basis
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-9
    assert np.all(m.sigmas > 0)
    assert np.all(np.diff(m.sigmas) < 0)


def test_procedural_model_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_procedural_model(1, 49, 2)
    with pytest.raises(ValueError):
        make_procedural_model(1, 100, 0)
    with pytest.raises(ValueError):
        make_procedural_model(1, 100, 21)


def test_invariant_violations_rejected():
    rng = np.random.default_rng(7)
    m = tiny_model(rng)
    with pytest.raises(ValueError):
        ShapeModel(vertex_count=m.vertex_count, mean=m.mean, basis=m.basis * 2.0,
                   sigmas=m.sigmas, landmark_ids=m.landmark_ids)
    with pytest.raises(ValueError):
        ShapeModel(vertex_count=m.vertex_count, mean=m.mean, basis=m.basis,
                   sigmas=m.sigmas[::-1], landmark_ids=m.landmark_ids)
    with pytest.raises(ValueError):
        ShapeModel(vertex_count=m.vertex_count, mean=m.mean, basis=m.basis,
                   sigmas=m.sigmas, landmark_ids=[1, 1, 2])
    with pytest.raises(ValueError):
        ShapeModel(vertex_count=m.vertex_count, mean=m.mean, basis=m.basis,
                   sigmas=m.sigmas, landmark_ids=[m.vertex_count])


def test_mfm_round_trip_is_bit_exact(tmp_path):
    m = make_procedural_model(9, 70, 3)
    path = tmp_path / "model.mfm"
    save_model(m, path)
    m2 = load_model(path)
    assert np.array_equal(m.mean, m2.mean)
    assert np.array_equal(m.basis, m2.basis)
    assert np.array_equal(m.sigmas, m2.sigmas)
    assert np.array_equal(m.landmark_ids, m2.landmark_ids)
    assert np.array_equal(m.triangles, m2.triangles)
    # and the file itself is reproduced byte for byte
    save_model(m2, tmp_path / "model2.mfm")
    assert (tmp_path / "model.mfm").read_bytes() == (tmp_path / "model2.mfm").read_bytes()


def test_mfm_rejects_unknown_version(tmp_path):
    m = make_procedural_model(9, 70, 3)
    path = tmp_path / "model.mfm"
    save_model(m, path)
    text = path.read_text()
    bad = tmp_path / "bad.mfm"
    bad.write_text(text.replace("MFM 1", "MFM 2", 1))
    with pytest.raises(ValueError):
        load_model(bad)
    bad.write_text(text + "0.0\n")
    with pytest.raises(ValueError):
        load_model(bad)
