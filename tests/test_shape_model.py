import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_unit_basis
from morphfit import ShapeModel, instance_shape, load_model, make_procedural_model, \
    save_model, select_landmarks
from morphfit.camera import ANGLES, TRANSLATION
from morphfit.shape_model import MIN_VERTICES, POSE, POSE_NAMES, SHAPE, _check_hull, \
    _fibonacci_sphere, _sphere_triangles, init_theta, param_layout


def tiny_model(rng, v=10, k=3, n_landmarks=4):
    basis = random_unit_basis(rng, 3 * v, k)
    sigmas = np.sort(rng.uniform(1.0, 5.0, k))[::-1]
    return ShapeModel(
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


def test_init_theta_offsets_the_angles_and_starts_at_the_mean_face():
    gt = np.array([1.0, -2.0, 3.0, 4.0, -5.0, -1200.0, 0.7, -0.3])
    kept = gt.copy()
    for d_angles in (11.0, np.array([1.5, -2.5, 0.25])):
        theta = init_theta(gt, d_angles)  # literal indices: the slices are checked below
        np.testing.assert_array_equal(theta[:3], gt[:3] + d_angles)
        np.testing.assert_array_equal(theta[3:6], gt[3:6])
        np.testing.assert_array_equal(theta[6:], [0.0, 0.0])
        assert not np.shares_memory(theta, gt)
    np.testing.assert_array_equal(gt, kept)
    # the slices name the same entries as the layout
    layout = param_layout(2)
    assert (layout[POSE], layout[SHAPE]) == (POSE_NAMES, ["a0", "a1"])
    assert (POSE_NAMES[ANGLES], POSE_NAMES[TRANSLATION]) == (["rx", "ry", "rz"], ["tx", "ty", "tz"])


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
    m2 = ShapeModel(mean=m.mean, basis=m.basis,
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


# SHA-256 of mean, basis, sigmas and landmark_ids as little-endian bytes; the
# triangles are left out, their order being the triangulation's own
MODEL_ARRAYS_SHA256 = {
    (42, 500, 10): "cdaf678146bd345a2a2c850c16a77126b330ff44224ab9dee1d3eee28e09c35b",
    (3, 80, 3): "37bac4d3ad6edb16cd9e7364013d92dea2b27c957a7dac7dee837156dbdba657",
}


@pytest.mark.parametrize("args", sorted(MODEL_ARRAYS_SHA256))
def test_procedural_model_arrays_are_pinned(args):
    m = make_procedural_model(*args)
    h = hashlib.sha256()
    for values, dtype in ((m.mean, "<f8"), (m.basis, "<f8"), (m.sigmas, "<f8"),
                          (m.landmark_ids, "<i8")):
        h.update(values.astype(dtype).tobytes())
    assert h.hexdigest() == MODEL_ARRAYS_SHA256[args]


# SHA-256 of the MFM1 file save_model writes for make_procedural_model(42, 500, 10):
# the header counts, the arrays above as 17-digit text and the triangles
MODEL_FILE_SHA256 = "147c42227b951302bc3be50c6e6e292d7bfeb2bde6f0f2a8cec67335e2de05e4"


def test_saved_model_file_is_pinned(tmp_path):
    path = tmp_path / "model.mfm"
    save_model(make_procedural_model(42, 500, 10), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_FILE_SHA256


def test_sphere_triangles_are_qhulls_facets_wound_outward():
    spatial = pytest.importorskip("scipy.spatial")
    for n in [*range(MIN_VERTICES, 301), 500, 997, 2000, 5000]:
        dirs = _fibonacci_sphere(n)
        tris = _sphere_triangles(dirs)
        hull = spatial.ConvexHull(dirs).simplices
        assert len(tris) == len(hull) == 2 * n - 4, n
        assert np.array_equal(np.unique(np.sort(tris, axis=1), axis=0),
                              np.unique(np.sort(hull, axis=1), axis=0)), n
        p = dirs[tris]
        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        assert np.all(np.einsum("ij,ij->i", normals, p.sum(axis=1)) > 0), n


def test_check_hull_rejects_a_broken_triangulation():
    dirs = _fibonacci_sphere(200)
    tris = _sphere_triangles(dirs)
    with pytest.raises(RuntimeError, match="has 395 facets, not 396"):
        _check_hull(dirs, tris[1:])
    inward = tris.copy()
    inward[0] = inward[0, ::-1]
    with pytest.raises(RuntimeError, match="not a closed, consistently wound surface"):
        _check_hull(dirs, inward)
    # flip the edge a-b that facets (a, b, c) and (b, a, d) share: the surface
    # stays closed and consistently wound, but folds in along c-d
    a, b, c = tris[0]
    j = next(j for j, t in enumerate(tris) if (b, a) in zip(t, np.roll(t, -1)))
    d = next(v for v in tris[j] if v not in (a, b))
    folded = tris.copy()
    folded[0], folded[j] = (a, d, c), (d, b, c)
    with pytest.raises(RuntimeError, match="not convex"):
        _check_hull(dirs, folded)


def test_building_the_model_imports_no_scipy():
    code = ("import sys, morphfit; morphfit.make_procedural_model(42); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["morphfit"].__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout == "[]\n"


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
        ShapeModel(mean=m.mean, basis=m.basis * 2.0,
                   sigmas=m.sigmas, landmark_ids=m.landmark_ids)
    with pytest.raises(ValueError):
        ShapeModel(mean=m.mean, basis=m.basis,
                   sigmas=m.sigmas[::-1], landmark_ids=m.landmark_ids)
    with pytest.raises(ValueError):
        ShapeModel(mean=m.mean, basis=m.basis,
                   sigmas=m.sigmas, landmark_ids=[1, 1, 2])
    with pytest.raises(ValueError):
        ShapeModel(mean=m.mean, basis=m.basis,
                   sigmas=m.sigmas, landmark_ids=[m.vertex_count])


def test_vertex_count_is_derived_from_the_mean():
    assert tiny_model(np.random.default_rng(8), v=10).vertex_count == 10
    for length in (0, 29):
        with pytest.raises(ValueError, match="mean must hold xyz of one or more vertices"):
            ShapeModel(mean=np.zeros(length), basis=np.zeros((length, 0)), sigmas=[],
                       landmark_ids=[])


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


def test_mfm_rejects_non_finite_values(tmp_path):
    m = make_procedural_model(9, 70, 3)
    path = tmp_path / "model.mfm"
    save_model(m, path)
    lines = path.read_text().splitlines()
    mean_row = lines.index("mean:") + 1
    sigma_row = lines.index("sigmas:") + 1
    basis_row = lines.index("basis:") + 1
    bad = tmp_path / "bad.mfm"
    for row, name in ((sigma_row, "sigmas"), (mean_row, "mean"), (basis_row, "basis")):
        edited = list(lines)
        values = edited[row].split()
        edited[row] = " ".join(["nan"] * len(values) if name == "sigmas"
                               else ["nan"] + values[1:])
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(ValueError, match=name + " must be finite"):
            load_model(bad)
