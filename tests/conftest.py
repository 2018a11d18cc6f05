import numpy as np
import pytest

from morphfit import CameraConfig, GrayImage, make_procedural_model
from morphfit.synth import render


@pytest.fixture(scope="session")
def small_model():
    return make_procedural_model(3, 80, 3)


@pytest.fixture(scope="session")
def small_cam():
    return CameraConfig(focal=500.0, width=160, height=120)


@pytest.fixture(scope="session")
def small_render(small_model, small_cam):
    theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -1200.0])
    return render(small_model, theta, small_cam, 5, 6)


def random_unit_basis(rng, dim, k):
    """Orthonormal columns via QR of a random matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q


def quantized_noise_image(rng, width, height, levels=512, lo=0.1, hi=0.6):
    """Random image with dyadic pixel values (exact float arithmetic)."""
    px = np.floor(rng.uniform(lo, hi, size=(height, width)) * levels) / levels
    return GrayImage(px)
