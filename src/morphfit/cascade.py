"""Cascade of linear weak regressors mapping features to parameter updates.

Each stage is an affine map delta = A f + b fitted by ridge regression
(bias unregularized, handled by explicit centering). Update targets are
z-scored per dimension, with the statistics taken from the first stage's
targets and reused by every later stage, so a single scale travels with
the trained cascade.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureError, PlaneStore, assemble_feature
from .shape_model import param_layout
from .util import TokenReader, atomic_write, fmt_row, parallel_map

log = logging.getLogger(__name__)

class FitError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__("stage %d: %s" % (stage, message))
        self.stage = stage


@dataclass(eq=False)
class ParamScale:
    mean: np.ndarray
    std: np.ndarray  # finite, strictly positive

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        if self.mean.shape != self.std.shape:
            raise ValueError("scale mean/std length mismatch")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("scale mean must be finite")
        if not np.all(np.isfinite(self.std) & (self.std > 0)):
            raise ValueError("scale std must be finite and strictly positive")

    @staticmethod
    def from_targets(deltas):
        d = np.asarray(deltas, dtype=np.float64)
        std = d.std(axis=0)
        # constant dimensions (e.g. translations that start at ground truth)
        # carry no signal; unit scale keeps them harmless
        std[std < 1e-12] = 1.0
        return ParamScale(mean=d.mean(axis=0), std=std)

    def normalize(self, deltas):
        return (np.asarray(deltas, dtype=np.float64) - self.mean) / self.std

    def denormalize(self, normed):
        return np.asarray(normed, dtype=np.float64) * self.std + self.mean


@dataclass(eq=False)
class WeakRegressor:
    A: np.ndarray  # (p, F)
    b: np.ndarray  # (p,)

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=np.float64)  # C order, as MFR1 loads
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if self.A.ndim != 2 or self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A must be (p, F) with b of length p")
        for name in ("A", "b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s must be finite" % name)


@dataclass(eq=False)
class CascadeRegressor:
    stages: list
    scale: ParamScale
    feature_dim: int
    train_residuals: list = field(default_factory=list)

    def __post_init__(self):
        if self.param_dim < 6:
            raise ValueError("scale has %d parameters; the pose alone takes 6" % self.param_dim)
        for wr in self.stages:
            if wr.A.shape != (self.param_dim, self.feature_dim):
                raise ValueError("stage dimensions inconsistent with scale/feature_dim")

    @property
    def param_dim(self):
        return len(self.scale.mean)

    @property
    def layout(self):
        return param_layout(self.param_dim - 6)

    @property
    def n_stages(self):
        return len(self.stages)


# Keeps each stage from interpolating the training set when samples are
# scarcer than feature dimensions, so later stages still see informative
# residuals.
LAMBDA_FACTOR = 2.0


def relative_lambda(features_centered):
    """Scale-free ridge default: LAMBDA_FACTOR * trace(Fc' Fc) / feature_dim."""
    fc = np.asarray(features_centered, dtype=np.float64)
    return LAMBDA_FACTOR * float(np.sum(fc * fc)) / fc.shape[1]


def train_stage(features, deltas, lam):
    """Exact ridge minimizer of ||A f + b - delta||^2 + lam ||A||_F^2.

    `deltas` must already be normalized by the cascade's ParamScale. The
    bias is recovered from the means and never regularized.
    """
    f = np.asarray(features, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if f.ndim != 2 or d.ndim != 2 or f.shape[0] != d.shape[0] or f.shape[0] < 1:
        raise ValueError("features (M, F) and deltas (M, p) must share M >= 1")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(d))):
        raise ValueError("non-finite training data")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("lambda must be finite and nonnegative, got %s" % lam)
    fm = f.mean(axis=0)
    dm = d.mean(axis=0)
    fc = f - fm
    dc = d - dm
    # fc = U diag(s) Vt (thin, any M and F): A = dc' U diag(s / (s^2 + lam)) Vt
    u, s, vt = np.linalg.svd(fc, full_matrices=False)
    gain = np.divide(s, s * s + lam, out=np.zeros_like(s), where=s > 0)
    a = ((u.T @ dc) * gain[:, None]).T @ vt
    return WeakRegressor(A=a, b=dm - a @ fm)


def predict_update(reg, features, scale):
    """De-normalized update A f + b of one feature vector (F,) or each row of (K, F)."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[-1] != reg.A.shape[1]:
        raise ValueError("feature length %d != regressor %d" % (f.shape[-1], reg.A.shape[1]))
    return scale.denormalize(f @ reg.A.T + reg.b)


@dataclass
class TrainConfig:
    model: object
    cam: object
    stages: int = 3
    lam: float = None  # None -> relative_lambda per stage
    jobs: int = 1


def train_cascade(samples, config):
    """Train `config.stages` weak regressors, updating every sample's
    parameter estimate after each stage. Samples whose features cannot be
    assembled are dropped with a warning; training fails if none remain.
    """
    if config.stages < 1:
        raise ValueError("need at least one stage")
    samples = list(samples)
    if not samples:
        raise ValueError("no training samples")
    theta = np.array([s.theta_init for s in samples], dtype=np.float64)  # (M, p)
    gt = np.array([s.theta_gt for s in samples], dtype=np.float64)

    def assemble(i):
        try:
            return assemble_feature(samples[i].image, theta[i], config.model, config.cam)
        except FeatureError:
            return None

    scale = None
    stages = []
    residuals = []
    for stage_idx in range(config.stages):
        feats = parallel_map(assemble, range(len(samples)), config.jobs)
        keep = np.array([f is not None for f in feats])
        for i in np.flatnonzero(~keep):
            log.warning("dropping sample %s: feature assembly failed",
                        getattr(samples[i], "id", i))
        if not keep.any():
            raise RuntimeError("all training samples dropped at stage %d" % stage_idx)
        samples = [s for s, k in zip(samples, keep) if k]
        theta, gt = theta[keep], gt[keep]
        f_mat = np.stack([f for f in feats if f is not None])
        if scale is None:
            scale = ParamScale.from_targets(gt - theta)
        lam = config.lam
        if lam is None:
            lam = relative_lambda(f_mat - f_mat.mean(axis=0))
        wr = train_stage(f_mat, scale.normalize(gt - theta), lam)
        theta = theta + predict_update(wr, f_mat, scale)
        residuals.append(float(np.mean(((gt - theta) / scale.std) ** 2)))
        stages.append(wr)
        log.info("stage %d: lambda=%.6g residual=%.6g n=%d",
                 stage_idx, lam, residuals[-1], len(samples))

    return CascadeRegressor(stages=stages, scale=scale, feature_dim=f_mat.shape[1],
                            train_residuals=residuals)


@dataclass(eq=False)
class FitResult:
    trajectory: np.ndarray  # (n_stages + 1, p), row 0 = initialization

    theta = property(lambda self: self.trajectory[-1])


def fit(img, theta_init, reg, model, cam):
    """Apply every cascade stage to refine theta_init on one image.

    A non-finite theta_init is a ValueError; a stage whose update leaves
    theta non-finite raises FitError for that stage. The stages read one
    PlaneStore of `img`, so a pixel's orientation planes are built once.
    """
    theta = np.asarray(theta_init, dtype=np.float64).reshape(-1).copy()
    if theta.shape[0] != reg.param_dim:
        raise ValueError("theta_init length %d != cascade layout %d"
                         % (theta.shape[0], reg.param_dim))
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta_init must be finite")
    traj = [theta.copy()]
    planes = PlaneStore(img)
    for i, wr in enumerate(reg.stages):
        try:
            f = assemble_feature(img, theta, model, cam, planes=planes)
        except FeatureError as e:
            raise FitError(i, str(e)) from e
        theta = theta + predict_update(wr, f, reg.scale)
        if not np.all(np.isfinite(theta)):
            raise FitError(i, "update made the parameters non-finite")
        traj.append(theta.copy())
    return FitResult(np.stack(traj))


# ---------------------------------------------------------------------------
# MFR1 text format
# ---------------------------------------------------------------------------

def save_regressor(reg, path):
    lines = [
        "MFR 1",
        "stages %d" % reg.n_stages,
        "pdim %d" % reg.param_dim,
        "fdim %d" % reg.feature_dim,
        "layout %s" % " ".join(reg.layout),
        "scale:",
        fmt_row(reg.scale.mean),
        fmt_row(reg.scale.std),
    ]
    for wr in reg.stages:
        lines.append("A:")
        lines.extend(fmt_row(row) for row in wr.A)
        lines.append("b:")
        lines.append(fmt_row(wr.b))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def load_regressor(path):
    r = TokenReader(path, "MFR")
    n = r.count("stages")
    p = r.count("pdim")
    fdim = r.count("fdim")
    layout = r.take("layout", p)
    if layout != param_layout(p - 6):
        raise r.error("layout %s, expected %s" % (layout, param_layout(p - 6)))
    scale = r.make("scale", ParamScale, mean=r.array("scale:", float, p),
                   std=r.array(None, float, p))
    stages = [r.make("stage %d" % i, WeakRegressor, A=r.array("A:", float, p, fdim),
                     b=r.array("b:", float, p)) for i in range(n)]
    r.finish()
    return CascadeRegressor(stages=stages, scale=scale, feature_dim=fdim)
