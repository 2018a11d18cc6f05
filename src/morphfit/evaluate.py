"""Error metrics, per-stage evaluation curves, and the POSIT baseline.

Angle errors are raw degree differences averaged over the three rotation
components and all samples; no wrap-around handling, which is valid while
every angle stays far from +/-180 degrees: test sets reach +/-41 degrees,
training sets (whose inits spread twice as wide) +/-52. Shape accuracy is
the cosine between estimated and true coefficient vectors over the fitted
modes.

`evaluate` (a batch per regime) and `posit_baseline` are `util.map_samples` batches.
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .camera import ANGLES, posit, project_points
from .cascade import FitError, fit
from .shape_model import SHAPE, init_theta, select_landmarks, split_theta
from .synth import INIT_OFFSET, SEED_TAGS, subseed
from .util import map_samples, write_csv

log = logging.getLogger(__name__)

REGIMES = ("uniform", "fixed")


def angle_errors(theta, gt):
    """Mean absolute error of the three angles over the last axis, degrees.

    theta is (..., p) and gt must broadcast to its shape; the result has
    theta's leading shape.
    """
    theta = np.asarray(theta, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if np.broadcast_shapes(theta.shape, gt.shape) != theta.shape:
        raise ValueError("ground truth %s does not broadcast to %s" % (gt.shape, theta.shape))
    return np.mean(np.abs(theta[..., ANGLES] - gt[..., ANGLES]), axis=-1)


def shape_cosine(alpha_e, alpha_g):
    """Cosine of the angle between coefficient vectors over the last axis, whose
    leading axes broadcast: in [-1, 1], NaN where either vector is zero or
    empty, and a ValueError for vectors of unequal length."""
    ae = np.asarray(alpha_e, dtype=np.float64)
    ag = np.asarray(alpha_g, dtype=np.float64)
    if ae.shape[-1:] != ag.shape[-1:]:
        raise ValueError("coefficient vectors differ in length: %s, %s" % (ae.shape, ag.shape))

    def dot(a, b):  # a stacked matmul of vectors rounds as np.dot does
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    num, den = dot(ae, ag), np.sqrt(dot(ae, ae)) * np.sqrt(dot(ag, ag))
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den > 0)[()]


@dataclass(eq=False)
class EvalReport:
    regime: str
    n_samples: int
    mae_per_stage: np.ndarray        # (N+1,), stage 0 = initialization
    cosine_per_stage: np.ndarray     # (N+1,), NaN where undefined
    n_failures: int = 0


def initial_theta(sample, regime):
    """A sample's initialization: "uniform" is its stored one, and "fixed" is
    init_theta(theta_gt, INIT_OFFSET), every angle offset by +INIT_OFFSET."""
    if regime == "uniform":
        return sample.theta_init.copy()
    if regime == "fixed":
        return init_theta(sample.theta_gt, INIT_OFFSET)
    raise ValueError("unknown regime %r" % regime)


def evaluate(samples, reg, model, pc, regime="uniform", jobs=1):
    """Run the cascade on every sample and aggregate per-stage metrics.

    `pc` is the samples' ProtocolConfig, which gives the camera. A sample
    whose fit raises FitError is dropped and counted in n_failures.
    """
    cam = pc.camera()

    def run(i, s):
        return s.theta_gt, fit(s.image, initial_theta(s, regime), reg, model, cam).trajectory

    kept, keep = map_samples(run, samples, jobs, log, "evaluate the %s regime" % regime, FitError)
    gt, traj = (np.stack(a) for a in zip(*kept))  # (N, p), (N, S+1, p)

    # stage-major, so each stage's mean sums its samples as one contiguous row
    cosines = shape_cosine(traj[..., SHAPE].swapaxes(0, 1), gt[:, SHAPE])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a stage with no cosine is NaN
        cos_mean = np.nanmean(cosines, axis=1)

    return EvalReport(
        regime=regime,
        n_samples=len(gt),
        mae_per_stage=angle_errors(traj, gt[:, None]).mean(axis=0),
        cosine_per_stage=cos_mean,
        n_failures=len(keep) - len(gt),
    )


class BehindCameraError(RuntimeError):
    """Landmarks that lie at or behind the camera: POSIT has no pixels for them."""


def posit_baseline(samples, model, pc, noise_px=0.0, seed=0):
    """POSIT from each sample's landmarks, projected at its ground truth (pose
    and shape) through `pc`'s camera, plus Gaussian pixel noise of standard
    deviation `noise_px`, drawn from the "posit_noise" sub-seed of the sample's
    id, so a sample's draws do not depend on the batch around it.

    Returns (id, PositResult, absolute rx/ry/rz errors) per sample. A sample
    whose landmarks do not all project is a BehindCameraError, and dropped.
    """
    cam = pc.camera()

    def one(_, s):
        pose, alpha = split_theta(model, s.theta_gt)
        pts3d = select_landmarks(model, alpha)
        uv, valid = project_points(pts3d, pose, cam)
        if not valid.all():
            raise BehindCameraError("%d landmarks lie at or behind the camera" % np.sum(~valid))
        if noise_px > 0:
            rng = np.random.Generator(np.random.PCG64(
                subseed(seed, SEED_TAGS["posit_noise"], *s.id.encode())))
            uv = uv + rng.normal(0.0, noise_px, size=uv.shape)
        res = posit(uv, pts3d, cam)
        return s.id, res, np.abs(res.pose[ANGLES] - s.theta_gt[ANGLES])

    return map_samples(one, samples, 1, log, "give a POSIT estimate", BehindCameraError)[0]


def write_report(report, path):
    write_csv(path, ["stage", "mae_deg", "shape_cosine", "n_samples", "regime"],
              [[stage, mae, cos, report.n_samples, report.regime] for stage, (mae, cos)
               in enumerate(zip(report.mae_per_stage, report.cosine_per_stage))])
