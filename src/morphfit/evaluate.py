"""Error metrics and per-stage evaluation curves.

Angle errors are raw degree differences averaged over the three rotation
components and all samples; no wrap-around handling, which is valid while
every angle stays far from +/-180 degrees: test sets reach +/-41 degrees,
training sets (whose inits spread twice as wide) +/-52. Shape accuracy is
the cosine between estimated and true coefficient vectors over the fitted
modes.
"""

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .cascade import FitError, fit
from .synth import ProtocolConfig
from .util import parallel_map, write_csv

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
    return np.mean(np.abs(theta[..., :3] - gt[..., :3]), axis=-1)


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


def initial_theta(sample, regime, init_offset=ProtocolConfig.init_offset):
    """Initialization for a sample under the given regime.

    "uniform": the stored perturbed initialization. "fixed": every angle
    offset by +init_offset from ground truth, shape at the mean face.
    """
    if regime == "uniform":
        return sample.theta_init.copy()
    if regime == "fixed":
        theta = sample.theta_gt.copy()
        theta[:3] += init_offset
        theta[6:] = 0.0
        return theta
    raise ValueError("unknown regime %r" % regime)


def evaluate(samples, reg, model, pc, regime="uniform", jobs=1):
    """Run the cascade on every sample and aggregate per-stage metrics.

    `pc` is the samples' ProtocolConfig: it gives the camera and the fixed
    regime's init_offset. Per-sample fit failures are counted and excluded,
    not fatal.
    """
    cam = pc.camera()
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to evaluate")

    def run(sample):
        theta0 = initial_theta(sample, regime, pc.init_offset)
        try:
            return fit(sample.image, theta0, reg, model, cam).trajectory
        except FitError as e:
            log.warning("sample %s failed: %s", sample.id, e)
            return None

    trajectories = parallel_map(run, samples, jobs)
    used = [(s.theta_gt, t) for s, t in zip(samples, trajectories) if t is not None]
    if not used:
        raise RuntimeError("every sample failed to evaluate")
    gt = np.stack([g for g, _ in used])          # (N, p)
    traj = np.stack([t for _, t in used])        # (N, S+1, p)

    # stage-major, so each stage's mean sums its samples as one contiguous row
    cosines = shape_cosine(traj[..., 6:].swapaxes(0, 1), gt[:, 6:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a stage with no cosine is NaN
        cos_mean = np.nanmean(cosines, axis=1)

    return EvalReport(
        regime=regime,
        n_samples=len(used),
        mae_per_stage=angle_errors(traj, gt[:, None]).mean(axis=0),
        cosine_per_stage=cos_mean,
        n_failures=len(samples) - len(used),
    )


def write_report(report, path):
    write_csv(path, ["stage", "mae_deg", "shape_cosine", "n_samples", "regime"],
              [[stage, mae, cos, report.n_samples, report.regime] for stage, (mae, cos)
               in enumerate(zip(report.mae_per_stage, report.cosine_per_stage))])
