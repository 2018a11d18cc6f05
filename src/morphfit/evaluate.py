"""Error metrics and per-stage evaluation curves.

Angle errors are raw degree differences averaged over the three rotation
components and all samples; no wrap-around handling, which is valid while
every angle stays far from +/-180 degrees: test sets reach +/-41 degrees,
training sets (whose inits spread twice as wide) +/-52. Shape accuracy is
the cosine between estimated and true coefficient vectors over the fitted
modes.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .cascade import FitError, fit
from .util import parallel_map, write_csv

log = logging.getLogger(__name__)

REGIMES = ("uniform", "fixed")


def mae_angles(pred, gt):
    """Mean absolute error over the three angle components, degrees."""
    pred = [np.asarray(p, dtype=np.float64).reshape(-1) for p in pred]
    gt = [np.asarray(g, dtype=np.float64).reshape(-1) for g in gt]
    if len(pred) != len(gt):
        raise ValueError("prediction/ground-truth counts differ")
    if not pred:
        raise ValueError("empty input")
    diffs = np.stack([p[:3] - g[:3] for p, g in zip(pred, gt)])
    return float(np.mean(np.abs(diffs)))


def shape_cosine(alpha_e, alpha_g):
    """Cosine of the angle between coefficient vectors, in [-1, 1]."""
    ae = np.asarray(alpha_e, dtype=np.float64).reshape(-1)
    ag = np.asarray(alpha_g, dtype=np.float64).reshape(-1)
    if ae.shape != ag.shape or ae.size == 0:
        raise ValueError("coefficient vectors must be nonempty and equal length")
    na, ng = np.linalg.norm(ae), np.linalg.norm(ag)
    if na == 0 or ng == 0:
        raise ValueError("shape cosine undefined for the zero vector")
    return float(np.dot(ae, ag) / (na * ng))


@dataclass
class EvalReport:
    regime: str
    n_samples: int
    mae_per_stage: np.ndarray        # (N+1,), stage 0 = initialization
    cosine_per_stage: np.ndarray     # (N+1,), NaN where undefined
    n_failures: int = 0


def initial_theta(sample, regime, init_offset=11.0):
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


def evaluate(samples, reg, model, cam, regime="uniform", init_offset=11.0, jobs=1):
    """Run the cascade on every sample and aggregate per-stage metrics.

    Per-sample fit failures are counted and excluded, not fatal.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to evaluate")
    n_stages = reg.n_stages
    n_shape = reg.param_dim - 6

    def run(sample):
        theta0 = initial_theta(sample, regime, init_offset)
        try:
            return fit(sample.image, theta0, reg, model, cam).trajectory
        except FitError as e:
            log.warning("sample %s failed: %s", sample.id, e)
            return None

    trajectories = parallel_map(run, samples, jobs)
    used = [(s, t) for s, t in zip(samples, trajectories) if t is not None]
    n_failures = len(samples) - len(used)
    if not used:
        raise RuntimeError("every sample failed to evaluate")

    abs_err = np.zeros((len(used), n_stages + 1))
    cosines = np.full((len(used), n_stages + 1), np.nan)
    for i, (s, traj) in enumerate(used):
        abs_err[i] = np.mean(np.abs(traj[:, :3] - s.theta_gt[:3]), axis=1)
        if n_shape > 0:
            for stage in range(n_stages + 1):
                try:
                    cosines[i, stage] = shape_cosine(traj[stage, 6:], s.theta_gt[6:])
                except ValueError:
                    pass  # zero vector (e.g. the mean-face initialization)

    cos_mean = np.full(n_stages + 1, np.nan)
    for stage in range(n_stages + 1):
        col = cosines[:, stage]
        if np.any(np.isfinite(col)):
            cos_mean[stage] = np.nanmean(col)

    return EvalReport(
        regime=regime,
        n_samples=len(used),
        mae_per_stage=abs_err.mean(axis=0),
        cosine_per_stage=cos_mean,
        n_failures=n_failures,
    )


def write_report(report, path):
    write_csv(path, ["stage", "mae_deg", "shape_cosine", "n_samples", "regime"],
              [[stage, mae, cos, report.n_samples, report.regime] for stage, (mae, cos)
               in enumerate(zip(report.mae_per_stage, report.cosine_per_stage))])
