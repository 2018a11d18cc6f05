"""Command-line pipeline: model generation, dataset synthesis, training,
fitting, evaluation, and the POSIT baseline.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command
writes a JSON run manifest next to its primary output recording the
arguments, resolved seeds, inputs/outputs, and wall-clock timings. All
randomness flows from one --seed (or MORPHFIT_SEED) through named
sub-streams; outputs are byte-identical for any --jobs value.
"""

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .camera import CameraConfig, project_points, pose_from_landmarks_rough
from .cascade import TrainConfig, fit, load_regressor, save_regressor, train_cascade
from .evaluate import REGIMES, evaluate, write_report
from .features import read_pgm
from .posit import Correspondences, euler_from_rotation, posit
from .shape_model import load_model, make_procedural_model, save_model, select_landmarks
from .synth import ProtocolConfig, generate_set, load_dataset, subseed, write_dataset
from .util import atomic_write, fmt_float


class UsageError(Exception):
    pass


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("MORPHFIT_SEED")
    if env is not None:
        return int(env)
    return 0


def _write_manifest(path, command, args, seed, inputs, outputs, timings, started):
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _now():
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_make_model(args):
    started = _now()
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    model = make_procedural_model(seed, args.vertices, args.modes)
    save_model(model, args.out)
    timings = {"total": time.perf_counter() - t0}
    _write_manifest(args.out + ".manifest.json", "make-model", args, seed,
                    {}, {"model": args.out}, timings, started)
    print("wrote model: %d vertices, %d modes, %d landmarks -> %s"
          % (model.vertex_count, model.num_modes, len(model.landmark_ids), args.out))
    return 0


def cmd_synth(args):
    started = _now()
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    model = load_model(args.model)
    pc = ProtocolConfig(
        range_deg=args.range_deg,
        step_train=args.grid_step if (args.grid_step and args.mode == "train") else 10.0,
        step_test=args.grid_step if (args.grid_step and args.mode == "test") else 5.0,
        tz=args.tz, focal=args.focal, width=args.width, height=args.height,
        backgrounds=args.backgrounds, n_shape=args.shape_modes, seed=seed)
    t_render = time.perf_counter()
    samples = generate_set(model, pc, args.mode, jobs=args.jobs)
    t_write = time.perf_counter()
    write_dataset(args.out, samples, pc)
    t1 = time.perf_counter()
    timings = {"render": t_write - t_render, "write": t1 - t_write, "total": t1 - t0}
    _write_manifest(os.path.join(args.out, "manifest.json"), "synth", args, seed,
                    {"model": args.model}, {"dataset": args.out, "n_samples": len(samples)},
                    timings, started)
    print("wrote %d samples to %s" % (len(samples), args.out))
    return 0


def cmd_train(args):
    started = _now()
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    model = load_model(args.model)
    samples, pc = load_dataset(args.data)
    config = TrainConfig(model=model, cam=pc.camera(), stages=args.stages,
                         lam=getattr(args, "lambda"), jobs=args.jobs)
    reg = train_cascade(samples, config)
    save_regressor(reg, args.out)
    t1 = time.perf_counter()
    for i, res in enumerate(reg.train_residuals):
        print("stage %d: residual %.6g" % (i, res))
    timings = {"total": t1 - t0}
    _write_manifest(args.out + ".manifest.json", "train", args, seed,
                    {"dataset": args.data, "model": args.model},
                    {"regressor": args.out, "train_residuals": reg.train_residuals},
                    timings, started)
    print("wrote regressor (%d stages, pdim %d, fdim %d) -> %s"
          % (reg.n_stages, reg.param_dim, reg.feature_dim, args.out))
    return 0


def _parse_inline_theta(text, pdim):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as e:
        raise UsageError("--init must be comma-separated numbers: %s" % e)
    if len(values) != pdim:
        raise UsageError("--init needs %d values for this regressor, got %d"
                         % (pdim, len(values)))
    return np.array(values)


def _read_point_rows(path):
    rows = []
    with open(path) as f:
        for ln_no, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise UsageError("%s:%d: expected 5 values u,v,X,Y,Z" % (path, ln_no))
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if ln_no == 1:  # tolerate a header line
                    continue
                raise UsageError("%s:%d: malformed number" % (path, ln_no))
    if not rows:
        raise UsageError("%s: no data rows" % path)
    arr = np.array(rows)
    return arr[:, :2], arr[:, 2:]


def cmd_fit(args):
    started = _now()
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    model = load_model(args.model)
    reg = load_regressor(args.regressor)
    img = read_pgm(args.image)
    cam = CameraConfig(focal=args.focal, width=img.width, height=img.height)

    if (args.init is None) == (args.init_landmarks is None):
        raise UsageError("exactly one of --init / --init-landmarks is required")
    if args.init is not None:
        theta0 = _parse_inline_theta(args.init, reg.param_dim)
    else:
        uv, pts = _read_point_rows(args.init_landmarks)
        theta0 = np.zeros(reg.param_dim)
        theta0[:6] = pose_from_landmarks_rough(uv, pts, cam)
    if args.init_noise:
        rng = np.random.Generator(np.random.PCG64(subseed(seed, 4)))
        theta0 = theta0.copy()
        theta0[:3] += rng.uniform(-args.init_noise, args.init_noise, size=3)

    t_fit = time.perf_counter()
    result = fit(img, theta0, reg, model, cam)
    fit_seconds = time.perf_counter() - t_fit

    lines = ["stage," + ",".join(reg.layout)]
    for i, row in enumerate(result.trajectory):
        lines.append("%d," % i + ",".join(fmt_float(v) for v in row))
    atomic_write(args.out, ("\n".join(lines) + "\n").encode())

    print("final theta: " + " ".join("%s=%.4g" % (n, v)
                                     for n, v in zip(reg.layout, result.theta)))
    print("fit runtime: %.1f ms" % (fit_seconds * 1000.0))
    timings = {"fit": fit_seconds, "total": time.perf_counter() - t0}
    _write_manifest(args.out + ".manifest.json", "fit", args, seed,
                    {"image": args.image, "model": args.model, "regressor": args.regressor},
                    {"trajectory": args.out,
                     "theta": [float(v) for v in result.theta]},
                    timings, started)
    return 0


def cmd_eval(args):
    started = _now()
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    model = load_model(args.model)
    reg = load_regressor(args.regressor)
    samples, pc = load_dataset(args.data)
    regimes = list(REGIMES) if args.regime == "both" else [args.regime]
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for regime in regimes:
        report = evaluate(samples, reg, model, pc.camera(), regime=regime,
                          init_offset=pc.init_offset, jobs=args.jobs)
        path = os.path.join(args.out, "report_%s.csv" % regime)
        write_report(report, path)
        outputs["report_%s" % regime] = path
        print("regime %s (n=%d): mae per stage %s" % (
            regime, report.n_samples,
            " ".join("%.3f" % m for m in report.mae_per_stage)))
    timings = {"total": time.perf_counter() - t0}
    _write_manifest(os.path.join(args.out, "manifest.json"), "eval", args, seed,
                    {"dataset": args.data, "model": args.model,
                     "regressor": args.regressor}, outputs, timings, started)
    return 0


def cmd_posit(args):
    started = _now()
    t0 = time.perf_counter()
    seed = _resolve_seed(args)
    if (args.points is None) == (args.data is None):
        raise UsageError("exactly one of --points / --data is required")

    if args.points is not None:
        uv, pts = _read_point_rows(args.points)
        cam = CameraConfig(focal=args.focal, width=args.width, height=args.height)
        corr = Correspondences(points2d=uv, points3d=pts, focal=cam.focal,
                               cx=cam.cx, cy=cam.cy)
        res = posit(corr, max_iters=args.max_iters, tol=args.tol)
        rx, ry, rz = euler_from_rotation(res.rotation)
        tx, ty, tz = res.translation
        lines = ["rx,ry,rz,tx,ty,tz,iters,converged",
                 ",".join(fmt_float(v) for v in (rx, ry, rz, tx, ty, tz))
                 + ",%d,%d" % (res.iters, int(res.converged))]
        atomic_write(args.out, ("\n".join(lines) + "\n").encode())
        print("pose: rx=%.3f ry=%.3f rz=%.3f t=(%.1f, %.1f, %.1f) [%d iters]"
              % (rx, ry, rz, tx, ty, tz, res.iters))
        outputs = {"pose": args.out}
        inputs = {"points": args.points}
        mae = None
    else:
        if args.model is None:
            raise UsageError("--data requires --model")
        model = load_model(args.model)
        samples, pc = load_dataset(args.data)
        cam = pc.camera()
        lines = ["id,rx,ry,rz,tx,ty,tz,err_rx,err_ry,err_rz,iters,converged"]
        errs = []
        for idx, s in enumerate(samples):
            alpha = np.zeros(model.num_modes)
            alpha[:s.theta_gt.shape[0] - 6] = s.theta_gt[6:]
            pts3d = select_landmarks(model, alpha)
            uv, valid = project_points(pts3d, s.theta_gt[:6], cam)
            if not valid.all():
                continue
            if args.noise_px > 0:
                rng = np.random.Generator(np.random.PCG64(subseed(seed, 3, idx)))
                uv = uv + rng.normal(0.0, args.noise_px, size=uv.shape)
            corr = Correspondences(points2d=uv, points3d=pts3d,
                                   focal=cam.focal, cx=cam.cx, cy=cam.cy)
            res = posit(corr, max_iters=args.max_iters, tol=args.tol)
            rx, ry, rz = euler_from_rotation(res.rotation)
            err = np.abs(np.array([rx, ry, rz]) - s.theta_gt[:3])
            errs.append(err)
            lines.append(s.id + "," + ",".join(fmt_float(v) for v in (
                rx, ry, rz, *res.translation, *err))
                + ",%d,%d" % (res.iters, int(res.converged)))
        if not errs:
            raise RuntimeError("no sample produced a valid POSIT estimate")
        mae = float(np.mean(np.stack(errs)))
        atomic_write(args.out, ("\n".join(lines) + "\n").encode())
        print("POSIT over %d samples (noise %.3g px): MAE %.4f deg"
              % (len(errs), args.noise_px, mae))
        outputs = {"report": args.out, "mae_deg": mae}
        inputs = {"dataset": args.data, "model": args.model}

    timings = {"total": time.perf_counter() - t0}
    _write_manifest(args.out + ".manifest.json", "posit", args, seed,
                    inputs, outputs, timings, started)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="morphfit",
                                description="3D shape-model fitting via cascaded regression")
    sub = p.add_subparsers(dest="command", required=True)

    mm = sub.add_parser("make-model", help="generate the procedural shape model")
    mm.add_argument("--out", required=True)
    mm.add_argument("--vertices", type=int, default=500)
    mm.add_argument("--modes", type=int, default=10)
    mm.add_argument("--seed", type=int, default=None)
    mm.set_defaults(func=cmd_make_model)

    sy = sub.add_parser("synth", help="render a train or test dataset")
    sy.add_argument("--model", required=True)
    sy.add_argument("--out", required=True)
    sy.add_argument("--mode", choices=["train", "test"], default="train")
    sy.add_argument("--grid-step", type=float, default=None)
    sy.add_argument("--range-deg", type=float, default=30.0)
    sy.add_argument("--tz", type=float, default=-1200.0)
    sy.add_argument("--focal", type=float, default=1500.0)
    sy.add_argument("--width", type=int, default=640)
    sy.add_argument("--height", type=int, default=480)
    sy.add_argument("--backgrounds", type=int, default=5)
    sy.add_argument("--shape-modes", type=int, default=0)
    sy.add_argument("--seed", type=int, default=None)
    sy.add_argument("--jobs", type=int, default=1)
    sy.set_defaults(func=cmd_synth)

    tr = sub.add_parser("train", help="train a cascade on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--model", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--stages", type=int, default=3)
    tr.add_argument("--lambda", type=float, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--jobs", type=int, default=1)
    tr.set_defaults(func=cmd_train)

    ft = sub.add_parser("fit", help="fit pose/shape to one image")
    ft.add_argument("--image", required=True)
    ft.add_argument("--model", required=True)
    ft.add_argument("--regressor", required=True)
    ft.add_argument("--out", required=True)
    ft.add_argument("--init", default=None,
                    help="inline theta, comma-separated")
    ft.add_argument("--init-landmarks", default=None,
                    help="CSV of u,v,X,Y,Z rows for rough pose initialization")
    ft.add_argument("--init-noise", type=float, default=0.0,
                    help="perturb initial angles uniformly within +/- this many degrees")
    ft.add_argument("--focal", type=float, default=1500.0)
    ft.add_argument("--seed", type=int, default=None)
    ft.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="per-stage error curves over a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--model", required=True)
    ev.add_argument("--regressor", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--regime", choices=["uniform", "fixed", "both"], default="uniform")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--jobs", type=int, default=1)
    ev.set_defaults(func=cmd_eval)

    po = sub.add_parser("posit", help="POSIT baseline from 2D/3D correspondences")
    po.add_argument("--points", default=None, help="CSV of u,v,X,Y,Z rows")
    po.add_argument("--data", default=None, help="dataset directory for batch mode")
    po.add_argument("--model", default=None)
    po.add_argument("--out", required=True)
    po.add_argument("--noise-px", type=float, default=0.0)
    po.add_argument("--focal", type=float, default=1500.0)
    po.add_argument("--width", type=int, default=640)
    po.add_argument("--height", type=int, default=480)
    po.add_argument("--max-iters", type=int, default=100)
    po.add_argument("--tol", type=float, default=1e-5)
    po.add_argument("--seed", type=int, default=None)
    po.set_defaults(func=cmd_posit)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
