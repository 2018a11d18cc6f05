"""Command-line pipeline: model generation, dataset synthesis, training,
fitting, evaluation, and the POSIT baseline.

Exit codes: 0 success, 1 runtime failure, 2 usage error. `main` runs
every command: it resolves the seed, calls the command, and writes the JSON
run manifest next to the command's primary output, recording the
arguments, resolved seed, inputs/outputs, and wall-clock timings. All
randomness flows from one --seed (or MORPHFIT_SEED) through named
sub-streams; outputs are byte-identical for any --jobs value.
"""

import argparse
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .camera import CameraConfig, project_points
from .cascade import TrainConfig, fit, load_regressor, save_regressor, train_cascade
from .evaluate import REGIMES, evaluate, write_report
from .features import read_pgm
from .posit import MAX_ITERS, MIN_POINTS, TOL, posit
from .shape_model import MAX_MODES, MIN_VERTICES, POSE_NAMES, load_model, \
    make_procedural_model, save_model, select_landmarks, split_theta
from .synth import PROTOCOL_MINIMUMS, ProtocolConfig, generate_set, load_dataset, subseed, \
    write_dataset
from .util import ascii_lines, atomic_write, write_csv


class UsageError(Exception):
    pass


def _resolve_seed(args):
    """--seed, else MORPHFIT_SEED, else 0; a UsageError unless a nonnegative integer."""
    name, value = ("--seed", args.seed) if args.seed is not None else \
        ("MORPHFIT_SEED", os.environ.get("MORPHFIT_SEED", "0"))
    try:
        seed = int(value)
    except ValueError:
        raise UsageError("%s must be an integer, got %r" % (name, value)) from None
    if seed < 0:
        raise UsageError("%s must be nonnegative, got %d" % (name, seed))
    return seed


# ---------------------------------------------------------------------------
# commands: each takes (args, seed), does its work and returns
# (manifest path, inputs, outputs, timings of its own phases)
# ---------------------------------------------------------------------------

def cmd_make_model(args, seed):
    model = make_procedural_model(seed, args.vertices, args.modes)
    save_model(model, args.out)
    print("wrote model: %d vertices, %d modes, %d landmarks -> %s"
          % (model.vertex_count, model.num_modes, len(model.landmark_ids), args.out))
    return args.out + ".manifest.json", {}, {"model": args.out}, {}


def cmd_synth(args, seed):
    steps = {} if args.grid_step is None else {"step_" + args.mode: args.grid_step}
    pc = ProtocolConfig(range_deg=args.range_deg, tz=args.tz, focal=args.focal,
                        width=args.width, height=args.height, backgrounds=args.backgrounds,
                        n_shape=args.shape_modes, seed=seed, **steps)
    try:
        pc.grid(args.mode)
    except ValueError as e:  # the flag types check the rest; not whether the step divides
        raise UsageError("--grid-step, --range-deg: %s" % e) from None
    model = load_model(args.model)
    if pc.n_shape > model.num_modes:
        raise UsageError("--shape-modes %d: the model has %d modes" % (pc.n_shape, model.num_modes))
    t_render = time.perf_counter()
    samples = generate_set(model, pc, args.mode, jobs=args.jobs)
    t_write = time.perf_counter()
    write_dataset(args.out, samples, pc)
    timings = {"render": t_write - t_render, "write": time.perf_counter() - t_write}
    print("wrote %d samples to %s" % (len(samples), args.out))
    return (os.path.join(args.out, "manifest.json"), {"model": args.model},
            {"dataset": args.out, "n_samples": len(samples)}, timings)


def cmd_train(args, seed):
    model = load_model(args.model)
    samples, pc = load_dataset(args.data)
    config = TrainConfig(model=model, cam=pc.camera(), stages=args.stages,
                         lam=getattr(args, "lambda"), jobs=args.jobs)
    reg = train_cascade(samples, config)
    save_regressor(reg, args.out)
    for i, res in enumerate(reg.train_residuals):
        print("stage %d: residual %.6g" % (i, res))
    print("wrote regressor (%d stages, pdim %d, fdim %d) -> %s"
          % (reg.n_stages, reg.param_dim, reg.feature_dim, args.out))
    return (args.out + ".manifest.json", {"dataset": args.data, "model": args.model},
            {"regressor": args.out, "train_residuals": reg.train_residuals}, {})


def _parse_inline_theta(text, pdim):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as e:
        raise UsageError("--init must be comma-separated numbers: %s" % e)
    if not np.all(np.isfinite(values)):
        raise UsageError("--init values must be finite, got %s" % text)
    if len(values) != pdim:
        raise UsageError("--init needs %d values for this regressor, got %d"
                         % (pdim, len(values)))
    return np.array(values)


def _read_point_rows(path):
    try:
        lines = ascii_lines(path)
    except ValueError as e:
        raise UsageError(e) from None
    rows = []
    for ln_no, line in lines:
        if line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise UsageError("%s: line %d: expected 5 values u,v,X,Y,Z" % (path, ln_no))
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            if ln_no == 1:  # tolerate a header line
                continue
            raise UsageError("%s: line %d: malformed number" % (path, ln_no))
        if not np.all(np.isfinite(rows[-1])):
            raise UsageError("%s: line %d: non-finite value" % (path, ln_no))
    if len(rows) < MIN_POINTS:
        raise UsageError("%s: POSIT needs at least %d rows, got %d" % (path, MIN_POINTS, len(rows)))
    arr = np.array(rows)
    return arr[:, :2], arr[:, 2:]


def cmd_fit(args, seed):
    model = load_model(args.model)
    reg = load_regressor(args.regressor)
    img = read_pgm(args.image)
    cam = CameraConfig(focal=args.focal, width=img.width, height=img.height)

    if args.init is not None:
        theta0 = _parse_inline_theta(args.init, reg.param_dim)
    else:
        theta0 = np.zeros(reg.param_dim)
        theta0[:6] = posit(*_read_point_rows(args.init_landmarks), cam).pose
    if args.init_noise:
        rng = np.random.Generator(np.random.PCG64(subseed(seed, 4)))
        theta0[:3] += rng.uniform(-args.init_noise, args.init_noise, size=3)

    t_fit = time.perf_counter()
    result = fit(img, theta0, reg, model, cam)
    fit_seconds = time.perf_counter() - t_fit

    write_csv(args.out, ["stage", *reg.layout],
              [[i, *row] for i, row in enumerate(result.trajectory)])

    print("final theta: " + " ".join("%s=%.4g" % (n, v)
                                     for n, v in zip(reg.layout, result.theta)))
    print("fit runtime: %.1f ms" % (fit_seconds * 1000.0))
    return (args.out + ".manifest.json",
            {"image": args.image, "model": args.model, "regressor": args.regressor},
            {"trajectory": args.out, "theta": [float(v) for v in result.theta]},
            {"fit": fit_seconds})


def cmd_eval(args, seed):
    model = load_model(args.model)
    reg = load_regressor(args.regressor)
    samples, pc = load_dataset(args.data)
    regimes = list(REGIMES) if args.regime == "both" else [args.regime]
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for regime in regimes:
        report = evaluate(samples, reg, model, pc, regime=regime, jobs=args.jobs)
        path = os.path.join(args.out, "report_%s.csv" % regime)
        write_report(report, path)
        outputs["report_%s" % regime] = path
        print("regime %s (n=%d): mae per stage %s" % (
            regime, report.n_samples,
            " ".join("%.3f" % m for m in report.mae_per_stage)))
    return (os.path.join(args.out, "manifest.json"),
            {"dataset": args.data, "model": args.model, "regressor": args.regressor},
            outputs, {})


def cmd_posit(args, seed):
    if args.points is not None:
        uv, pts = _read_point_rows(args.points)
        cam = CameraConfig(focal=args.focal, width=args.width, height=args.height)
        res = posit(uv, pts, cam, args.max_iters, args.tol)
        write_csv(args.out, [*POSE_NAMES, "iters", "converged"],
                  [[*res.pose, res.iters, int(res.converged)]])
        print("pose: rx=%.3f ry=%.3f rz=%.3f t=(%.1f, %.1f, %.1f) [%d iters]"
              % (*res.pose, res.iters))
        return args.out + ".manifest.json", {"points": args.points}, {"pose": args.out}, {}

    if args.model is None:
        raise UsageError("--data requires --model")
    model = load_model(args.model)
    samples, pc = load_dataset(args.data)
    cam = pc.camera()
    rows, errs = [], []
    for idx, s in enumerate(samples):
        pose, alpha = split_theta(model, s.theta_gt)
        pts3d = select_landmarks(model, alpha)
        uv, valid = project_points(pts3d, pose, cam)
        if not valid.all():
            continue
        if args.noise_px > 0:
            rng = np.random.Generator(np.random.PCG64(subseed(seed, 3, idx)))
            uv = uv + rng.normal(0.0, args.noise_px, size=uv.shape)
        res = posit(uv, pts3d, cam, args.max_iters, args.tol)
        errs.append(np.abs(res.pose[:3] - s.theta_gt[:3]))
        rows.append([s.id, *res.pose, *errs[-1], res.iters, int(res.converged)])
    if not errs:
        raise RuntimeError("no sample produced a valid POSIT estimate")
    mae = float(np.mean(np.stack(errs)))
    write_csv(args.out, ["id", *POSE_NAMES, "err_rx", "err_ry", "err_rz", "iters", "converged"],
              rows)
    print("POSIT over %d samples (noise %.3g px): MAE %.4f deg"
          % (len(errs), args.noise_px, mae))
    return (args.out + ".manifest.json", {"dataset": args.data, "model": args.model},
            {"report": args.out, "mae_deg": mae}, {})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _number(kind, ok, rule):
    """argparse type: the text as a `kind`, a usage error unless finite and ok."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError("must be %s, got %s" % (rule, text))
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def at_least(low, kind=int, high=None):
    """argparse type of a number in [low, high]: a count, or a limit a library holds."""
    rule = ("finite and " if kind is float else "") + \
        ("at least %s" % low if high is None else "in [%s, %s]" % (low, high))
    return _number(kind, lambda v: low <= v and (high is None or v <= high), rule)


positive_int = at_least(1)
finite_float = _number(float, lambda v: True, "finite")
nonnegative_float = _number(float, lambda v: v >= 0, "finite and nonnegative")
positive_float = _number(float, lambda v: v > 0, "finite and positive")


def build_parser():
    # shared parent parsers; a default the library holds is read from its config class
    common, jobs, model, focal, size = [argparse.ArgumentParser(add_help=False)
                                        for _ in range(5)]
    common.add_argument("--out", required=True)
    common.add_argument("--seed", type=int)
    jobs.add_argument("--jobs", type=positive_int, default=TrainConfig.jobs)
    model.add_argument("--model", required=True)
    focal.add_argument("--focal", type=positive_float, default=CameraConfig.focal)
    size.add_argument("--width", type=at_least(PROTOCOL_MINIMUMS["width"]),
                      default=CameraConfig.width)
    size.add_argument("--height", type=at_least(PROTOCOL_MINIMUMS["height"]),
                      default=CameraConfig.height)

    p = argparse.ArgumentParser(prog="morphfit",
                                description="3D shape-model fitting via cascaded regression")
    sub = p.add_subparsers(dest="command", required=True)

    mm = sub.add_parser("make-model", parents=[common],
                        help="generate the procedural shape model")
    mm.add_argument("--vertices", type=at_least(MIN_VERTICES), default=500)
    mm.add_argument("--modes", type=at_least(1, high=MAX_MODES), default=10)
    mm.set_defaults(func=cmd_make_model)

    sy = sub.add_parser("synth", parents=[common, jobs, model, focal, size],
                        help="render a train or test dataset")
    sy.add_argument("--mode", choices=["train", "test"], default="train")
    sy.add_argument("--grid-step", type=positive_float, help="step of the --mode grid, degrees")
    sy.add_argument("--range-deg", type=at_least(PROTOCOL_MINIMUMS["range_deg"], float),
                    default=ProtocolConfig.range_deg)
    sy.add_argument("--tz", type=finite_float, default=ProtocolConfig.tz)
    sy.add_argument("--backgrounds", type=at_least(PROTOCOL_MINIMUMS["backgrounds"]),
                    default=ProtocolConfig.backgrounds)
    sy.add_argument("--shape-modes", type=at_least(PROTOCOL_MINIMUMS["n_shape"]),
                    default=ProtocolConfig.n_shape)
    sy.set_defaults(func=cmd_synth)

    tr = sub.add_parser("train", parents=[common, jobs, model],
                        help="train a cascade on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--stages", type=positive_int, default=TrainConfig.stages)
    tr.add_argument("--lambda", type=nonnegative_float, default=TrainConfig.lam)
    tr.set_defaults(func=cmd_train)

    ft = sub.add_parser("fit", parents=[common, model, focal],
                        help="fit pose/shape to one image")
    ft.add_argument("--image", required=True)
    ft.add_argument("--regressor", required=True)
    init = ft.add_mutually_exclusive_group(required=True)
    init.add_argument("--init", help="inline theta, comma-separated")
    init.add_argument("--init-landmarks",
                      help="CSV of u,v,X,Y,Z rows for POSIT pose initialization")
    ft.add_argument("--init-noise", type=nonnegative_float, default=0.0,
                    help="perturb initial angles uniformly within +/- this many degrees")
    ft.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", parents=[common, jobs, model],
                        help="per-stage error curves over a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--regressor", required=True)
    ev.add_argument("--regime", choices=["uniform", "fixed", "both"], default="uniform")
    ev.set_defaults(func=cmd_eval)

    po = sub.add_parser("posit", parents=[common, focal, size],
                        help="POSIT baseline from 2D/3D correspondences")
    source = po.add_mutually_exclusive_group(required=True)
    source.add_argument("--points", help="CSV of u,v,X,Y,Z rows")
    source.add_argument("--data", help="dataset directory for batch mode")
    po.add_argument("--model", help="shape model, required with --data")
    po.add_argument("--noise-px", type=nonnegative_float, default=0.0)
    po.add_argument("--max-iters", type=positive_int, default=MAX_ITERS)
    po.add_argument("--tol", type=nonnegative_float, default=TOL)
    po.set_defaults(func=cmd_posit)

    return p


def main(argv=None):
    """Run one command and write its manifest; returns the exit code."""
    args = build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        seed = _resolve_seed(args)
        path, inputs, outputs, timings = args.func(args, seed)
        timings["total"] = time.perf_counter() - t0
        manifest = {
            "command": args.command,
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
        return 0
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
