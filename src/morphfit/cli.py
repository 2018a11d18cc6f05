"""Command-line pipeline: model generation, dataset synthesis, training,
fitting, evaluation, the POSIT baseline over a dataset (`posit`) and one
POSIT pose from a point file (`pose`).

Each command's parser declares only the flags that command reads, so any other
flag is an argparse usage error. Exit codes: 0 success, 1 runtime failure, 2
usage error. `main` runs every command: it takes the seed (null for `train`,
`eval` and `pose`, which draw no random number), calls the command and writes
the JSON run manifest next to its output: the arguments, seed, input files,
outputs and wall-clock timings. --log-level picks which of the library's log
lines (each training stage's lambda and residual, each dropped sample) reach
stderr; `train`, `eval` and `posit` count their dropped samples in the manifest
whatever it is. All randomness flows from one --seed (0 by default) through the
sub-streams named in synth's tag table; outputs are byte-identical for any
--jobs value. Checks live in two places: a flag's parser type checks its own
value, and `_load_inputs` loads the model and regressor and checks them against
each other, the flags and the dataset's protocol.txt before any image is read.
"""

import argparse
import json
import logging
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .camera import ANGLES, MIN_POINTS, POSE_NAMES, CameraConfig, posit
from .cascade import TrainConfig, fit, load_regressor, save_regressor, train_cascade
from .evaluate import REGIMES, evaluate, posit_baseline, write_report
from .features import DESCRIPTOR_SIZE, read_pgm
from .shape_model import DEFAULT_MODES, DEFAULT_VERTICES, MAX_MODES, MIN_VERTICES, POSE, \
    load_model, make_procedural_model, save_model
from .synth import MODE_TAGS, PROTOCOL_MINIMUMS, SEED_TAGS, ProtocolConfig, generate_set, \
    load_dataset, load_protocol, subseed, write_dataset
from .util import ascii_lines, atomic_write, write_csv


class UsageError(Exception):
    pass


def _load_inputs(args):
    """The command's model, and its regressor if it declares --regressor (else None),
    checked against each other, --data's protocol.txt and the flags before any image is read."""
    model = load_model(args.model)
    if "shape_modes" in args and args.shape_modes > model.num_modes:
        raise UsageError("--shape-modes %d: the model has %d modes"
                         % (args.shape_modes, model.num_modes))
    reg = load_regressor(args.regressor) if "regressor" in args else None
    if getattr(args, "init", None) is not None and len(args.init) != reg.param_dim:
        raise UsageError("--init needs %d values for this regressor, got %d"
                         % (reg.param_dim, len(args.init)))
    counts = [] if reg is None else [(args.regressor, reg.n_shape)]
    if "data" in args:
        counts.append((args.data, load_protocol(args.data).n_shape))
    for path, n in counts:
        if n > model.num_modes:
            raise ValueError("%s has %d shape modes, more than the %d of %s"
                             % (path, n, model.num_modes, args.model))
    if len(counts) == 2 and counts[1][1] != reg.n_shape:
        raise ValueError("%s has %d shape modes, but %s fits %d"
                         % (args.data, counts[1][1], args.regressor, reg.n_shape))
    n_features = DESCRIPTOR_SIZE * len(model.landmark_ids)
    if reg is not None and reg.n_stages and reg.feature_dim != n_features:
        raise ValueError("%s takes %d features, but the %d landmarks of %s give %d" % (
            args.regressor, reg.feature_dim, len(model.landmark_ids), args.model, n_features))
    return model, reg


# ---------------------------------------------------------------------------
# commands: each takes (args, seed), does its work and returns
# (outputs, timings of its own phases)
# ---------------------------------------------------------------------------

def cmd_make_model(args, seed):
    model = make_procedural_model(seed, args.vertices, args.modes)
    save_model(model, args.out)
    print("wrote model: %d vertices, %d modes, %d landmarks -> %s"
          % (model.vertex_count, model.num_modes, len(model.landmark_ids), args.out))
    return {"model": args.out}, {}


def cmd_synth(args, seed):
    steps = {} if args.grid_step is None else {"step_" + args.mode: args.grid_step}
    pc = ProtocolConfig(range_deg=args.range_deg, tz=args.tz, focal=args.focal,
                        width=args.width, height=args.height, backgrounds=args.backgrounds,
                        n_shape=args.shape_modes, seed=seed, **steps)
    try:
        pc.grid(args.mode)
    except ValueError as e:  # the flag types check the rest; not whether the step divides
        raise UsageError("--grid-step, --range-deg: %s" % e) from None
    model, _ = _load_inputs(args)
    t_render = time.perf_counter()
    samples = generate_set(model, pc, args.mode, jobs=args.jobs)
    t_write = time.perf_counter()
    write_dataset(args.out, samples, pc)
    timings = {"render": t_write - t_render, "write": time.perf_counter() - t_write}
    print("wrote %d samples to %s" % (len(samples), args.out))
    return {"dataset": args.out, "n_samples": len(samples)}, timings


def cmd_train(args, seed):
    model, _ = _load_inputs(args)
    samples, pc = load_dataset(args.data)
    config = TrainConfig(model=model, cam=pc.camera(), stages=args.stages, jobs=args.jobs)
    reg = train_cascade(samples, config)
    save_regressor(reg, args.out)
    for i, (res, dropped) in enumerate(zip(reg.train_residuals, reg.train_dropped)):
        print("stage %d: residual %.6g, dropped %d" % (i, res, len(dropped)))
    print("wrote regressor (%d stages, pdim %d, fdim %d) -> %s"
          % (reg.n_stages, reg.param_dim, reg.feature_dim, args.out))
    return {"regressor": args.out, "train_residuals": reg.train_residuals,
            "train_dropped": reg.train_dropped}, {}


def _read_point_rows(path):
    try:
        lines = ascii_lines(path)
    except ValueError as e:
        raise UsageError(e) from None
    lines = [(ln_no, line) for ln_no, line in lines if not line.startswith("#")]
    if lines and lines[0][1] == "u,v,X,Y,Z":
        lines = lines[1:]  # a header, taken only on the first line not a comment
    rows = []
    for ln_no, line in lines:
        parts = line.split(",")
        if len(parts) != 5:
            raise UsageError("%s: line %d: expected 5 values u,v,X,Y,Z" % (path, ln_no))
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise UsageError("%s: line %d: malformed number" % (path, ln_no)) from None
        if not np.all(np.isfinite(rows[-1])):
            raise UsageError("%s: line %d: non-finite value" % (path, ln_no))
    if len(rows) < MIN_POINTS:
        raise UsageError("%s: POSIT needs at least %d rows, got %d" % (path, MIN_POINTS, len(rows)))
    arr = np.array(rows)
    return arr[:, :2], arr[:, 2:]


def cmd_fit(args, seed):
    model, reg = _load_inputs(args)
    img = read_pgm(args.image)
    cam = CameraConfig(focal=args.focal, width=img.width, height=img.height)

    if args.init is not None:
        theta0 = np.array(args.init)
    else:
        theta0 = np.zeros(reg.param_dim)
        theta0[POSE] = posit(*_read_point_rows(args.init_landmarks), cam).pose
    if args.init_noise:
        rng = np.random.Generator(np.random.PCG64(subseed(seed, SEED_TAGS["init_noise"])))
        theta0[ANGLES] += rng.uniform(-args.init_noise, args.init_noise, size=3)

    t_fit = time.perf_counter()
    result = fit(img, theta0, reg, model, cam)
    fit_seconds = time.perf_counter() - t_fit

    write_csv(args.out, ["stage", *reg.layout],
              [[i, *row] for i, row in enumerate(result.trajectory)])

    print("final theta: " + " ".join("%s=%.4g" % (n, v)
                                     for n, v in zip(reg.layout, result.theta)))
    print("fit runtime: %.1f ms" % (fit_seconds * 1000.0))
    return {"trajectory": args.out, "theta": [float(v) for v in result.theta]}, {"fit": fit_seconds}


def cmd_eval(args, seed):
    model, reg = _load_inputs(args)
    samples, pc = load_dataset(args.data)
    regimes = list(REGIMES) if args.regime == "both" else [args.regime]
    # every regime is evaluated before --out is made, so a failed run writes nothing
    reports = [evaluate(samples, reg, model, pc, regime=regime, jobs=args.jobs)
               for regime in regimes]
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for regime, report in zip(regimes, reports):
        path = os.path.join(args.out, "report_%s.csv" % regime)
        write_report(report, path)
        outputs["report_%s" % regime] = path
        outputs["failures_%s" % regime] = report.n_failures
        print("regime %s (n=%d, failures=%d): mae per stage %s" % (
            regime, report.n_samples, report.n_failures,
            " ".join("%.3f" % m for m in report.mae_per_stage)))
    return outputs, {}


def cmd_posit(args, seed):
    model, _ = _load_inputs(args)
    samples, pc = load_dataset(args.data)
    baseline = posit_baseline(samples, model, pc, args.noise_px, seed)
    mae = float(np.mean([err for _, _, err in baseline]))
    write_csv(args.out, ["id", *POSE_NAMES, *["err_" + n for n in POSE_NAMES[ANGLES]],
                         "iters", "converged"],
              [[sid, *res.pose, *err, res.iters, int(res.converged)]
               for sid, res, err in baseline])
    failures = len(samples) - len(baseline)
    print("POSIT over %d samples (noise %.3g px, failures=%d): MAE %.4f deg"
          % (len(baseline), args.noise_px, failures, mae))
    return {"report": args.out, "mae_deg": mae, "failures": failures}, {}


def cmd_pose(args, seed):
    cam = CameraConfig(focal=args.focal, width=args.width, height=args.height)
    uv, pts = _read_point_rows(args.points)
    res = posit(uv, pts, cam)
    write_csv(args.out, [*POSE_NAMES, "iters", "converged"],
              [[*res.pose, res.iters, int(res.converged)]])
    print("pose: rx=%.3f ry=%.3f rz=%.3f t=(%.1f, %.1f, %.1f) [%d iters]"
          % (*res.pose, res.iters))
    return {"pose": args.out}, {}


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


def finite_floats(text):
    """argparse type: comma-separated finite numbers, as a list."""
    try:
        return [finite_float(v) for v in text.split(",")]
    except ValueError:  # finite_float's own error names a non-finite value
        raise argparse.ArgumentTypeError("must be comma-separated numbers, got %s" % text) from None


LOG_LEVELS = ["debug", "info", "warning", "error"]


def build_parser():
    # shared parent parsers; a default the library holds is read from its config class
    common, seed, jobs, model, focal, size = [argparse.ArgumentParser(add_help=False)
                                              for _ in range(6)]
    common.add_argument("--out", required=True)
    common.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="least severe library log line printed to stderr")
    seed.add_argument("--seed", type=at_least(0), default=0)
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

    mm = sub.add_parser("make-model", parents=[common, seed],
                        help="generate the procedural shape model")
    mm.add_argument("--vertices", type=at_least(MIN_VERTICES), default=DEFAULT_VERTICES)
    mm.add_argument("--modes", type=at_least(1, high=MAX_MODES), default=DEFAULT_MODES)
    mm.set_defaults(func=cmd_make_model)

    sy = sub.add_parser("synth", parents=[common, seed, jobs, model, focal, size],
                        help="render a train or test dataset")
    sy.add_argument("--mode", choices=list(MODE_TAGS), default="train")
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
    tr.set_defaults(func=cmd_train)

    ft = sub.add_parser("fit", parents=[common, seed, model, focal],
                        help="fit pose/shape to one image")
    ft.add_argument("--image", required=True)
    ft.add_argument("--regressor", required=True)
    init = ft.add_mutually_exclusive_group(required=True)
    init.add_argument("--init", type=finite_floats, help="inline theta, comma-separated")
    init.add_argument("--init-landmarks",
                      help="CSV of u,v,X,Y,Z rows for POSIT pose initialization")
    ft.add_argument("--init-noise", type=nonnegative_float, default=0.0,
                    help="perturb initial angles uniformly within +/- this many degrees")
    ft.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", parents=[common, jobs, model],
                        help="per-stage error curves over a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--regressor", required=True)
    ev.add_argument("--regime", choices=[*REGIMES, "both"], default="uniform")
    ev.set_defaults(func=cmd_eval)

    po = sub.add_parser("posit", parents=[common, seed, model],
                        help="POSIT baseline over a dataset, camera from its protocol.txt")
    po.add_argument("--data", required=True)
    po.add_argument("--noise-px", type=nonnegative_float, default=0.0,
                    help="standard deviation of the landmark pixel noise")
    po.set_defaults(func=cmd_posit)

    pz = sub.add_parser("pose", parents=[common, focal, size],
                        help="POSIT pose from 2D/3D correspondences")
    pz.add_argument("--points", required=True, help="CSV of u,v,X,Y,Z rows")
    pz.set_defaults(func=cmd_pose)

    return p


# the input files a manifest records: each flag's dest and the key it records it under
INPUTS = {"model": "model", "data": "dataset", "regressor": "regressor", "image": "image",
          "points": "points", "init_landmarks": "init_landmarks"}


def main(argv=None):
    """Run one command and write its manifest; returns the exit code."""
    args = build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    # the package's logger, for this run only: its handler writes to the
    # current stderr and is removed afterwards, so runs in one process do not
    # stack handlers or leak a level
    logger, handler = logging.getLogger("morphfit"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved_level = logger.level
    logger.setLevel(args.log_level.upper())
    logger.addHandler(handler)
    try:
        seed = getattr(args, "seed", None)
        outputs, timings = args.func(args, seed)
        timings["total"] = time.perf_counter() - t0
        path = os.path.join(args.out, "manifest.json") if os.path.isdir(args.out) \
            else args.out + ".manifest.json"
        manifest = {
            "command": args.command,
            "version": __version__,
            "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "seed": seed,
            "inputs": {key: getattr(args, flag) for flag, key in INPUTS.items()
                       if getattr(args, flag, None) is not None},
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
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
