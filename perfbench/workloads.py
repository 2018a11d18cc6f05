"""The benchmark's three workloads, driven only through stable public names.

Each workload has a set-up step, timed and repeated, and a job step that is
repeated for the measured window. ``job`` does only the timed work and
returns its outputs; ``verify`` checks them afterwards, outside the timed
(and traced) region, and counts attempted and failed operations.

* synth: batch job. Train-mode ``generate_set`` (every pose x background,
  640x480, one thread) then ``write_dataset``: the ``morphfit synth`` path.
  Rendering only; features and cascade are bypassed.
* train: batch job. ``load_dataset`` of a set rendered in set-up, then
  ``train_cascade`` (3 stages, one worker thread per core) and
  ``save_regressor``: the ``morphfit train`` path. Features are assembled
  stage by stage over all M images; rendering is bypassed.
* fit: closed loop, one client. ``fit`` on every test-grid image, first from
  the uniform and then from the fixed initialization, with a cascade that
  set-up trains with the code under test and round-trips through MFR1.
  Features are assembled image by image.
"""

import dataclasses
import hashlib
import importlib
import logging
import os
import shutil
from time import perf_counter

import numpy as np

import morphfit

initial_theta = importlib.import_module("morphfit.evaluate").initial_theta

# The standard procedural model (seed, vertices, modes); fixed, so that the
# benchmark seed varies the rendered data and initializations only.
MODEL_ARGS = (42, 500, 10)
STAGES = 3
REGIMES = ("uniform", "fixed")
# Backgrounds per pose in the set that trains the fit workload's cascade
# (100 images). With the 50 images of `protocol` the third stage gains only
# ~0.005 degrees and on some seeds raises the uniform-regime MAE (seed 7:
# 1.4461 -> 1.4469); with 100 it lowers it by 0.02-0.04 degrees on every seed
# tried, so the strict per-stage decrease that the fit check demands holds.
FIT_TRAIN_BACKGROUNDS = 4


def protocol(seed):
    """Reduced protocol: +/-20 degrees of yaw and pitch on a 10 degree grid,
    two backgrounds per training pose (50 training images, 25 test poses),
    640x480 images as in the paper. Sized so that every workload fits its
    set-up and measured window in well under a minute on two cores."""
    return morphfit.ProtocolConfig(seed=seed, range_deg=20.0, step_train=10.0,
                                   step_test=10.0, backgrounds=2)


def _image_bytes(sample):
    return np.rint(sample.image.pixels * 255.0).astype(np.uint8).tobytes()


def dataset_digest(samples):
    """SHA-256 over ids, 8-bit pixels and parameter vectors, in id order."""
    h = hashlib.sha256()
    for s in sorted(samples, key=lambda s: s.id):
        h.update(s.id.encode())
        h.update(_image_bytes(s))
        h.update(np.asarray(s.theta_gt, dtype=np.float64).tobytes())
        h.update(np.asarray(s.theta_init, dtype=np.float64).tobytes())
    return h.hexdigest()


def same_samples(written, loaded):
    """True when a dataset read back from disk equals the one written."""
    written = sorted(written, key=lambda s: s.id)
    return len(written) == len(loaded) and all(
        a.id == b.id and np.array_equal(a.image.pixels, b.image.pixels)
        and np.array_equal(a.theta_gt, b.theta_gt)
        and np.array_equal(a.theta_init, b.theta_init)
        for a, b in zip(written, loaded))


def same_regressor(a, b):
    return (list(a.layout) == list(b.layout) and a.feature_dim == b.feature_dim
            and len(a.stages) == len(b.stages)
            and np.array_equal(a.scale.mean, b.scale.mean)
            and np.array_equal(a.scale.std, b.scale.std)
            and all(np.array_equal(x.A, y.A) and np.array_equal(x.b, y.b)
                    for x, y in zip(a.stages, b.stages)))


def _file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class _WarningCounter(logging.Handler):
    """Counts warnings train_cascade logs; each one is a dropped sample."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _train(run, model, samples, pc):
    """train_cascade with the dropped-sample count."""
    logger = logging.getLogger("morphfit.cascade")
    counter = _WarningCounter()
    logger.addHandler(counter)
    try:
        reg = morphfit.train_cascade(samples, morphfit.TrainConfig(
            model=model, cam=pc.camera(), stages=STAGES, jobs=run.nproc))
    finally:
        logger.removeHandler(counter)
    return reg, counter.count


class Run:
    """One benchmark invocation: inputs, checks, counts and recorded facts."""

    def __init__(self, seed, workdir, nproc):
        self.seed = seed
        self.workdir = workdir
        self.nproc = nproc
        self.pc = protocol(seed)
        self.checks = {}   # name -> None when passing, else the first failure
        self.attempted = 0
        self.failed = 0    # operations that raised or gave a non-finite result
        self.worse = 0     # fits that ended farther from the truth than they began
        self.info = {}

    def check(self, name, ok, detail=""):
        if self.checks.get(name) is None:
            self.checks[name] = None if ok else (detail or "failed")

    def expect_same(self, name, key, value):
        """Check that `value` equals the first value recorded under `key`."""
        first = self.info.setdefault(key, value)
        self.check(name, value == first, "%s != %s" % (value, first))

    def path(self, name):
        return os.path.join(self.workdir, name)


class Synth:
    name = "synth"
    setup_repeats = 9
    min_jobs = 3      # renders of the same seed are compared; median of three
    min_ops = 100     # render calls, for the p90

    def setup(self, run):
        return morphfit.make_procedural_model(*MODEL_ARGS), None

    def job(self, run, model):
        out = run.path("synth")
        shutil.rmtree(out, ignore_errors=True)
        try:
            samples = morphfit.generate_set(model, run.pc, "train", jobs=1)
        except morphfit.RenderError as e:
            return {"error": str(e)}
        morphfit.write_dataset(out, samples, run.pc)
        return {"samples": samples, "dir": out}

    def verify(self, run, model, out):
        expected = len(run.pc.grid("train")) ** 2 * run.pc.backgrounds
        run.attempted += expected
        if "error" in out:
            run.failed += expected
            run.check("render", False, out["error"])
            return 0
        samples = out["samples"]
        loaded, _ = morphfit.load_dataset(out["dir"])
        run.check("pgm_round_trip", same_samples(samples, loaded), "PGM read != written")
        run.expect_same("render_deterministic", "dataset_sha256", dataset_digest(samples))
        run.info["bytes_written_per_job"] = _dir_bytes(out["dir"])
        run.info["images_per_job"] = len(samples)
        run.info["pixels_per_image"] = run.pc.width * run.pc.height
        shutil.rmtree(out["dir"])
        return len(samples)


class Train:
    name = "train"
    setup_repeats = 2
    min_jobs = 2      # two trainings on the same data are compared
    min_ops = 0

    def setup(self, run):
        model = morphfit.make_procedural_model(*MODEL_ARGS)
        samples = morphfit.generate_set(model, run.pc, "train", jobs=1)
        data = run.path("train_set")
        shutil.rmtree(data, ignore_errors=True)
        morphfit.write_dataset(data, samples, run.pc)
        return {"model": model, "samples": samples, "dir": data}, dataset_digest(samples)

    def job(self, run, state):
        path = run.path("cascade.mfr")
        loaded, pc = morphfit.load_dataset(state["dir"])
        reg, dropped = _train(run, state["model"], loaded, pc)
        morphfit.save_regressor(reg, path)
        return {"loaded": loaded, "reg": reg, "dropped": dropped, "path": path}

    def verify(self, run, state, out):
        run.check("pgm_round_trip", same_samples(state["samples"], out["loaded"]),
                  "PGM read != written")
        reg = out["reg"]
        run.check("mfr_round_trip",
                  same_regressor(reg, morphfit.load_regressor(out["path"])),
                  "MFR1 load != saved cascade")
        run.expect_same("train_deterministic", "mfr_sha256", _file_digest(out["path"]))
        run.attempted += len(out["loaded"])
        run.failed += out["dropped"]
        run.info["train_dropped_per_job"] = out["dropped"]
        run.info["train_residuals"] = list(reg.train_residuals)
        run.info["mfr_bytes"] = os.path.getsize(out["path"])
        run.info["training_images"] = len(out["loaded"])
        run.info["descriptors_per_image"] = len(state["model"].landmark_ids) * reg.n_stages
        run.info["pixels_per_image"] = run.pc.width * run.pc.height
        return 0


class Fit:
    name = "fit"
    # One set-up: it renders 125 images and trains a cascade (~30 s), and a
    # second one would push a full benchmark session past its time budget.
    setup_repeats = 1
    min_jobs = 2      # two passes over the same images are compared
    min_ops = 100     # fit calls, for the p90

    def setup(self, run):
        model = morphfit.make_procedural_model(*MODEL_ARGS)
        pc = run.pc
        train_pc = dataclasses.replace(pc, backgrounds=FIT_TRAIN_BACKGROUNDS)
        train = morphfit.generate_set(model, train_pc, "train", jobs=1)
        trained, dropped = _train(run, model, train, train_pc)
        path = run.path("cascade.mfr")
        morphfit.save_regressor(trained, path)
        reg = morphfit.load_regressor(path)
        run.check("mfr_round_trip", same_regressor(trained, reg), "MFR1 load != saved cascade")
        test = morphfit.generate_set(model, pc, "test", jobs=1)
        data = run.path("test_set")
        shutil.rmtree(data, ignore_errors=True)
        morphfit.write_dataset(data, test, pc)
        loaded, _ = morphfit.load_dataset(data)
        run.check("pgm_round_trip", same_samples(test, loaded), "PGM read != written")
        digests = {"train_set": dataset_digest(train), "test_set": dataset_digest(loaded),
                   "mfr": _file_digest(path)}
        run.info["train_dropped_in_setup"] = dropped
        run.info["train_residuals"] = list(trained.train_residuals)
        run.info["mfr_bytes"] = os.path.getsize(path)
        run.info["descriptors_per_fit"] = len(model.landmark_ids) * reg.n_stages
        run.info["pixels_per_image"] = pc.width * pc.height
        state = {"model": model, "reg": reg, "test": loaded, "cam": pc.camera()}
        return state, digests

    def job(self, run, state):
        trajectories, fit_ms = {}, []
        for regime in REGIMES:
            trajectories[regime] = []
            for s in state["test"]:
                theta0 = initial_theta(s, regime)
                t0 = perf_counter()
                try:
                    traj = morphfit.fit(s.image, theta0, state["reg"], state["model"],
                                        state["cam"]).trajectory
                except morphfit.FitError:
                    traj = None
                fit_ms.append((perf_counter() - t0) * 1e3)
                trajectories[regime].append(traj)
        return {"trajectories": trajectories, "fit_ms": fit_ms}

    def verify(self, run, state, out):
        h = hashlib.sha256()
        for regime in REGIMES:
            errs = []
            for s, traj in zip(state["test"], out["trajectories"][regime]):
                run.attempted += 1
                if traj is None or not np.all(np.isfinite(traj[-1])):
                    run.failed += 1
                    continue
                h.update(traj.tobytes())
                err = np.mean(np.abs(traj[:, :3] - s.theta_gt[:3]), axis=1)
                if err[-1] > err[0]:
                    run.worse += 1
                errs.append(err)
            if not errs:
                run.check("fit_%s" % regime, False, "every fit failed")
                continue
            mae = [float(x) for x in np.mean(errs, axis=0)]
            run.info.setdefault("mae_%s_per_stage" % regime, mae)
        run.expect_same("fit_deterministic", "trajectories_sha256", h.hexdigest())
        mae = run.info.get("mae_uniform_per_stage", [])
        run.check("mae_uniform_strictly_decreasing",
                  len(mae) > 1 and all(b < a for a, b in zip(mae, mae[1:])),
                  "uniform MAE per stage %s" % mae)
        return len(out["fit_ms"])


WORKLOADS = {w.name: w for w in (Synth(), Train(), Fit())}
