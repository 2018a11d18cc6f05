"""Seeded benchmark of morphfit's synth, train and fit workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {synth,train,fit} --seed N \
        --seconds S --trace {0,1}

The program under test is imported from ``src/``. A run times the workload's
set-up (several times, except on ``fit`` whose set-up trains a cascade),
repeats its job for at least ``--seconds`` seconds of job time and until the
workload's minimum jobs and samples are met, and checks every output. It
prints each metric with its unit, one ``DETAIL`` line with the checks,
digests, computed counts, versions and the per-layer span table, and last
one JSON summary line. With ``--trace 0`` the summary holds the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` jobs alternate between
untraced and traced, and the summary holds the per-layer metrics. Metric
names and units are read from ``BENCHMARK.json``. See ``LAYERS.md``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: train already runs one worker thread per core, so the
# process never computes on more threads than there are cores.
BLAS_THREADS = 1
# Stop starting jobs after this many seconds, so a run ends within 180 s.
JOB_DEADLINE_S = 110.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("synth", "train", "fit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def measure(workload, run, seconds, trace, started):
    """Set up and repeat the job until `seconds` of job time and the
    workload's minimum jobs and operations are reached.

    The set-up repetitions are spread over the first ``min_jobs`` jobs, so
    that their median samples the machine at several points of the run;
    each job uses the state of the latest set-up. With tracing, jobs
    alternate untraced and traced, and the last set-up is traced. Returns
    the set-up and job times, the spans of traced jobs and of the traced
    set-up, and the op latencies of untraced jobs.
    """
    from spans import Tracer

    tracer = Tracer() if trace else None
    setup_spans, job_spans = [], []

    def timed(fn, traced, sink):
        if traced:
            tracer.install()
        t0 = perf_counter()
        try:
            return fn(), perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
                sink.extend(tracer.spans)
                tracer.spans = []

    setup_s, state = [], None
    times = {"untraced": [], "traced": []}
    ops = {"untraced": 0, "traced": 0}
    op_ms = []
    while True:
        n_jobs = len(times["untraced"]) + len(times["traced"])
        due = -(-workload.setup_repeats * (n_jobs + 1) // workload.min_jobs)
        while len(setup_s) < min(due, workload.setup_repeats):
            state = None
            last = len(setup_s) == workload.setup_repeats - 1
            (state, digest), dt = timed(lambda: workload.setup(run), trace and last, setup_spans)
            setup_s.append(dt)
            run.expect_same("setup_deterministic", "setup_digest", digest)

        kind = "traced" if trace and len(times["traced"]) < len(times["untraced"]) else "untraced"
        out, dt = timed(lambda: workload.job(run, state), kind == "traced", job_spans)
        times[kind].append(dt)
        ops[kind] += workload.verify(run, state, out)
        if kind == "untraced":
            op_ms.extend(out.get("fit_ms", []))
        enough = (sum(times["untraced"]) + sum(times["traced"]) >= seconds
                  and n_jobs + 1 >= workload.min_jobs
                  and len(setup_s) == workload.setup_repeats
                  and ops["untraced"] >= workload.min_ops
                  and (not trace or (times["traced"] and ops["traced"] >= workload.min_ops)))
        if enough or perf_counter() - started > JOB_DEADLINE_S:
            break
    return {"setup_s": setup_s, "times": times, "op_ms": op_ms,
            "job_spans": job_spans, "setup_spans": setup_spans,
            "absent": tracer.absent if trace else []}


def layer_metrics(run, workload, m):
    """Per-layer and workload-level figures. Span figures are per traced
    job, or per set-up for names that run only in set-up; figures that do
    not apply to the workload read 0."""
    import spans
    from workloads import STAGES

    n_jobs = max(1, len(m["times"]["traced"]))
    jt, j_top, j_kids = spans.layer_table(m["job_spans"])
    st, _, _ = spans.layer_table(m["setup_spans"])

    def phase(name):
        if name in jt:
            return [s for s in m["job_spans"] if s.name == name], n_jobs
        return [s for s in m["setup_spans"] if s.name == name], 1

    out = {}
    for qual in spans.TRACED:
        row, n = (jt[qual], n_jobs) if qual in jt else (st.get(qual), 1)
        row = row or {"calls": 0, "s": 0.0, "self_s": 0.0}
        out[qual + ".calls"] = row["calls"] / n
        out[qual + ".ms"] = row["s"] * 1e3 / n
        out[qual + ".self_ms"] = row["self_s"] * 1e3 / n

    desc, _ = phase("features.extract_descriptor")
    out["features.zero_descriptor_ratio"] = sum(s.info for s in desc) / len(desc) if desc else 0.0
    ridge, n = phase("cascade.train_stage")
    out["cascade.ridge_gflop_computed"] = sum(s.info for s in ridge) / n
    pmap, _ = phase("util.parallel_map")
    capacity = sum((s.end - s.start) * s.info[0] for s in pmap)
    out["util.parallel_map.busy_ratio"] = (
        sum(sum(s.info[1]) for s in pmap) / capacity if capacity > 0 else 0.0)

    # Stage k of a fit is its k-th assemble_feature plus k-th predict_update.
    stage_ms = [0.0] * STAGES
    for fit_span in (s for s in m["job_spans"] if s.name == "cascade.fit"):
        kids = sorted(j_kids.get(id(fit_span), []), key=lambda s: s.start)
        for name in ("features.assemble_feature", "cascade.predict_update"):
            calls = [s for s in kids if s.name == name][:STAGES]
            for k, s in enumerate(calls):
                stage_ms[k] += (s.end - s.start) * 1e3 / n_jobs
    for k, v in enumerate(stage_ms):
        out["cascade.fit.stage%d.ms" % k] = v

    renders, _ = phase("synth.render")
    render_ms = [(s.end - s.start) * 1e3 for s in renders]
    out["render_ms_p50"] = percentile(render_ms, 50)
    out["render_ms_p90"] = percentile(render_ms, 90)
    out["render_samples"] = len(render_ms)

    job_s = statistics.median(m["times"]["untraced"])
    info = run.info
    out["synth_images_per_s"] = info["images_per_job"] / job_s if workload.name == "synth" else 0.0
    out["train_s"] = job_s if workload.name == "train" else 0.0
    out["fit_ms_p50"] = percentile(m["op_ms"], 50)
    out["fit_ms_p90"] = percentile(m["op_ms"], 90)
    out["fit_samples"] = len(m["op_ms"])
    for regime in ("uniform", "fixed"):
        mae = info.get("mae_%s_per_stage" % regime, [])
        out["mae_%s_deg" % regime] = mae[-1] if mae else 0.0
        for k in range(STAGES + 1):
            out["cascade.stage%d.mae_%s_deg" % (k, regime)] = mae[k] if k < len(mae) else 0.0
    out["fail_ratio"] = (run.failed + run.worse) / run.attempted if run.attempted else 0.0
    residuals = info.get("train_residuals", [])
    for k in range(STAGES):
        out["cascade.stage%d.train_residual" % k] = residuals[k] if k < len(residuals) else 0.0
    out["cascade.train_dropped"] = info.get("train_dropped_per_job",
                                            info.get("train_dropped_in_setup", 0))
    out["cascade.mfr_bytes"] = info.get("mfr_bytes", 0)

    traced = m["times"]["traced"]
    if traced:
        untraced_ms = statistics.mean(m["times"]["untraced"]) * 1e3
        traced_ms = statistics.mean(traced) * 1e3
        self_sum = sum(r["self_s"] for r in jt.values()) * 1e3 / n_jobs
        top_ms = j_top * 1e3 / n_jobs
        out.update({
            "trace.job_ms_untraced": untraced_ms,
            "trace.job_ms_traced": traced_ms,
            "trace.overhead_ms": traced_ms - untraced_ms,
            "trace.self_ms_sum": self_sum,
            "trace.parallel_overlap_ms": self_sum - top_ms,
            "trace.remainder_ms": traced_ms - top_ms,
        })
    return out


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "morphfit" / "__init__.py").is_file():
        print("perfbench: no morphfit package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = perf_counter()
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    import numpy
    import scipy
    from workloads import WORKLOADS, Run

    nproc = len(os.sched_getaffinity(0))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / ("%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    run = Run(args.seed, str(workdir), nproc)
    try:
        m = measure(workload, run, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workdir.parent)
        except OSError:
            pass

    end_to_end = {
        "setup_s": statistics.median(m["setup_s"]),
        "job_s": statistics.median(m["times"]["untraced"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = layer_metrics(run, workload, m)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(layers, **end_to_end)
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}

    samples = {"setup_s": len(m["setup_s"]), "job_s": len(m["times"]["untraced"]),
               "render_ms_p50": layers["render_samples"], "render_ms_p90": layers["render_samples"],
               "fit_ms_p50": layers["fit_samples"], "fit_ms_p90": layers["fit_samples"]}
    units = {w["name"]: w["unit"] for w in spec["end_to_end"] + spec["per_layer"]}
    shown = [w["name"] for w in spec["end_to_end"]] + [
        w["name"] for w in spec["per_layer"] if args.trace or "." not in w["name"]]
    print("perfbench %s seed=%d trace=%d nproc=%d blas_threads=%d" % (
        args.workload, args.seed, args.trace, nproc, BLAS_THREADS))
    for name in shown:
        n = samples.get(name)
        print("  %-36s %14.6g %-6s%s" % (name, values[name], units[name],
                                        "  n=%d" % n if n is not None else ""))
    failed_checks = {k: v for k, v in run.checks.items() if v is not None}
    for name, why in sorted(failed_checks.items()):
        print("  CHECK FAILED %s: %s" % (name, why))
    print("DETAIL " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "checks": run.checks,
        "setup_s_each": m["setup_s"], "job_s_each": m["times"],
        "fail_ratio": layers["fail_ratio"], "failed": run.failed,
        "worse_than_init": run.worse, "computed": run.info,
        "absent": m["absent"],
        "layers": {k: v for k, v in layers.items() if "." in k and v},
    }, sort_keys=True))
    print(json.dumps({"correct": not failed_checks, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if not failed_checks else 1


if __name__ == "__main__":
    sys.exit(main())
