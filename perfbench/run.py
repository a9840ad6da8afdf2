"""pcflow benchmark: the prepare -> train -> sample -> density -> eval pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pv_pcf --seed 1 --seconds 55 --trace 0

The runner writes the workload's inputs from ``--seed``, then repeats the
whole pipeline in this process through ``pcflow.cli.main`` for ``--seconds``
seconds, timing ``import pcflow`` in fresh interpreters between iterations
(``setup_s``). It checks every output, and prints the environment, the
inputs and every metric by name and unit; the last line of standard output
is the JSON result. ``--trace 1`` reports the per-layer metrics of the
traced iterations instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# BLAS runs single-threaded: the conditioner matmuls are too small to gain
# from threads, and one thread keeps runs on a shared machine steady.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_IMPORTS = 24  # fresh-interpreter imports per run, spread over the run
MIN_ITERATIONS = 3
REFERENCE_S = 0.03  # pipeline.Reference's time on a quiet 2-vCPU Xeon guest

PV_PREPARE = ["--capacity-col", "capacity", "--scaling", "capacity_factor"]
TOY_PREPARE = ["--period-length", "2", "--scaling", "none"]

# Why each workload exists, and which layer carries its time, is in
# perfbench/README.md. Every workload runs every stage.
WORKLOADS = {
    # 3 years of 15-minute PV; eval sees the first ``eval_rows`` samples
    "pv_pcf": {"input": "pv", "size": 1095, "prepare": PV_PREPARE,
               "train": ["--mode", "pcf", "--cev", "0.99"], "epochs": 20,
               "n": 5000, "eval_rows": 1000},
    "toy_fsnf": {"input": "curve", "size": 2000, "prepare": TOY_PREPARE,
                 "train": ["--mode", "fsnf"], "epochs": 15, "n": 2000},
}

STAGES = ("prepare", "train", "sample", "density", "eval")
VAL_FRACTION = 0.2
BATCH_SIZE = 64
KDE_POINTS = 512
KS_MAX = 0.5  # far above any healthy run; catches a broken sampler
ON_CURVE_MIN = 0.01  # far below any healthy run; catches samples off the curve entirely

END_TO_END = [
    ("setup_s", "s"), ("prepare_s", "s"), ("train_s", "s"), ("sample_s", "s"),
    ("density_s", "s"), ("eval_s", "s"), ("total_s", "s"),
    ("train_steps_per_s", "steps/s"), ("sample_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
]
QUALITY = [("val_nll", "nats"), ("ks_statistic", "1"), ("on_curve_frac", "1"),
           ("failed_frac", "1")]
PER_LAYER_UNITS = {"s": "s", "self_s": "s", "rows": "rows", "bytes": "bytes",
                   "calls": "count", "flops": "flop", "gflops_per_s": "Gflop/s",
                   "kernel_bytes": "bytes", "steps": "count", "epochs": "count",
                   "numeric_errors": "count", "param_arrays": "count",
                   "useful_epoch_frac": "1", "spans": "count", "overhead_s": "s",
                   "overhead_frac": "1"}


def unit_of(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# set-up ----------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({key: BLAS_THREADS for key in BLAS_ENV})
    return env


def git_commit():
    # only look inside the checkout: git would otherwise search parent directories
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "git_commit": git_commit(),
    }


def make_inputs(spec, seed, work):
    import inputs

    raw = work / "raw.csv"
    if spec["input"] == "pv":
        record = inputs.pv_raw_csv(raw, spec["size"], seed)
        record.update(scenarios=spec["size"] - inputs.GAP_DAYS, period_length=96)
    else:
        record = inputs.curve_raw_csv(raw, spec["size"], seed)
        record.update(scenarios=spec["size"], period_length=2)
    return raw, record


def make_plan(spec, seed, seconds, trace, raw, work):
    """Everything ``pipeline.run`` needs: the argv of each stage and the files."""
    d = {stage: str(work / stage) for stage in ("prepare", "train", "sample", "eval")}
    scenarios = f"{d['prepare']}/scenarios.csv"
    model = f"{d['train']}/model.pcf"
    samples = f"{d['sample']}/samples.csv"
    eval_input = str(work / "eval_input.csv") if spec.get("eval_rows") else None
    common = ["--no-timestamp", "--seed", str(seed)]
    epochs = str(spec["epochs"])
    stages = {
        "prepare": ["prepare", "--input", str(raw), *spec["prepare"],
                    "--out-dir", d["prepare"], "--no-timestamp"],
        "train": ["train", "--data", scenarios, *spec["train"], "--epochs", epochs,
                  "--patience", epochs, "--batch-size", str(BATCH_SIZE),
                  "--val-fraction", str(VAL_FRACTION), "--out-dir", d["train"], *common],
        "sample": ["sample", "--model", model, "--n", str(spec["n"]),
                   "--out-dir", d["sample"], *common],
        "eval": ["eval", "--historical", scenarios, "--generated", eval_input or samples,
                 "--out-dir", d["eval"], "--no-timestamp"],
    }
    return {"stages": stages, "out_dirs": d, "seconds": seconds, "trace": trace,
            "min_iterations": MIN_ITERATIONS, "setup_imports": SETUP_IMPORTS,
            "env": child_env(), "cwd": str(ROOT), "model": model, "samples": samples,
            "eval_input": eval_input, "eval_rows": spec.get("eval_rows"),
            "spans_file": str(work / "spans.csv")}


# output checks -------------------------------------------------------------

def read_matrix(path, header=False):
    import numpy as np

    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2, skiprows=int(header))


def read_meta(path):
    meta = {}
    with open(f"{path}.meta", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            meta[key] = val
    return meta


def check_outputs(spec, plan, input_record):
    """Per-stage list of failed checks on the files of the last iteration."""
    import numpy as np

    d = plan["out_dirs"]
    problems = {stage: [] for stage in STAGES}
    quality = {}
    n_rows, dim = input_record["scenarios"], input_record["period_length"]

    def expect(stage, ok, message):
        if not ok:
            problems[stage].append(message)
        return ok

    hist = read_matrix(f"{d['prepare']}/scenarios.csv")
    expect("prepare", hist.shape == (n_rows, dim), f"scenarios shape {hist.shape}")
    expect("prepare", bool(np.all(np.isfinite(hist))), "non-finite scenario values")
    if spec["input"] == "pv":
        expect("prepare", read_meta(f"{d['prepare']}/scenarios.csv").get("scaling")
               == "capacity_factor", "scaling not recorded as capacity_factor")
        expect("prepare", hist.min() >= 0.0 and hist.max() <= 1.0, "capacity factor outside [0, 1]")

    log_lines = Path(f"{d['train']}/trainlog.csv").read_text().splitlines()
    log = [line.split(",") for line in log_lines if line[:1].isdigit()]
    val = [float(row[2]) for row in log]
    expect("train", len(log) == spec["epochs"], f"{len(log)} epochs logged, not {spec['epochs']}")
    expect("train", all(math.isfinite(v) for v in val), "non-finite validation NLL")
    expect("train", not any(line.startswith("# diverged") for line in log_lines), "diverged")
    best = [int(line.split("=")[1]) for line in log_lines if line.startswith("# best_epoch=")]
    if expect("train", len(best) == 1 and 0 <= best[0] < len(val), "no best epoch"):
        quality["val_nll"] = val[best[0]]
        quality["best_epoch"] = best[0]
    from pcflow.flow import load_model

    model = load_model(plan["model"])
    expect("train", (model.pca is not None) == ("pcf" in spec["train"]), "PCA head mismatch")

    samples = read_matrix(plan["samples"])
    expect("sample", samples.shape == (spec["n"], dim), f"samples shape {samples.shape}")
    expect("sample", bool(np.all(np.isfinite(samples))), "non-finite samples")
    if model.pca is not None:
        # the paper's claim: a PCA head keeps always-zero columns exactly zero
        night = np.all(hist == 0.0, axis=0)
        expect("sample", bool(np.all(samples[:, night] == 0.0)), "nonzero always-zero columns")
    if spec["input"] == "curve":
        from pcflow import toy

        quality["on_curve_frac"] = toy.fraction_on_curve(samples)
        expect("sample", quality["on_curve_frac"] >= ON_CURVE_MIN, "samples left the curve")

    eval_files = ("kde.csv", "psd.csv", "ks.txt", "cev.csv", "marginals.csv", "summary.txt")
    missing = [name for name in eval_files if not os.path.isfile(f"{d['eval']}/{name}")]
    if expect("eval", not missing, f"missing eval files {missing}"):
        kde = read_matrix(f"{d['eval']}/kde.csv", header=True)
        expect("eval", kde.shape == (KDE_POINTS, 3) and bool(np.all(np.isfinite(kde))),
               "bad kde.csv")
        ks = dict(line.split("=") for line in Path(f"{d['eval']}/ks.txt").read_text().split())
        quality["ks_statistic"] = float(ks["statistic"])
        expect("eval", 0.0 < quality["ks_statistic"] <= KS_MAX,
               f"KS statistic {quality['ks_statistic']}")
        expect("eval", len(Path(f"{d['eval']}/cev.csv").read_text().splitlines()) == 5,
               "bad cev.csv")
    return problems, quality


# metrics -------------------------------------------------------------------

def mean_time(iterations, key, stages=STAGES):
    """Mean over the run's untraced iterations of ``key`` times of ``stages``."""
    return statistics.mean(it[key][stage] for it in iterations if not it["traced"]
                           for stage in stages)


def stage_time(iterations, stage):
    """One stage's mean wall time, rescaled to the reference host speed.

    The host is shared: the speed it gives this process drifts by up to
    1.5x, within a run and between runs minutes apart. ``pipeline.Reference``
    does the same work every time, and is timed just before and just after
    every stage. The stage's mean wall time times ``REFERENCE_S`` over the
    reference's mean time around that stage is the stage's time on a host
    that runs the reference in ``REFERENCE_S``. A change in pcflow moves the
    stage's wall time and not the reference, so it shows in full.
    """
    return mean_time(iterations, "times", [stage]) * REFERENCE_S / mean_time(
        iterations, "reference", [stage])


def steps_per_epoch(n_scenarios):
    n_train = n_scenarios - math.floor(VAL_FRACTION * n_scenarios)
    return math.ceil(n_train / BATCH_SIZE)


def end_to_end(spec, input_record, iterations, import_times, peak_rss_mb):
    times = {f"{stage}_s": stage_time(iterations, stage) for stage in STAGES}
    # imports run between iterations: rescale by the reference over the run
    setup_s = statistics.median(import_times) * REFERENCE_S / mean_time(iterations, "reference")
    steps = steps_per_epoch(input_record["scenarios"]) * spec["epochs"]
    return {
        "setup_s": setup_s,
        **times,
        "total_s": sum(times.values()),
        "train_steps_per_s": steps / times["train_s"],
        "sample_rows_per_s": spec["n"] / times["sample_s"],
        "peak_rss_mb": peak_rss_mb,
    }


def iteration_time(iterations):
    """Mean time of a whole iteration, rescaled to the reference host speed."""
    wall = statistics.mean(sum(it["times"].values()) for it in iterations)
    reference = statistics.mean(t for it in iterations for t in it["reference"].values())
    return wall * REFERENCE_S / reference


def per_layer(spec, quality, iterations):
    traced = [it for it in iterations if it["traced"]]
    metrics = {name: statistics.mean(it["layers"][name] for it in traced)
               for name in traced[0]["layers"]}
    metrics["train.epochs"] = spec["epochs"]
    metrics["train.useful_epoch_frac"] = (quality["best_epoch"] + 1) / spec["epochs"]
    traced_total = iteration_time(traced)
    plain_total = iteration_time([it for it in iterations if not it["traced"]])
    metrics["trace.overhead_s"] = traced_total - plain_total
    metrics["trace.overhead_frac"] = traced_total / plain_total - 1.0
    return metrics


def run_workload(spec, seed, seconds, trace, work):
    """Run one workload in ``work``; returns the result record and report lines."""
    import pipeline

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw, input_record = make_inputs(spec, seed, work)
    plan = make_plan(spec, seed, seconds, trace, raw, work)
    with open(work / "pipeline.log", "w", encoding="utf-8") as log:
        result = pipeline.run(plan, log)
    iterations = result["iterations"]
    (work / "iterations.json").write_text(json.dumps(result))

    attempted = sum(len(it["rc"]) for it in iterations)
    failed_stages = {s for it in iterations for s, rc in it["rc"].items() if rc != 0}
    finished = not failed_stages and all(len(it["rc"]) == len(STAGES) for it in iterations)
    problems, quality = {}, {}
    if finished:
        try:
            problems, quality = check_outputs(spec, plan, input_record)
        except Exception as exc:  # an unreadable output fails every stage
            problems = {stage: [f"unreadable output: {exc!r}"] for stage in STAGES}
    failed_stages.update(stage for stage, found in problems.items() if found)
    # same seed, same commit: every iteration must write identical outputs
    for stage, key in (("train", "model"), ("sample", "samples"), ("density", "log_prob")):
        if len({it["hashes"].get(key) for it in iterations}) != 1:
            failed_stages.add(stage)
            problems.setdefault(stage, []).append(f"{key} differs between iterations")
    failed = sum(1 for it in iterations for s in it["rc"] if s in failed_stages)
    quality["failed_frac"] = failed / attempted
    correct = failed == 0 and finished

    lines = [json.dumps({"environment": environment(), "inputs": input_record,
                         "iterations": len(iterations)})]
    lines += [f"check failed: {stage}: {message}"
              for stage, found in problems.items() for message in found]
    lines += [f"check failed: density: {it['density_error']}"
              for it in iterations if it.get("density_error")]
    if correct and not trace:
        metrics = end_to_end(spec, input_record, iterations, result["import_times"],
                             result["peak_rss_mb"])
        units = dict(END_TO_END)
        wall = " ".join(f"{stage} {mean_time(iterations, 'times', [stage]):.4g}"
                        for stage in STAGES)
        lines.append(f"wall time (s): {wall}, import "
                     f"{statistics.median(result['import_times']):.4g}; reference "
                     f"{mean_time(iterations, 'reference'):.4g} s, nominal {REFERENCE_S}")
    elif correct:
        metrics = per_layer(spec, quality, iterations)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, units = {}, {}
    lines += [f"{name:34s} {value:14.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"{name:34s} {quality[name]:14.6g} {unit}  (quality guard)"
              for name, unit in QUALITY if name in quality]
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return record, lines


# main ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pcflow" / "__init__.py").is_file():
        print(f"error: no pcflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # before numpy is first imported, so this process uses them too
    os.environ.update({key: BLAS_THREADS for key in BLAS_ENV})
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        record, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), WORK / args.workload)
    except Exception:  # a broken run still ends with a result line
        traceback.print_exc()
        record = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        lines = ["check failed: the run raised; see standard error"]
    print("\n".join(lines))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
