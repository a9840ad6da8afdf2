"""The pipeline, repeated in this process for a while.

Each iteration runs prepare, train, sample, a density pass and eval through
``pcflow.cli.main``, timing each stage from outside and hashing the files
that must not change between iterations. Between iterations, fresh
interpreters time ``import pcflow``, spread over the run like the stages.
With tracing on, every other iteration runs under the tracer, so the run
measures its own overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

from inputs import sha256

STAGES = ("prepare", "train", "sample", "density", "eval")


def _run_cli(main, argv):
    try:
        return int(main(argv) or 0)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except Exception:  # a raw traceback is a failed stage, not a failed benchmark
        traceback.print_exc()
        return 1


def _density(samples_path, model_path):
    """The repository README's library use: read generated rows back and score them."""
    from pcflow import dataio, flow

    rows = dataio.load_scenarios(samples_path)
    log_prob = flow.load_model(model_path).log_prob(rows.data)
    if log_prob.shape != (rows.n_scenarios,):
        raise ValueError(f"log_prob shape {log_prob.shape} for {rows.n_scenarios} rows")
    return hashlib.sha256(log_prob.tobytes()).hexdigest()


def _head_copy(src, dst, rows):
    """First ``rows`` data lines of a scenario CSV, with its sidecar."""
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        kept = 0
        for line in fin:
            if kept == rows:
                break
            fout.write(line)
            kept += not line.startswith("#")
    shutil.copyfile(f"{src}.meta", f"{dst}.meta")


class Reference:
    """A fixed mix of the pipeline's kinds of work that no pcflow change can move.

    Number formatting and parsing (as in the CSV reader and writer), small
    matmuls (the conditioner) and a large elementwise exp (the KDE). Timed
    before and after every stage, it measures how fast the host ran this
    process around that stage.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random(20_000).tolist()
        self.x, self.w = rng.random((256, 96)), rng.random((96, 96))
        self.grid = rng.random(900_000)

    def __call__(self):
        start = time.perf_counter()
        text = ",".join(f"{v:.6g}" for v in self.values)
        sum(float(cell) for cell in text.split(","))
        for _ in range(140):
            self.x @ self.w
        np.exp(-0.5 * self.grid * self.grid).sum()
        return time.perf_counter() - start


def time_import(env, cwd):
    """Wall time of one fresh interpreter importing pcflow (numpy included)."""
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import pcflow"], env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _iteration(plan, record, reference):
    from pcflow import cli

    before = reference()
    for stage in STAGES:
        out_dir = plan["out_dirs"].get(stage)
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
        if stage == "eval" and plan["eval_input"]:
            _head_copy(plan["samples"], plan["eval_input"], plan["eval_rows"])
        start = time.perf_counter()
        if stage == "density":
            try:
                record["hashes"]["log_prob"] = _density(plan["samples"], plan["model"])
                rc = 0
            except Exception as exc:  # reported as a failed stage
                traceback.print_exc()
                record["density_error"] = f"{type(exc).__name__}: {exc}"
                rc = 1
        else:
            rc = _run_cli(cli.main, plan["stages"][stage])
        record["times"][stage] = time.perf_counter() - start
        after = reference()
        record["reference"][stage] = (before + after) / 2.0
        before = after
        record["rc"][stage] = rc
        if rc != 0:
            return
    for key in ("model", "samples"):
        if os.path.exists(plan[key]):
            record["hashes"][key] = sha256(plan[key])


def run(plan, log):
    """Repeat the pipeline for ``plan["seconds"]``; stage output goes to ``log``.

    Returns the per-iteration records, the import times and the peak RSS,
    read before anything else runs in this process.
    """
    import resource

    tracer = None
    if plan["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    seconds, imports = plan["seconds"], plan["setup_imports"]
    start = time.perf_counter()
    iterations, import_times = [], []
    reference = Reference()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        record = {"traced": traced, "times": {}, "reference": {}, "rc": {}, "hashes": {}}
        if traced:
            tracer.install()
            lo = tracer.mark()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                _iteration(plan, record, reference)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record["layers"] = tracer_mod.summarize(tracer.spans, lo, tracer.mark())
        iterations.append(record)
        if any(rc != 0 for rc in record["rc"].values()):
            break
        elapsed = time.perf_counter() - start
        # imports keep pace with the run, so they see the same host as the stages
        due = imports if elapsed >= seconds else math.ceil(imports * elapsed / seconds)
        while len(import_times) < due:
            import_times.append(time_import(plan["env"], plan["cwd"]))
        done = len(iterations)
        enough = done >= plan["min_iterations"] and (tracer is None or done % 2 == 0)
        # stop before an iteration that would end past the deadline
        per_iteration = (time.perf_counter() - start) / done
        pending = 1 if tracer is None else 2  # a traced run ends on a pair
        if enough and (done + pending) * per_iteration > seconds:
            break
    while len(import_times) < imports:
        import_times.append(time_import(plan["env"], plan["cwd"]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(plan["spans_file"])
    return {"iterations": iterations, "import_times": import_times, "peak_rss_mb": peak_rss_mb}
