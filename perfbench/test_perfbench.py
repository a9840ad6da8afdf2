"""Tests of the benchmark itself: tiny runs, metric schema, tracer removal.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(spec):
    """The workload at a size that finishes in a few seconds."""
    small = dict(spec, epochs=2, n=40)
    small["size"] = 20 if spec["input"] == "pv" else 200
    if "eval_rows" in spec:
        small["eval_rows"] = 20
    return small


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_IMPORTS", 2)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 2)
    # two epochs cannot fit the data; these runs test the plumbing only
    monkeypatch.setattr(run, "KS_MAX", 1.0)
    monkeypatch.setattr(run, "ON_CURVE_MIN", 0.0)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name, quick, tmp_path):
    record, lines = run.run_workload(tiny(run.WORKLOADS[name]), 3, 0.0, False, tmp_path / name)
    assert record["correct"], lines
    assert record["failed"] == 0
    assert record["attempted"] == 2 * len(run.STAGES)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in record["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(quick, tmp_path):
    spec = tiny(run.WORKLOADS["pv_pcf"])
    record, lines = run.run_workload(spec, 4, 0.0, True, tmp_path / "traced")
    assert record["correct"], lines
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["pca.fit.calls"] == 2  # once in train, once in eval
    assert metrics["flow.sample_array.rows"] == spec["n"]
    assert metrics["train.steps"] == spec["epochs"] * run.steps_per_epoch(spec["size"] - inputs.GAP_DAYS)
    assert (tmp_path / "traced" / "spans.csv").is_file()


def test_benchmark_file_matches_runner():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]


def test_stage_times_are_rescaled_to_the_reference_speed():
    plain = {"traced": False, "times": dict.fromkeys(run.STAGES, 1.0),
             "reference": dict.fromkeys(run.STAGES, 2 * run.REFERENCE_S)}
    traced = dict(plain, traced=True, times=dict.fromkeys(run.STAGES, 9.0))
    # a host at half the reference speed doubles the wall time; traced runs are left out
    assert run.stage_time([plain, traced], "train") == 0.5


def _originals():
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, _, _ in tracer.TARGETS}


def test_tracer_records_spans_and_restores_originals():
    import pcflow
    from pcflow import cli, flow, pca

    before = _originals()
    save_model, fit = flow.save_model, pca.fit
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.save_model is not save_model and pcflow.fit is not fit
        model = flow.build_flow(2, n_layers=2, hidden_dims=(3,), seed=0)
        model.log_prob(np.zeros((5, 2)))
    finally:
        t.uninstall()
    assert _originals() == before
    assert cli.save_model is save_model and flow.save_model is save_model
    assert pcflow.fit is fit and pca.fit is fit

    names = [s.name for s in t.spans]
    assert names[0] == "flow.log_prob" and t.spans[0].parent == -1
    assert names.count("flow.inverse") == 2
    assert names.count("conditioner.forward") == 4
    assert all(t.spans[s.parent].name == "flow.inverse_with_tape"
               for s in t.spans if s.name == "conditioner.forward")
    summary = tracer.summarize(t.spans, 0, len(t.spans))
    assert summary["flow.log_prob.rows"] == 5
    assert summary["conditioner.calls"] == 4
    assert summary["conditioner.flops"] == 4 * 2 * 5 * (1 * 3 + 3 * 1)
    # uninstalled wrappers record nothing more
    model.log_prob(np.zeros((5, 2)))
    assert len(t.spans) == len(names)


def test_inputs_depend_only_on_seed(tmp_path):
    a = inputs.pv_raw_csv(tmp_path / "a.csv", 12, seed=5)
    b = inputs.pv_raw_csv(tmp_path / "b.csv", 12, seed=5)
    c = inputs.pv_raw_csv(tmp_path / "c.csv", 12, seed=6)
    assert a == b and a["sha256"] != c["sha256"]
    assert a["rows"] == 12 * inputs.STEPS_PER_DAY - 2  # two of six gaps drop a row
    assert inputs.curve_raw_csv(tmp_path / "d.csv", 10, 1) == \
        inputs.curve_raw_csv(tmp_path / "e.csv", 10, 1)


def test_broken_run_still_prints_a_failed_result(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(run, "run_workload", broken)
    assert run.main(["--workload", "toy_fsnf", "--seed", "1", "--seconds", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy_fsnf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
