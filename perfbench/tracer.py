"""Spans around the public functions of each pcflow module.

Wrappers are installed by attribute on the pcflow modules and classes
(every module-level alias of a wrapped function is replaced too, because
``from .x import f`` binds its own name) and the originals are put back by
``uninstall``. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

from pcflow import cli, conditioner, dataio, evaluate, flow, pca, train
from pcflow.errors import NumericError


def _rows(x):
    x = np.asarray(x)
    return 1 if x.ndim == 1 else x.shape[0]


def _net_flops(net, x):
    # 2 flops per multiply-add of every affine layer, for every input row
    return 2 * _rows(x) * sum(w.shape[0] * w.shape[1] for w in net.weights)


def _forward_count(args, result):
    net, x = args[0], args[1]
    return {"flops": _net_flops(net, x)}


def _backward_count(args, result):
    net, tape = args[0], args[1]
    return {"flops": 2 * _net_flops(net, tape.inputs[0])}


def _written_bytes(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _read_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _series_rows(args, result):
    return {"rows": len(result)}


def _input_rows(args, result):
    return {"rows": _rows(args[1])}


def _sample_rows(args, result):
    return {"rows": result.shape[0]}


def _param_arrays(args, result):
    return {"param_arrays": len(args[0])}


def _kernel_bytes(args, result):
    samples, grid = args[0], args[1]
    return {"kernel_bytes": 8 * np.size(grid) * np.size(samples)}


# (owner, attribute, span name, counter); a counter sees (args, result)
TARGETS = [
    (cli, "cmd_prepare", "cli.prepare", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_sample", "cli.sample", None),
    (cli, "cmd_eval", "cli.eval", None),
    (dataio, "load_csv", "dataio.load_csv", _series_rows),
    (dataio, "clean_and_slice", "dataio.clean_and_slice", None),
    (dataio, "scale", "dataio.scale", None),
    (dataio, "split", "dataio.split", None),
    (dataio, "save_scenarios", "dataio.save_scenarios", _written_bytes),
    (dataio, "load_scenarios", "dataio.load_scenarios", _read_bytes),
    (pca, "fit", "pca.fit", None),
    (pca, "truncate", "pca.truncate", None),
    (pca, "project", "pca.project", None),
    (pca, "embed", "pca.embed", None),
    (conditioner.DenseNet, "forward", "conditioner.forward", _forward_count),
    (conditioner.DenseNet, "backward", "conditioner.backward", _backward_count),
    (flow.CouplingLayer, "forward", "flow.forward", None),
    (flow.CouplingLayer, "inverse", "flow.inverse", None),
    (flow.CouplingLayer, "inverse_with_tape", "flow.inverse_with_tape", None),
    (flow.CouplingLayer, "backward_inverse", "flow.backward_inverse", None),
    (flow.FlowModel, "log_prob", "flow.log_prob", _input_rows),
    (flow.FlowModel, "nll_and_grads", "flow.nll_and_grads", None),
    (flow.FlowModel, "sample_array", "flow.sample_array", _sample_rows),
    (flow, "save_model", "flow.save_model", None),
    (flow, "load_model", "flow.load_model", None),
    (train, "fit_pcf", "train.fit_pcf", None),
    (train, "fit_fsnf", "train.fit_fsnf", None),
    (train, "_train_loop", "train.loop", None),
    (train, "adam_step", "train.adam_step", _param_arrays),
    (train, "_clip_gradients", "train.clip_gradients", None),
    (evaluate, "evaluate_sets", "evaluate.evaluate_sets", None),
    (evaluate, "kde_pdf", "evaluate.kde_pdf", _kernel_bytes),
    (evaluate, "ks_two_sample", "evaluate.ks_two_sample", None),
    (evaluate, "welch_psd", "evaluate.welch_psd", None),
    (evaluate, "marginal_stats", "evaluate.marginal_stats", None),
    (evaluate, "cev_report", "evaluate.cev_report", None),
    (evaluate, "write_report", "evaluate.write_report", None),
]

PCA_SPANS = ("pca.fit", "pca.truncate", "pca.project", "pca.embed")

# a NumericError leaving one of these spans counts once as a flow error
FLOW_ENTRY_SPANS = {"flow.log_prob", "flow.nll_and_grads", "flow.sample_array"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None
        self.error = None


class Tracer:
    """Records one span per wrapped call, with the index of its parent span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def span(self, name, fn, counter=None):
        """Return ``fn`` wrapped so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(record)
            record.start = clock()
            try:
                result = fn(*args, **kwargs)
            except NumericError:
                record.error = "NumericError"
                raise
            finally:
                record.end = clock()
                stack.pop()
            if counter is not None:
                record.counts = counter(args, result)
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pcflow" or name.startswith("pcflow."))]
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self.span(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            # replace the definition and every alias bound by ``from . import``
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self):
        """Index of the next span; brackets a slice of the run."""
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,start_s,end_s,error\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.parent},{s.start!r},{s.end!r},{s.error or ''}\n")


def summarize(spans, lo, hi):
    """Per-layer metrics of the spans with index in [lo, hi)."""
    child_time = {}
    for i in range(lo, hi):
        s = spans[i]
        if s.parent >= lo:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    total, self_time, calls, counts = {}, {}, {}, {}
    cev_s = 0.0
    numeric_errors = 0
    for i in range(lo, hi):
        s = spans[i]
        dur = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + dur
        self_time[s.name] = self_time.get(s.name, 0.0) + dur - child_time.get(i, 0.0)
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, val in (s.counts or {}).items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + val
        if s.name == "pca.fit" and s.parent >= lo and spans[s.parent].name == "evaluate.evaluate_sets":
            cev_s += dur
        if s.error and s.name in FLOW_ENTRY_SPANS and not (
                s.parent >= lo and spans[s.parent].name in FLOW_ENTRY_SPANS):
            numeric_errors += 1

    def tot(name):
        return total.get(name, 0.0)

    def own(name):
        return self_time.get(name, 0.0)

    def count(name, key):
        return counts.get((name, key), 0)

    cond_s = tot("conditioner.forward") + tot("conditioner.backward")
    cond_flops = count("conditioner.forward", "flops") + count("conditioner.backward", "flops")
    steps = calls.get("train.adam_step", 0)
    metrics = {
        "dataio.load_csv.s": tot("dataio.load_csv"),
        "dataio.load_csv.rows": count("dataio.load_csv", "rows"),
        "dataio.clean_and_slice.s": tot("dataio.clean_and_slice"),
        "dataio.save_scenarios.s": tot("dataio.save_scenarios"),
        "dataio.save_scenarios.bytes": count("dataio.save_scenarios", "bytes"),
        "dataio.load_scenarios.s": tot("dataio.load_scenarios"),
        "dataio.load_scenarios.bytes": count("dataio.load_scenarios", "bytes"),
        # project/embed run only under a PCA head, so on the full-space
        # workloads they are counted, not timed; their time is inside pca.s
        "pca.s": sum(tot(name) for name in PCA_SPANS),
        "pca.fit.s": tot("pca.fit"),
        "pca.fit.calls": calls.get("pca.fit", 0),
        "pca.project.calls": calls.get("pca.project", 0),
        "pca.embed.calls": calls.get("pca.embed", 0),
        "conditioner.forward.s": tot("conditioner.forward"),
        "conditioner.backward.s": tot("conditioner.backward"),
        "conditioner.calls": calls.get("conditioner.forward", 0) + calls.get("conditioner.backward", 0),
        "conditioner.flops": cond_flops,
        "conditioner.gflops_per_s": cond_flops / cond_s / 1e9 if cond_s > 0 else 0.0,
        "flow.nll_and_grads.self_s": own("flow.nll_and_grads"),
        "flow.inverse_with_tape.self_s": own("flow.inverse_with_tape"),
        "flow.backward_inverse.self_s": own("flow.backward_inverse"),
        "flow.forward.self_s": own("flow.forward"),
        "flow.log_prob.s": tot("flow.log_prob"),
        "flow.log_prob.rows": count("flow.log_prob", "rows"),
        "flow.sample_array.s": tot("flow.sample_array"),
        "flow.sample_array.rows": count("flow.sample_array", "rows"),
        "flow.numeric_errors": numeric_errors,
        "train.steps": steps,
        "train.adam_step.s": tot("train.adam_step"),
        "train.clip_gradients.s": tot("train.clip_gradients"),
        "train.loop.self_s": own("train.loop"),
        "train.param_arrays": count("train.adam_step", "param_arrays") / steps if steps else 0,
        "evaluate.kde_pdf.s": tot("evaluate.kde_pdf"),
        "evaluate.kde_pdf.kernel_bytes": count("evaluate.kde_pdf", "kernel_bytes"),
        "evaluate.ks_two_sample.s": tot("evaluate.ks_two_sample"),
        "evaluate.welch_psd.s": tot("evaluate.welch_psd"),
        "evaluate.marginal_stats.s": tot("evaluate.marginal_stats"),
        "evaluate.cev.s": cev_s,
        "evaluate.write_report.s": tot("evaluate.write_report"),
    }
    for stage in ("prepare", "train", "sample", "eval"):
        metrics[f"cli.{stage}.s"] = tot(f"cli.{stage}")
    metrics["trace.spans"] = hi - lo
    return metrics
