"""Tests for the Adam optimizer, the training loop, and the two fit modes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pcflow import dataio, toy
from pcflow.flow import LOG_2PI, FlowModel, build_flow
from pcflow.train import (
    GRAD_CLIP_NORM,
    AdamState,
    TrainConfig,
    TrainLog,
    _clip_gradients,
    adam_step,
    fit_fsnf,
    fit_pcf,
)
from pcflow.errors import DivergedError, NumericError, UsageError


def gaussian_sets(seed=0, n=300, d=2):
    rng = np.random.default_rng(seed)
    cov = np.array([[1.0, 0.4], [0.4, 0.8]]) if d == 2 else np.eye(d)
    data = rng.multivariate_normal(np.zeros(d), cov, size=n)
    full = dataio.ScenarioSet(data=data, period_length=d,
                              interval_minutes=(24 * 60) // d)
    return dataio.split(full, 0.2, seed)


# nll_and_grads ----------------------------------------------------------


def test_identity_flow_nll_at_origin():
    model = build_flow(2, n_layers=2, seed=0)
    model.params[:] = 0.0
    nll, _ = model.nll_and_grads(np.zeros((1, 2)))
    assert nll == pytest.approx(LOG_2PI)


def test_nll_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for trial in range(20):
        dim = int(rng.integers(2, 5))
        model = build_flow(dim, n_layers=int(rng.integers(1, 4)),
                           hidden_dims=(2,), seed=trial)
        batch = rng.standard_normal((3, dim))
        nll, grads = model.nll_and_grads(batch)
        params = model.parameters()
        step = 1e-5
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + step
                hi, _ = model.nll_and_grads(batch)
                p[idx] = orig - step
                lo, _ = model.nll_and_grads(batch)
                p[idx] = orig
                want = (hi - lo) / (2 * step)
                assert g[idx] == pytest.approx(want, rel=1e-4, abs=1e-8)


def test_nll_invariant_under_row_duplication():
    model = build_flow(3, n_layers=2, seed=2)
    batch = np.random.default_rng(3).standard_normal((4, 3))
    nll, grads = model.nll_and_grads(batch)
    nll2, grads2 = model.nll_and_grads(np.vstack([batch, batch]))
    assert nll2 == pytest.approx(nll)
    for a, b in zip(grads, grads2):
        assert np.allclose(a, b, atol=1e-12)


# adam_step --------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    params = np.array([1.0, 2.0])
    state = AdamState.for_params(params)
    adam_step(params, np.zeros(2), state, TrainConfig())
    assert np.array_equal(params, [1.0, 2.0])


def test_adam_first_step_hand_value():
    # t=1, g=1: m_hat = 1, v_hat = 1 -> update = -lr / (1 + eps) ~ -9.99999e-4
    params = np.array([0.0])
    state = AdamState.for_params(params)
    adam_step(params, np.ones(1), state, TrainConfig(learning_rate=1e-3))
    assert params[0] == pytest.approx(-9.99999990e-4, rel=1e-8)


def test_adam_tiny_learning_rate_is_noop():
    params = np.array([1.0])
    state = AdamState.for_params(params)
    adam_step(params, np.ones(1), state, TrainConfig(learning_rate=1e-16))
    assert params[0] == pytest.approx(1.0, abs=1e-15)


def test_adam_deterministic():
    def run():
        params = np.full(3, 0.5)
        state = AdamState.for_params(params)
        for _ in range(2):
            adam_step(params, np.full(3, 0.3), state, TrainConfig())
        return params.copy()

    assert np.array_equal(run(), run())


def test_clip_gradients_caps_the_norm():
    grads = np.random.default_rng(8).standard_normal(130)
    big = grads * (3.0 * GRAD_CLIP_NORM / np.linalg.norm(grads))
    clipped = _clip_gradients(big)
    assert isinstance(clipped, np.ndarray) and clipped.shape == big.shape
    assert np.linalg.norm(clipped) == pytest.approx(GRAD_CLIP_NORM, rel=1e-12)
    assert np.allclose(clipped * 3.0, big, rtol=1e-12)
    # norms exactly at and below the cap pass through untouched
    for value in (GRAD_CLIP_NORM / 2, GRAD_CLIP_NORM / 4):
        small = np.full(4, value)
        before = small.copy()
        assert np.array_equal(_clip_gradients(small), before)
        assert np.array_equal(small, before)


def test_config_validation():
    with pytest.raises(UsageError):
        TrainConfig(epochs=0)
    with pytest.raises(UsageError):
        TrainConfig(learning_rate=-1.0)


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, 0.0])
def test_config_rejects_non_finite_learning_rate(learning_rate):
    with pytest.raises(UsageError, match="learning_rate must be finite and positive"):
        TrainConfig(learning_rate=learning_rate)


def test_config_rejects_negative_patience():
    with pytest.raises(UsageError, match="early_stop_patience must be >= 0, got -1"):
        TrainConfig(early_stop_patience=-1)
    assert TrainConfig(early_stop_patience=0).early_stop_patience == 0


# training loops ---------------------------------------------------------


def test_fit_pcf_collinear_toy_is_finite():
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 1, 200)
    data = np.stack([t, t], axis=-1) + [0.5, 0.5]
    full = dataio.ScenarioSet(data=data, period_length=2, interval_minutes=720)
    train_set, val_set = dataio.split(full, 0.2, 0)
    with pytest.warns(UserWarning, match="dimension 1"):
        model, log = fit_pcf(train_set, val_set, cev_target=0.99,
                             config=TrainConfig(epochs=5, seed=0))
    assert np.all(np.isfinite(log.val_nll))
    assert not log.diverged


def test_fit_pcf_deterministic():
    train_set, val_set = gaussian_sets()
    config = TrainConfig(epochs=5, seed=7)
    _, log_a = fit_pcf(train_set, val_set, n_components=2, config=config)
    _, log_b = fit_pcf(train_set, val_set, n_components=2, config=config)
    assert log_a.train_nll == log_b.train_nll
    assert log_a.val_nll == log_b.val_nll
    assert log_a.best_epoch == log_b.best_epoch


def test_fit_fsnf_full_rank_gaussian_stable():
    train_set, val_set = gaussian_sets(seed=5)
    model, log = fit_fsnf(train_set, val_set,
                          config=TrainConfig(epochs=30, seed=1))
    assert not log.diverged
    assert np.all(np.isfinite(log.val_nll))
    assert min(log.val_nll) < log.val_nll[0]  # training actually improves


def test_fit_returns_best_checkpoint():
    train_set, val_set = gaussian_sets(seed=6)
    model, log = fit_fsnf(train_set, val_set,
                          config=TrainConfig(epochs=25, seed=2))
    replayed = -float(np.mean(model.log_prob(val_set.data)))
    assert replayed == pytest.approx(min(log.val_nll), abs=1e-9)
    assert log.best_epoch == int(np.argmin(log.val_nll))


def test_early_stopping_cuts_run_short():
    train_set, val_set = gaussian_sets(seed=7)
    _, log = fit_fsnf(train_set, val_set,
                      config=TrainConfig(epochs=400, seed=3, early_stop_patience=5))
    assert log.epochs_completed < 400
    assert log.epochs_completed - 1 - log.best_epoch > 5


def test_fsnf_manifold_runaway_below_minus_50():
    # exact-manifold data: the full-space flow compresses without bound
    # while the PCA-reduced fit stays bounded
    full = toy.make_pv_like(400, 2)
    train_set, val_set = dataio.split(full, 0.2, 0)
    config = TrainConfig(epochs=40, seed=0, early_stop_patience=10**9)
    _, log_fsnf = fit_fsnf(train_set, val_set, config=config)
    assert min(log_fsnf.train_nll) < -50.0
    _, log_pcf = fit_pcf(train_set, val_set, cev_target=0.99, config=config)
    assert min(log_pcf.train_nll) > -50.0
    assert np.all(np.isfinite(log_pcf.train_nll))


def fail_on_call(monkeypatch, name, call):
    """Make the call-th call of FlowModel.<name> raise NumericError."""
    original = getattr(FlowModel, name)
    calls = []

    def failing(self, *args, **kwargs):
        calls.append(name)
        if len(calls) == call:
            raise NumericError("injected")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FlowModel, name, failing)


# 240 training rows make 4 batches an epoch: the 6th gradient call is in
# the second epoch (epoch 1), and so is the 2nd validation pass
DIVERGE_IN_EPOCH_1 = [("nll_and_grads", 6), ("log_prob", 2)]


@pytest.mark.parametrize("name, call", DIVERGE_IN_EPOCH_1)
def test_fit_fsnf_logs_divergence(monkeypatch, tmp_path, name, call):
    train_set, val_set = gaussian_sets(seed=8)
    config = TrainConfig(epochs=4, seed=3)
    _, clean = fit_fsnf(train_set, val_set, config=config)
    fail_on_call(monkeypatch, name, call)
    model, log = fit_fsnf(train_set, val_set, config=config)
    assert log.diverged and log.diverged_epoch == 1 and log.best_epoch == 0
    if name == "nll_and_grads":  # the failed epoch is not logged
        assert log.train_nll == clean.train_nll[:1] and log.val_nll == clean.val_nll[:1]
    else:  # the failed validation pass is logged as NaN
        assert log.train_nll == clean.train_nll[:2] and log.val_nll[0] == clean.val_nll[0]
        assert math.isnan(log.val_nll[1])
    # the epoch-0 parameters are restored
    assert -float(np.mean(model.log_prob(val_set.data))) == clean.val_nll[0]
    log.write_csv(tmp_path / "log.csv")
    assert (tmp_path / "log.csv").read_text().endswith(
        "# best_epoch=0\n# diverged_at_epoch=1\n")


@pytest.mark.parametrize("name, call", DIVERGE_IN_EPOCH_1)
def test_fit_pcf_raises_on_divergence(monkeypatch, name, call):
    train_set, val_set = gaussian_sets(seed=8)
    fail_on_call(monkeypatch, name, call)
    with pytest.raises(DivergedError, match="training loss became non-finite"):
        fit_pcf(train_set, val_set, n_components=2, config=TrainConfig(epochs=4, seed=3))


def test_trainlog_csv_roundtrip(tmp_path):
    log = TrainLog(train_nll=[1.5, 1.2], val_nll=[1.6, 1.4], best_epoch=1)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    text = path.read_text()
    assert "epoch,train_nll,val_nll" in text
    assert "1,1.2,1.4" in text
    assert "# best_epoch=1" in text


TRAIN_IN_CHILD = """
import sys
import numpy as np
from pcflow.flow import save_model
from pcflow.train import TrainConfig, fit_fsnf
rng = np.random.default_rng(5)
steps = np.arange(96)
bell = np.clip(np.sin(np.pi * (steps - 24) / 48), 0.0, None)  # zero at night
rows = rng.uniform(0.2, 1.0, (300, 1)) * bell + 0.01 * rng.standard_normal((300, 96)) * (bell > 0)
model, _ = fit_fsnf(rows[:240], rows[240:], config=TrainConfig(epochs=3, seed=1))
save_model(model, sys.argv[1])
"""


def test_training_bytes_independent_of_blas_threads(tmp_path):
    models = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / f"threads{threads}.pcf"
        subprocess.run([sys.executable, "-c", TRAIN_IN_CHILD, str(path)], env=env,
                       capture_output=True, timeout=120, check=True)
        models.append(path.read_bytes())
    assert models[0] == models[1]
