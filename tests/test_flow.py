"""Tests for coupling layers, the flow model, densities, sampling, and IO."""

import itertools
import math
import re
import struct
import warnings

import numpy as np
import pytest

from pcflow import dataio, errors, pca
from pcflow.conditioner import DenseNet
from pcflow.errors import DataError, ModelFormatError, ModelVersionError, NumericError, UsageError
from pcflow.flow import (
    DEFAULT_S_CAP,
    LOG_2PI,
    MAGIC,
    CouplingLayer,
    FlowModel,
    Standardizer,
    build_flow,
    load_model,
    save_model,
)


def constant_net(in_dim, out_value):
    """Single linear layer with zero weights: constant output."""
    out_value = np.atleast_1d(np.asarray(out_value, dtype=float))
    return DenseNet([np.zeros((in_dim, len(out_value)))], [out_value])


def zero_net(in_dim, out_dim):
    return constant_net(in_dim, np.zeros(out_dim))


def random_layer(dim, seed, swap=False):
    rng = np.random.default_rng(seed)
    id_dim = dim - dim // 2
    tr_dim = dim - id_dim
    return CouplingLayer(
        dim,
        DenseNet.create(id_dim, tr_dim, (4,), rng),
        DenseNet.create(id_dim, tr_dim, (4,), rng),
        swap=swap,
    )


# coupling layers --------------------------------------------------------


def test_zero_conditioners_are_identity():
    layer = CouplingLayer(4, zero_net(2, 2), zero_net(2, 2))
    z = np.array([0.1, -0.2, 0.3, 0.4])
    x, logdet = layer.forward(z)
    assert np.array_equal(x, z)
    assert logdet == 0.0


def test_constant_conditioner_hand_example():
    # effective scale ln 2 (the raw output is pre-squash, so invert the cap)
    raw = DEFAULT_S_CAP * np.arctanh(math.log(2.0) / DEFAULT_S_CAP)
    layer = CouplingLayer(2, constant_net(1, raw), constant_net(1, 1.0))
    x, logdet = layer.forward(np.array([0.5, 3.0]))
    assert np.allclose(x, [0.5, 7.0])
    assert logdet == pytest.approx(math.log(2.0))
    z, logdet_inv = layer.inverse(np.array([0.5, 7.0]))
    assert np.allclose(z, [0.5, 3.0])
    assert logdet_inv == pytest.approx(-math.log(2.0))


def test_roundtrip_random_layers():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 5, 8):
        for seed in range(3):
            layer = random_layer(dim, seed, swap=bool(seed % 2))
            z = rng.standard_normal(dim)
            x, logdet = layer.forward(z)
            back, logdet_inv = layer.inverse(x)
            assert np.abs(back - z).max() <= 1e-8
            assert logdet_inv == pytest.approx(-logdet, abs=1e-12)


def test_odd_dimension_identity_block_gets_extra():
    layer = random_layer(5, 0)
    assert layer.id_dim == 3
    z = np.arange(5.0)
    x, _ = layer.forward(z)
    assert np.array_equal(x[:3], z[:3])  # identity block unchanged
    swapped = random_layer(5, 0, swap=True)
    x2, _ = swapped.forward(z)
    assert np.array_equal(x2[-3:], z[-3:])


def numerical_logdet(fn, z, step=1e-6):
    d = len(z)
    jac = np.zeros((d, d))
    for j in range(d):
        bump = np.zeros(d)
        bump[j] = step
        jac[:, j] = (fn(z + bump) - fn(z - bump)) / (2 * step)
    return np.log(abs(np.linalg.det(jac)))


def test_logdet_matches_numerical_jacobian():
    rng = np.random.default_rng(1)
    for dim in (2, 4, 7, 8):
        layer = random_layer(dim, dim + 10, swap=bool(dim % 2))
        z = rng.standard_normal(dim)
        _, logdet = layer.forward(z)
        estimate = numerical_logdet(lambda v: layer.forward(v)[0], z)
        assert logdet == pytest.approx(estimate, rel=1e-4, abs=1e-6)


def test_coupling_net_shape_validation():
    with pytest.raises(UsageError):
        CouplingLayer(4, zero_net(3, 1), zero_net(2, 2))
    rng = np.random.default_rng(3)
    with pytest.raises(UsageError, match="identical layer shapes"):
        CouplingLayer(4, DenseNet.create(2, 2, (4,), rng), DenseNet.create(2, 2, (5,), rng))
    with pytest.raises(UsageError, match="identical layer shapes"):
        CouplingLayer(4, DenseNet.create(2, 2, (4,), rng), DenseNet.create(2, 2, (), rng))
    with pytest.raises(UsageError, match="hidden widths"):
        build_flow(4, hidden_dims=(3, 0))


# flow model densities ---------------------------------------------------


def identity_model(dim, n_layers=2):
    layers = []
    id_dim = dim - dim // 2
    tr_dim = dim - id_dim
    for k in range(n_layers):
        layers.append(CouplingLayer(dim, zero_net(id_dim, tr_dim),
                                    zero_net(id_dim, tr_dim), swap=bool(k % 2)))
    return FlowModel(layers, Standardizer.identity(dim))


def test_identity_flow_log_prob_at_origin():
    model = identity_model(4)
    assert model.log_prob(np.zeros(4)) == pytest.approx(-2.0 * LOG_2PI)


def test_identity_flow_with_pca_at_mean():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 2)) @ rng.standard_normal((2, 4)) + 1.5
    mapped = pca.truncate(pca.fit(x), n_components=2)
    model = FlowModel(identity_model(2).layers, Standardizer.identity(2), pca=mapped)
    assert model.log_prob(mapped.mean) == pytest.approx(-LOG_2PI)


def test_pca_correction_term_is_zero():
    # the injective change-of-variables correction -0.5 log|det(V^T V)|
    # vanishes because the embedding is an isometry
    rng = np.random.default_rng(3)
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal((40, 6))
        mapped = pca.truncate(pca.fit(x), n_components=3)
        v = mapped.components
        correction = -0.5 * np.log(abs(np.linalg.det(v.T @ v)))
        assert abs(correction) <= 1e-10


def test_log_prob_batched_matches_single():
    model = build_flow(3, n_layers=3, seed=4)
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((6, 3))
    lp = model.log_prob(batch)
    for i, row in enumerate(batch):
        assert lp[i] == pytest.approx(model.log_prob(row), abs=1e-12)


def test_density_normalizes_by_quadrature():
    model = build_flow(2, n_layers=3, seed=6)
    grid = np.linspace(-8.0, 8.0, 301)
    xx, yy = np.meshgrid(grid, grid)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    dens = np.exp(model.log_prob(points))
    h = grid[1] - grid[0]
    assert dens.sum() * h * h == pytest.approx(1.0, abs=1e-2)


def test_standardizer_log_det_in_density():
    # N(mu, sigma^2) via the standardizer alone, checked against the closed form
    model = FlowModel([], Standardizer(np.array([2.0]), np.array([0.5])))
    x = 2.3
    expected = -0.5 * math.log(2 * math.pi * 0.25) - 0.5 * ((x - 2.0) / 0.5) ** 2
    assert model.log_prob(np.array([x])) == pytest.approx(expected)


def test_flow_parity_must_alternate():
    layers = [random_layer(2, 0), random_layer(2, 1)]  # both unswapped
    with pytest.raises(UsageError, match="alternate"):
        FlowModel(layers, Standardizer.identity(2))


def test_sampling_density_self_consistency():
    # mean log-density of model samples approximates the negative entropy
    model = build_flow(2, n_layers=3, seed=7)
    samples = model.sample_array(10_000, seed=8)
    lp = model.log_prob(samples)
    # a second independent draw gives the same estimate within 3 joint SEs
    lp2 = model.log_prob(model.sample_array(10_000, seed=9))
    se = math.hypot(lp.std() / 100.0, lp2.std() / 100.0)
    assert abs(lp.mean() - lp2.mean()) <= 3 * se


# sampling ---------------------------------------------------------------


def test_sample_deterministic():
    model = build_flow(3, n_layers=2, seed=10)
    a = model.sample_array(50, seed=11)
    b = model.sample_array(50, seed=11)
    assert np.array_equal(a, b)


def test_identity_flow_moments():
    model = identity_model(3, n_layers=2)
    samples = model.sample_array(10_000, seed=12)
    assert np.abs(samples.mean(axis=0)).max() < 0.05
    assert np.abs(samples.var(axis=0) - 1.0).max() < 0.05


def test_pca_samples_stay_on_subspace():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    mapped = pca.truncate(pca.fit(x), n_components=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build_flow(1, standardizer=Standardizer.identity(1), pca=mapped)
    samples = model.sample_array(200, seed=13)
    # distance to the line x2 = x1
    assert np.abs(samples[:, 0] - samples[:, 1]).max() <= 1e-8


def test_sample_returns_scenario_set():
    model = build_flow(4, n_layers=2, seed=14, interval_minutes=360)
    scenario_set = model.sample(10, seed=15)
    assert scenario_set.data.shape == (10, 4)
    assert scenario_set.interval_minutes == 360


def test_sample_needs_two_rows_but_sample_array_takes_one():
    model = build_flow(4, n_layers=2, seed=14, interval_minutes=360)
    for n in (1, 0):
        with pytest.raises(UsageError, match=rf"n must be >= 2 .*got {n}"):
            model.sample(n, seed=15)
    assert model.sample_array(1, seed=15).shape == (1, 4)


def test_dim_one_fallback_warns():
    with pytest.warns(UserWarning, match="dimension 1"):
        model = build_flow(1)
    assert model.layers == []
    assert model.params.size == 0


# flat parameter vector --------------------------------------------------


def test_params_vector_backs_every_weight(tmp_path):
    built = build_flow(3, n_layers=2, hidden_dims=(4,), seed=22)
    save_model(built, tmp_path / "m.pcf")
    for model in (built, load_model(tmp_path / "m.pcf")):
        views = model.parameters()
        assert model.params.size == sum(p.size for p in views)
        x = np.random.default_rng(23).standard_normal((5, 3))
        before = model.log_prob(x)
        model.params[:] += 0.1
        assert not np.allclose(model.log_prob(x), before)
        assert np.array_equal(np.concatenate([p.ravel() for p in views]), model.params)
        assert all(np.shares_memory(p, model.params) for p in views)
        # each layer's stacks and its gradients are views of the two vectors
        for layer in model.layers:
            weights, biases, grads = layer.net
            for j, net in enumerate((layer.s_net, layer.t_net)):
                assert all(np.array_equal(w[j], v) for w, v in zip(weights, net.weights))
                assert all(np.array_equal(b[j, 0], v) for b, v in zip(biases, net.biases))
            assert all(np.shares_memory(a, model.params)
                       for a in (layer.params, *weights, *biases))
            assert all(np.shares_memory(g, model.grads) for g in (layer.grads, *grads))


def per_net_nll_and_grads(model, batch):
    """Mean NLL and gradients with the s-net and t-net evaluated one at a time."""
    n = batch.shape[0]
    u = model.standardizer.standardize(batch)
    total = np.full(n, model.standardizer.log_det)
    caches = []
    for layer in reversed(model.layers):
        u, logdet_inv, cache = layer.inverse_with_tape(u)
        caches.append(cache)
        total = total + logdet_inv
    nll = -float((total - 0.5 * np.sum(u * u, axis=-1) - 0.5 * model.dim * LOG_2PI).mean())
    grads, g = [], u / n
    for layer, cache in zip(model.layers, reversed(caches)):
        s, exp_neg_s, z_rest, (s_tape, t_tape) = cache
        g_ident, g_rest_out = layer._split(g)
        cot_raw = (-g_rest_out * z_rest + 1.0 / n) * (1.0 - (s / layer.s_cap) ** 2)
        s_grads, g_s = layer.s_net.backward(s_tape, cot_raw)
        t_grads, g_t = layer.t_net.backward(t_tape, -g_rest_out * exp_neg_s)
        g = layer._join(g_ident + g_s + g_t, g_rest_out * exp_neg_s)
        grads += s_grads + t_grads
    return nll, grads


def test_stacked_nll_and_grads_match_per_net_route_bit_for_bit():
    rng = np.random.default_rng(24)
    for trial in range(30):
        dim = int(rng.integers(2, 8))
        hidden = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(0, 3))))
        model = build_flow(dim, n_layers=int(rng.integers(1, 5)), hidden_dims=hidden,
                           seed=trial, standardizer=Standardizer(rng.standard_normal(dim),
                                                                 rng.uniform(0.5, 2, dim)))
        model.params[:] = rng.standard_normal(model.params.size)
        batch = rng.standard_normal((int(rng.integers(1, 70)), dim))
        nll, grads = model.nll_and_grads(batch)
        want_nll, want = per_net_nll_and_grads(model, batch)
        assert nll == want_nll
        assert len(grads) == len(want)
        for got, exp in zip(grads, want):
            assert got.shape == exp.shape and got.tobytes() == exp.tobytes()


def test_nll_and_grads_writes_into_model_grads():
    model = build_flow(5, n_layers=3, hidden_dims=(4, 3), seed=25)
    batch = np.random.default_rng(26).standard_normal((7, 5))
    model.grads[:] = np.nan
    nll, grads = model.nll_and_grads(batch)
    assert all(np.shares_memory(g, model.grads) for g in grads)
    want_nll, want = per_net_nll_and_grads(model, batch)
    assert nll == want_nll
    assert model.grads.tobytes() == np.concatenate([g.ravel() for g in want]).tobytes()
    # the next call overwrites the same views
    again_nll, again = model.nll_and_grads(2.0 * batch)
    want_nll, want = per_net_nll_and_grads(model, 2.0 * batch)
    assert again_nll == want_nll
    assert all(a is g for a, g in zip(again, grads))
    assert model.grads.tobytes() == np.concatenate([g.ravel() for g in want]).tobytes()


@pytest.mark.parametrize("shape", [(5,), (0, 5), (1, 2, 5)])
def test_nll_and_grads_takes_a_nonempty_batch_of_rows(shape):
    model = build_flow(5, n_layers=2, seed=25)
    with pytest.raises(UsageError, match=re.escape(
            f"batch must be (n, D) rows with n >= 1, got shape {shape}")):
        model.nll_and_grads(np.zeros(shape))


@pytest.mark.parametrize("case", ["huge rows", "huge parameters"])
def test_nll_and_grads_overflow_is_a_quiet_numeric_error(case):
    model = build_flow(2, n_layers=2)
    x = np.full((3, 2), 1e300)
    if case == "huge parameters":
        model.params[:] = 1e200
        x = np.ones((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite log-density"):
            model.log_prob(x)
        with pytest.raises(NumericError, match=r"non-finite NLL \(row 0\)"):
            model.nll_and_grads(x)


def overflowing_coupling():
    # s = 5 tanh(-1), so a transformed value of 1e307 leaves 1e307 exp(-s) = inf
    layer = CouplingLayer(2, constant_net(1, -5.0), constant_net(1, 0.0))
    return FlowModel([layer], Standardizer.identity(2)), np.array([[0.0, 1e307]])


def nan_hidden_bias():
    model = build_flow(2, n_layers=2, hidden_dims=(3,), seed=28)
    model.layers[1].t_net.biases[0][:] = np.nan  # the layer both passes evaluate first
    return model, np.ones((4, 2))


@pytest.mark.parametrize("make, message", [
    (nan_hidden_bias, "non-finite activation in layer 0"),
    (overflowing_coupling, "non-finite coupling inverse"),
])
def test_nll_and_grads_checks_fire_as_in_log_prob(make, message):
    model, x = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (model.log_prob, model.nll_and_grads):
            with pytest.raises(NumericError) as caught:
                evaluate(x)
            assert str(caught.value) == message


def test_subnormal_s_cap_is_quiet_and_finite():
    rng = np.random.default_rng(27)
    layer = CouplingLayer(4, DenseNet.create(2, 2, (3,), rng), DenseNet.create(2, 2, (3,), rng),
                          s_cap=5e-324)
    model = FlowModel([layer], Standardizer.identity(4))
    x = 1e3 * rng.standard_normal((6, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.all(np.isfinite(model.log_prob(x)))
        assert np.all(np.isfinite(model.sample_array(6, seed=1)))
        nll, _ = model.nll_and_grads(x)
    assert math.isfinite(nll)



def inverse_outcome(route, layer, x):
    """(z, logdet_inv, -s, exp(-s), z_rest) of one inverse route, or its NumericError text."""
    try:
        z, logdet_inv, cache = route(layer, x)
    except NumericError as exc:
        return str(exc)
    return tuple(np.asarray(a).tobytes() for a in (z, logdet_inv, *cache[:3]))


def test_per_net_and_stacked_inverse_agree_byte_for_byte():
    rng = np.random.default_rng(29)
    outcomes = set()
    for trial in range(60):
        dim = int(rng.integers(2, 8))
        hidden = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(0, 3))))
        id_dim, tr_dim = dim - dim // 2, dim // 2
        s_cap = [DEFAULT_S_CAP, 5e-324, float(rng.uniform(0.1, 10))][trial % 3]
        layer = CouplingLayer(dim, DenseNet.create(id_dim, tr_dim, hidden, rng),
                              DenseNet.create(id_dim, tr_dim, hidden, rng),
                              swap=bool(trial % 2), s_cap=s_cap)
        model = FlowModel([layer], Standardizer.identity(dim))
        model.params[:] = rng.standard_normal(model.params.size)
        x = rng.standard_normal((int(rng.integers(1, 40)), dim))
        if trial % 4 == 3:  # rows that overflow
            x[rng.integers(0, len(x))] = 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_net = inverse_outcome(CouplingLayer.inverse_with_tape, layer, x)
            with np.errstate(over="ignore", invalid="ignore"):  # as nll_and_grads runs it
                stacked = inverse_outcome(CouplingLayer.stacked_inverse, layer, x)
        assert per_net == stacked
        outcomes.add(type(per_net))
    assert outcomes == {tuple, str}  # both finite rows and NumericErrors were compared


def per_net_forward(layer, z):
    """``CouplingLayer.forward`` with the s-net and then the t-net evaluated on their own."""
    ident, rest = layer._split(np.asarray(z, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        raw_s, _ = layer.s_net.forward(ident)
        t, _ = layer.t_net.forward(ident)
        s = layer.s_cap * np.tanh(raw_s / layer.s_cap)
        x_rest = np.exp(s) * rest + t
        if not np.all(np.isfinite(x_rest)):
            raise NumericError("non-finite coupling output")
    return layer._join(ident, x_rest), np.sum(s, axis=-1)


def forward_outcome(route, layer, z):
    """(x, logdet) of one forward route as bytes, or its NumericError text."""
    try:
        return tuple(np.asarray(a).tobytes() for a in route(layer, z))
    except NumericError as exc:
        return str(exc)


def test_stacked_forward_agrees_with_the_per_net_forward_byte_for_byte():
    rng = np.random.default_rng(35)
    outcomes = set()
    for trial in range(60):
        dim = int(rng.integers(2, 8))
        hidden = tuple(int(rng.integers(1, 6)) for _ in range(int(rng.integers(0, 3))))
        id_dim, tr_dim = dim - dim // 2, dim // 2
        s_cap = [DEFAULT_S_CAP, 5e-324, float(rng.uniform(0.1, 10))][trial % 3]
        layer = CouplingLayer(dim, DenseNet.create(id_dim, tr_dim, hidden, rng),
                              DenseNet.create(id_dim, tr_dim, hidden, rng),
                              swap=bool(trial % 2), s_cap=s_cap)
        model = FlowModel([layer], Standardizer.identity(dim))
        model.params[:] = rng.standard_normal(model.params.size)
        # 1-D inputs on two trials in five; a row that overflows on every fourth
        one_d = trial % 5 >= 3
        z = rng.standard_normal(dim if one_d else (int(rng.integers(1, 40)), dim))
        if trial % 4 == 3:
            z[... if one_d else rng.integers(0, len(z))] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = forward_outcome(CouplingLayer.forward, layer, z)
        assert stacked == forward_outcome(per_net_forward, layer, z)
        outcomes.add((z.ndim, type(stacked)))
    # finite outputs and NumericErrors were both compared, for 1-D and 2-D inputs
    assert outcomes == {(1, tuple), (1, str), (2, tuple), (2, str)}


def test_layer_outside_a_model_runs_the_stacked_route_like_the_model_layer():
    model = build_flow(5, n_layers=3, hidden_dims=(4, 3), seed=32)
    model.params[:] = np.random.default_rng(33).standard_normal(model.params.size)
    rng = np.random.default_rng(34)
    x, g_out = rng.standard_normal((2, 9, 5))
    for layer in model.layers:
        nets = [DenseNet([w.copy() for w in net.weights], [b.copy() for b in net.biases])
                for net in (layer.s_net, layer.t_net)]
        alone = CouplingLayer(layer.dim, *nets, swap=layer.swap, s_cap=layer.s_cap)
        outcomes = []
        for each in (layer, alone):
            with np.errstate(over="ignore", invalid="ignore"):  # as nll_and_grads runs it
                z, logdet_inv, cache = each.stacked_inverse(x)
            g_in = each.backward_inverse(cache, g_out, s_cotangent_extra=0.25)
            outcomes.append([a.tobytes() for a in (z, logdet_inv, *cache[:3], g_in, each.grads)])
        assert outcomes[0] == outcomes[1]
        assert not np.shares_memory(alone.params, model.params)


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_standalone_coupling_overflow_is_a_quiet_numeric_error(direction):
    model = build_flow(4, seed=30)
    model.params[:] = np.random.default_rng(31).standard_normal(model.params.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite coupling"):
            getattr(model.layers[0], direction)(np.full((2, 4), 1e308))


# save / load ------------------------------------------------------------


def trained_like_model(seed=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5))
    mapped = pca.truncate(pca.fit(x), n_components=3)
    latent = pca.project(mapped, x)
    return build_flow(3, n_layers=3, seed=seed,
                      standardizer=Standardizer.from_data(latent), pca=mapped,
                      interval_minutes=15, scaling="minmax",
                      scale_min=-1.0, scale_max=4.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"scaling": "bogus"}, "unknown scaling mode 'bogus'"),
    ({"interval_minutes": 15.5}, "interval_minutes must be an integer, got 15.5"),
    ({"scaling": "minmax"}, "minmax scaling needs finite scale_min < scale_max, got None"),
    ({"scaling": "minmax", "scale_min": 5.0, "scale_max": 1.0}, "got 5.0 and 1.0"),
    ({"scale_min": 1.0}, "scale_min and scale_max must be given together, got 1.0 and None"),
])
def test_model_rejects_provenance_load_model_rejects(kwargs, match):
    # save_model would write a file that load_model rejects, or raise a raw KeyError
    with pytest.raises(DataError, match=match):
        build_flow(2, **kwargs)


PROVENANCE_GRID = list(itertools.product(
    (1, 15, np.int64(15), 1440, 0, 1441, 15.5, "15", None, True),  # interval_minutes
    ("none", "capacity_factor", "minmax", "log"),  # scaling
    [(None, None), (0.0, 1.0), (np.float64(0.25), 0.75), (-3, 7), (5.0, 1.0), (1.0, None),
     (-math.inf, 1.0), (math.nan, 1.0), (math.nan, math.nan), ("0", "1")],  # the bounds
))


def test_sets_and_models_agree_on_provenance_and_round_trip_it(tmp_path):
    # neither writer may produce a file that its reader rejects (docs/model_format.md)
    for interval, scaling, (low, high) in PROVENANCE_GRID:
        fields = dict(interval_minutes=interval, scaling=scaling, scale_min=low, scale_max=high)
        built = []
        rows = [[0.0, 1.0], [0.2, 0.3]]
        for build, args in ((dataio.ScenarioSet, (rows, 2)), (build_flow, (2,))):
            try:
                built.append(build(*args, **fields))
            except DataError as exc:
                built.append(str(exc))
        scenario_set, model = built
        if isinstance(scenario_set, str) or isinstance(model, str):
            assert scenario_set == model, fields
            continue
        dataio.save_scenarios(scenario_set, tmp_path / "s.csv")
        save_model(model, tmp_path / "m.pcf")
        for back in (dataio.load_scenarios(tmp_path / "s.csv"), load_model(tmp_path / "m.pcf")):
            assert [getattr(back, key) for key in fields] == list(fields.values()), fields


def test_model_roundtrip_identical_log_prob(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.pcf"
    save_model(model, path)
    back = load_model(path)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((100, 5))
    assert np.array_equal(model.log_prob(x), back.log_prob(x))
    assert back.scaling == "minmax"
    assert (back.scale_min, back.scale_max) == (-1.0, 4.0)
    assert back.interval_minutes == 15


def test_model_roundtrip_keeps_written_cev(tmp_path):
    model = trained_like_model()
    path = tmp_path / "m.pcf"
    save_model(model, path)
    raw = path.read_bytes()
    d, m = struct.unpack_from("<II", raw, 37)
    (written,) = struct.unpack_from("<d", raw, 45 + 8 * (2 * d + d * m))
    assert load_model(path).pca.cev == written == model.pca.cev
    assert 0.0 < written < 1.0


def test_model_roundtrip_bit_exact_parameters(tmp_path):
    model = build_flow(4, n_layers=2, seed=18)
    path = tmp_path / "m.pcf"
    save_model(model, path)
    back = load_model(path)
    for a, b in zip(model.parameters(), back.parameters()):
        assert np.array_equal(a, b)
    assert back.params.tobytes() == model.params.tobytes()


@pytest.mark.parametrize("code, scaling, bounds", [
    (0, "none", (None, None)), (1, "capacity_factor", (None, None)), (2, "minmax", (-1.0, 4.0)),
])
def test_model_scaling_code_round_trips(tmp_path, code, scaling, bounds):
    # the byte at offset 20 is the mode's position in dataio.SCALING_MODES
    model = build_flow(2, n_layers=2, seed=23, scaling=scaling,
                       scale_min=bounds[0], scale_max=bounds[1])
    path = tmp_path / "m.pcf"
    save_model(model, path)
    assert path.read_bytes()[20] == code == dataio.SCALING_MODES.index(scaling)
    back = load_model(path)
    assert (back.scaling, back.scale_min, back.scale_max) == (scaling, *bounds)


def test_fitting_refuses_what_numpy_or_physical_memory_cannot_hold(monkeypatch):
    # 4096 pages of 1024 bytes: 2**19 float64 values fit, and nothing is allocated here
    monkeypatch.setattr(errors.os, "sysconf",
                        {"SC_PHYS_PAGES": 4096, "SC_PAGE_SIZE": 1024}.__getitem__)
    with errors.fitting("too large", [(2**18,), (2**9, 2**9)]):
        pass
    for shapes in ([(2**19 + 1,)], [(2**18,), (2**9, 2**9), (1,)], [(2**62,)]):
        with pytest.raises(UsageError, match="too large"), errors.fitting("too large", shapes):
            raise AssertionError("the step ran")

    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(errors.os, "sysconf", no_such_name)
    with errors.fitting("too large", [(2**40,)]):
        pass  # no memory to compare against
    with pytest.raises(UsageError, match="too large"), errors.fitting("too large", [(2**62,)]):
        raise AssertionError("numpy's own limit still holds")
    # a size that passes both checks and still runs out, as under a memory limit
    with pytest.raises(UsageError, match="too large"), errors.fitting("too large", [(8,)]):
        raise MemoryError


def test_corrupted_magic(tmp_path):
    model = build_flow(2, n_layers=2, seed=19)
    path = tmp_path / "m.pcf"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="not a pcflow model"):
        load_model(path)


def test_newer_major_version_rejected(tmp_path):
    model = build_flow(2, n_layers=2, seed=20)
    path = tmp_path / "m.pcf"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # bump the little-endian major version
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelVersionError, match="99"):
        load_model(path)


def test_truncated_file(tmp_path):
    model = build_flow(2, n_layers=2, seed=21)
    path = tmp_path / "m.pcf"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)


def test_model_file_errors_name_the_file(tmp_path):
    path = tmp_path / "m.pcf"
    path.write_bytes(MAGIC + b"\x01\x00")  # ends inside the version field
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))}: truncated model file$"):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    model = build_flow(2, n_layers=2, seed=22)
    path = tmp_path / "m.pcf"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(path)
