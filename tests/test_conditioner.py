"""Tests for the dense conditioner networks and their exact gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import conditioner
from pcflow.conditioner import DenseNet
from pcflow.errors import NumericError, UsageError


def finite_difference_grads(net, x, cotangent, step=1e-5):
    """Central finite differences of <cotangent, net(x)> in every parameter."""
    params = net.parameters()
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = float(np.sum(cotangent * net.forward(x)[0]))
            p[idx] = orig - step
            lo = float(np.sum(cotangent * net.forward(x)[0]))
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def test_zero_network_outputs_zero():
    net = DenseNet([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)])
    out, _ = net.forward(np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(out, np.zeros(2))


def test_single_linear_layer_affine():
    net = DenseNet([np.array([[2.0]])], [np.array([1.0])])
    out, _ = net.forward(np.array([3.0]))
    assert out == pytest.approx([7.0])


def test_two_layer_hand_evaluation():
    # h = tanh(x W1 + b1); y = h W2 + b2, evaluated by hand
    w1 = np.array([[0.5, -0.25]])
    b1 = np.array([0.1, 0.2])
    w2 = np.array([[1.0], [2.0]])
    b2 = np.array([-0.3])
    net = DenseNet([w1, w2], [b1, b2])
    x = 0.8
    h = np.tanh(np.array([x * 0.5 + 0.1, x * -0.25 + 0.2]))
    expected = h[0] * 1.0 + h[1] * 2.0 - 0.3
    out, _ = net.forward(np.array([x]))
    assert out == pytest.approx([expected], abs=1e-12)


def test_forward_batched_matches_rows():
    rng = np.random.default_rng(0)
    net = DenseNet.create(3, 2, (4,), rng)
    batch = rng.standard_normal((5, 3))
    out, _ = net.forward(batch)
    for i, row in enumerate(batch):
        single, _ = net.forward(row)
        assert np.allclose(out[i], single, atol=0)


def test_backward_zero_cotangent():
    rng = np.random.default_rng(1)
    net = DenseNet.create(2, 3, (4,), rng)
    _, tape = net.forward(np.array([0.3, -0.7]))
    grads, g_in = net.backward(tape, np.zeros(3))
    assert all(np.all(g == 0) for g in grads)
    assert np.array_equal(g_in, np.zeros(2))


def test_backward_single_linear_layer():
    net = DenseNet([np.array([[1.5]])], [np.array([0.0])])
    x = np.array([2.5])
    _, tape = net.forward(x)
    grads, g_in = net.backward(tape, np.array([1.0]))
    assert np.allclose(grads[0], [[2.5]])  # dOut/dW = input
    assert np.allclose(grads[1], [1.0])  # dOut/db = 1
    assert np.allclose(g_in, [1.5])


def test_gradient_check_many_random_nets():
    rng = np.random.default_rng(2)
    for _ in range(100):
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        d_in = int(rng.integers(1, 4))
        d_out = int(rng.integers(1, 4))
        net = DenseNet.create(d_in, d_out, hidden, rng)
        x = rng.standard_normal(d_in)
        cot = rng.standard_normal(d_out)
        _, tape = net.forward(x)
        grads, _ = net.backward(tape, cot)
        expected = finite_difference_grads(net, x, cot)
        for got, want in zip(grads, expected):
            assert np.allclose(got, want, rtol=1e-4, atol=1e-7)


def test_input_cotangent_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = DenseNet.create(3, 2, (4, 4), rng)
    x = rng.standard_normal(3)
    cot = rng.standard_normal(2)
    _, tape = net.forward(x)
    _, g_in = net.backward(tape, cot)
    step = 1e-6
    for j in range(3):
        bump = np.zeros(3)
        bump[j] = step
        hi = float(np.sum(cot * net.forward(x + bump)[0]))
        lo = float(np.sum(cot * net.forward(x - bump)[0]))
        assert g_in[j] == pytest.approx((hi - lo) / (2 * step), rel=1e-5, abs=1e-8)


def test_batched_backward_sums_parameter_grads():
    rng = np.random.default_rng(4)
    net = DenseNet.create(2, 2, (3,), rng)
    batch = rng.standard_normal((4, 2))
    cot = rng.standard_normal((4, 2))
    _, tape = net.forward(batch)
    grads, g_in = net.backward(tape, cot)
    assert g_in.shape == (4, 2)
    summed = None
    for i in range(4):
        _, t = net.forward(batch[i])
        g, _ = net.backward(t, cot[i])
        summed = g if summed is None else [a + b for a, b in zip(summed, g)]
    for got, want in zip(grads, summed):
        assert np.allclose(got, want, atol=1e-12)


def test_forward_deterministic():
    rng = np.random.default_rng(5)
    net = DenseNet.create(4, 3, (4, 4), rng)
    x = rng.standard_normal(4)
    a, _ = net.forward(x)
    b, _ = net.forward(x)
    assert np.array_equal(a, b)


def test_glorot_init_bounds():
    rng = np.random.default_rng(6)
    net = DenseNet.create(10, 7, (8,), rng)
    for w in net.weights:
        bound = np.sqrt(6.0 / sum(w.shape))
        assert np.abs(w).max() <= bound
    assert all(np.all(b == 0) for b in net.biases)


def test_nonfinite_activation_names_layer():
    net = DenseNet([np.array([[1e300]]), np.array([[1e300]])],
                   [np.zeros(1), np.zeros(1)])
    # tanh saturates layer 0; the linear output layer overflows
    net.weights[0] = np.array([[1.0]])
    net.biases[1] = np.array([np.inf])
    with pytest.raises(NumericError, match="layer 1"):
        net.forward(np.array([1.0]))


@pytest.mark.parametrize("values, finite", [
    ([1.0, -2.0], True),
    ([1e308, 1e308], True),  # the sum overflows, the entries do not
    ([np.inf, -np.inf], False),  # the sum is NaN
    ([1.0, np.nan], False),
    ([-np.inf, 1.0], False),
])
def test_all_finite_tests_entries_not_their_sum(values, finite):
    with np.errstate(over="ignore", invalid="ignore"):
        assert conditioner.all_finite(np.array(values)) is finite


def test_dimension_validation():
    with pytest.raises(UsageError):
        DenseNet([np.zeros((2, 3)), np.zeros((4, 1))], [np.zeros(3), np.zeros(1)])
    with pytest.raises(UsageError):
        DenseNet([np.zeros((2, 3))], [np.zeros(2)])
    net = DenseNet.create(2, 1, (2,), np.random.default_rng(7))
    with pytest.raises(UsageError):
        net.forward(np.zeros(3))


# stacked nets -----------------------------------------------------------


def stack(nets):
    """The nets' weights (k, in, out), biases (k, 1, out) and gradient buffers."""
    weights = [np.stack([net.weights[i] for net in nets]) for i in range(len(nets[0].weights))]
    biases = [np.stack([net.biases[i] for net in nets])[:, None, :]
              for i in range(len(nets[0].biases))]
    grads = [np.empty_like(p) for pair in zip(weights, biases) for p in pair]
    return weights, biases, grads


def test_stacked_gradient_check_against_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(30):
        hidden = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3))))
        d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nets = [DenseNet.create(d_in, d_out, hidden, rng) for _ in range(2)]
        weights, biases, grads = stack(nets)
        x = rng.standard_normal((3, d_in))
        cot = rng.standard_normal((2, 3, d_out))
        _, tape = conditioner.forward(weights, biases, x)
        g_in = conditioner.backward(weights, tape, cot, grads)
        assert g_in.shape == (2, 3, d_in)
        for j, net in enumerate(nets):
            # net j's share of the stacked <cot, output> is <cot[j], net_j(x)>
            expected = finite_difference_grads(net, x, cot[j])
            for got, want in zip(grads, expected):
                assert np.allclose(got[j].reshape(want.shape), want, rtol=1e-4, atol=1e-7)


def test_stacked_nonfinite_activation_names_first_bad_net_layer():
    good = DenseNet([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
    bad = DenseNet([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
    bad.biases[0] = np.array([np.nan])
    for nets in ([good, bad], [bad, good]):
        weights, biases, _ = stack(nets)
        with pytest.raises(NumericError, match="layer 0"):
            conditioner.forward(weights, biases, np.array([1.0]))


def reference_forward(weights, biases, x):
    """One net, one layer at a time, with a finiteness check per layer."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    inputs, activations = [], []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w + b
        if i < last:
            h = np.tanh(h)
        if not np.all(np.isfinite(h)):
            raise NumericError(f"non-finite activation in layer {i}")
        activations.append(h)
    out = activations[-1]
    return (out[0] if squeeze else out), (inputs, activations)


def reference_backward(weights, tape, cotangent):
    inputs, activations = tape
    g = np.asarray(cotangent, dtype=float)
    squeeze = g.ndim == 1
    if squeeze:
        g = g[None, :]
    grads = [None] * (2 * len(weights))
    for i in range(len(weights) - 1, -1, -1):
        if i < len(weights) - 1:
            act = activations[i]
            g = g * (1.0 - act * act)
        grads[2 * i] = inputs[i].T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ weights[i].T
    return grads, (g[0] if squeeze else g)


@settings(max_examples=200, deadline=None)
@given(depth=st.integers(1, 3), dims=st.lists(st.integers(1, 6), min_size=4, max_size=4),
       rows=st.sampled_from([None, 1, 2, 5, 64]), k=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1),
       poison=st.none() | st.tuples(st.integers(0, 1), st.integers(0, 2), st.booleans(),
                                    st.sampled_from([np.nan, np.inf, -np.inf])))
def test_kernel_matches_per_layer_reference(depth, dims, rows, k, seed, poison):
    """The kernel gives the reference's bits: outputs, input cotangents, gradients, errors."""
    rng = np.random.default_rng(seed)
    shape = [dims[0], *dims[1:depth], dims[-1]]
    nets = [DenseNet.create(shape[0], shape[-1], shape[1:-1], rng) for _ in range(k)]
    for net in nets:
        for b in net.biases:
            b[:] = rng.standard_normal(b.shape)
    if poison is not None:
        j, layer, in_weight, value = poison
        net = nets[j % k]
        array = (net.weights if in_weight else net.biases)[layer % depth]
        array.flat[int(rng.integers(array.size))] = value
    x = rng.standard_normal(shape[0] if rows is None else (rows, shape[0]))

    # an infinite hidden weight can pass the forward check (tanh saturates)
    # and then make inf * 0 in the backward pass; both sides must agree on it
    with np.errstate(over="ignore", invalid="ignore"):
        check_against_reference(nets, x, k, rng)


def check_against_reference(nets, x, k, rng):
    expected, tapes, error = [], [], None
    try:
        for net in nets:  # one net after the other, as the coupling layer evaluates them
            out, tape = reference_forward(net.weights, net.biases, x)
            expected.append(out)
            tapes.append(tape)
    except NumericError as exc:
        error = str(exc)
    if k == 1:
        weights, biases = nets[0].weights, nets[0].biases
        grads = [np.empty_like(p) for p in nets[0].parameters()]
    else:
        weights, biases, grads = stack(nets)
    if error is not None:
        with pytest.raises(NumericError) as caught:
            conditioner.forward(weights, biases, x)
        assert str(caught.value) == error
        return
    out, tape = conditioner.forward(weights, biases, x)
    outs = [out] if k == 1 else list(out)
    for got, want in zip(outs, expected):
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    cot = rng.standard_normal((k, *expected[0].shape))
    g_in = conditioner.backward(weights, tape, cot[0] if k == 1 else cot, grads)
    g_ins = [g_in] if k == 1 else list(g_in)
    for j, net in enumerate(nets):
        want_grads, want_g_in = reference_backward(net.weights, tapes[j], cot[j])
        np.testing.assert_array_equal(g_ins[j], want_g_in, strict=True)
        for got, want in zip(grads, want_grads):
            np.testing.assert_array_equal(got if k == 1 else got[j].reshape(want.shape), want,
                                          strict=True)
