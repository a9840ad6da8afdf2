"""Fully connected conditioner networks with exact reverse-mode gradients.

The architecture family is fixed: affine layers with tanh on the hidden
layers and identity on the output. ``forward`` and ``backward`` are the one
implementation of the net. They take weights shaped (in, out) with biases
(out,), one net, or a stack of k nets with identical shapes, weights
(k, in, out) and biases (k, 1, out), which matmul broadcasting evaluates
together; each slice of a stack is computed by the same BLAS call as the
net on its own, so the results are bit-identical. The tape caches
activations so the backward pass returns exact gradients of
<cotangent, output> with respect to every parameter and the input.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import NumericError, UsageError

# one forward pass: each affine layer's input and post-activation output
GradientTape = namedtuple("GradientTape", "inputs activations")


def forward(weights, biases, x):
    """Evaluate the net(s) on x, (d,) or (n, d); returns (output, tape).

    The output is (out,) or (n, out) for one net, and (k, out) or
    (k, n, out) for a stack of k nets. A non-finite activation raises
    NumericError; the check is ``all_finite``, so callers run this under
    ``np.errstate(over="ignore", invalid="ignore")``.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    if h.shape[-1] != weights[0].shape[-2]:
        raise UsageError(f"expected input dim {weights[0].shape[-2]}, got {h.shape[-1]}")
    inputs, activations = [], []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(h)
        h = h @ w
        h += b
        if i < last:
            np.tanh(h, out=h)
        activations.append(h)
    # one check suffices: NaN passes through matmul and tanh, and tanh maps
    # +-inf to +-1, so a hidden layer is non-finite only if the output is
    if not all_finite(h):
        for net in np.ndindex(h.shape[:-2]):  # each net of a stack in turn
            for i, act in enumerate(activations):
                if not np.all(np.isfinite(act[net])):
                    raise NumericError(f"non-finite activation in layer {i}")
    return (h[..., 0, :] if squeeze else h), GradientTape(inputs, activations)


def backward(weights, tape: GradientTape, cotangent, grads, input_cotangent=True):
    """Gradients of <cotangent, output> w.r.t. parameters and input.

    The parameter gradients are written into ``grads``, arrays shaped like
    [W0, b0, W1, b1, ...], summed over the batch; the input cotangent is
    returned and keeps the batch shape, or is skipped and None returned
    when ``input_cotangent`` is false.
    """
    g = np.asarray(cotangent, dtype=float)
    inputs, activations = tape
    last = len(weights) - 1
    if len(activations) != last + 1:
        raise NumericError("tape does not match network depth")
    squeeze = g.ndim < activations[-1].ndim  # the forward input was (d,)
    if squeeze:
        g = g[..., None, :]
    for i in range(last, -1, -1):
        if i < last:  # through tanh: g * (1 - act^2)
            act = activations[i]
            d = act * act
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        db = grads[2 * i + 1]
        np.matmul(inputs[i].swapaxes(-1, -2), g, out=grads[2 * i])
        np.add.reduce(g, axis=-2, out=db, keepdims=db.ndim == g.ndim)
        if i == 0 and not input_cotangent:
            return None
        g = g @ weights[i].swapaxes(-1, -2)
    return g[..., 0, :] if squeeze else g


def all_finite(a):
    """Whether every entry of ``a`` is finite.

    The sum decides when it is finite; otherwise (an entry is non-finite, or
    the sum of finite entries overflows) the entries are tested one by one.
    Run it under ``np.errstate(over="ignore", invalid="ignore")``: the sum
    overflows, or adds +inf to -inf, quietly there.
    """
    return math.isfinite(np.add.reduce(a, None)) or bool(np.isfinite(a).all())


class DenseNet:
    """Feed-forward net: tanh hidden layers, linear output."""

    def __init__(self, weights, biases):
        if len(weights) != len(biases) or not weights:
            raise UsageError("weights and biases must be non-empty and equally long")
        for i in range(len(weights) - 1):
            if weights[i].shape[1] != weights[i + 1].shape[0]:
                raise UsageError(f"layer {i} output dim does not chain into layer {i + 1}")
        for w, b in zip(weights, biases):
            if b.shape != (w.shape[1],):
                raise UsageError("bias shape does not match weight columns")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError("non-finite parameter")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]

    @classmethod
    def create(cls, input_dim, output_dim, hidden_dims, rng):
        """Glorot-uniform weights, zero biases."""
        dims = [input_dim, *hidden_dims, output_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def output_dim(self):
        return self.weights[-1].shape[1]

    def parameters(self):
        """Flat list [W0, b0, W1, b1, ...]; arrays are live references."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    # an overflow leaves a non-finite value, which the check reports
    @np.errstate(over="ignore", invalid="ignore")
    def forward(self, x):
        """Evaluate the net; x is (d,) or (n, d). Returns (output, tape)."""
        return forward(self.weights, self.biases, x)

    def backward(self, tape: GradientTape, cotangent):
        """Gradients of <cotangent, output> w.r.t. parameters and input.

        For batched tapes the parameter gradients are summed over the batch;
        the input cotangent keeps the batch shape. Returns (grads, g_in).
        """
        grads = [np.empty_like(p) for p in self.parameters()]
        return grads, backward(self.weights, tape, cotangent, grads)
