"""Fully connected conditioner networks with exact reverse-mode gradients.

The architecture family is fixed: affine layers with tanh on the hidden
layers and identity on the output. Forward passes can be batched; the tape
caches activations so the backward pass returns exact gradients of
<cotangent, output> with respect to every parameter and the input.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import NumericError, UsageError

# one forward pass: each affine layer's input and post-activation output
GradientTape = namedtuple("GradientTape", "inputs activations")


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
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
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

    def forward(self, x):
        """Evaluate the net; x is (d,) or (n, d). Returns (output, tape)."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.input_dim:
            raise UsageError(f"expected input dim {self.input_dim}, got {h.shape[1]}")
        inputs, activations = [], []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            h = h @ w + b
            if i < last:
                h = np.tanh(h)
            if not np.all(np.isfinite(h)):
                raise NumericError(f"non-finite activation in layer {i}")
            activations.append(h)
        tape = GradientTape(inputs, activations)
        out = activations[-1]
        return (out[0] if squeeze else out), tape

    def backward(self, tape: GradientTape, cotangent):
        """Gradients of <cotangent, output> w.r.t. parameters and input.

        For batched tapes the parameter gradients are summed over the batch;
        the input cotangent keeps the batch shape.
        """
        g = np.asarray(cotangent, dtype=float)
        squeeze = g.ndim == 1
        if squeeze:
            g = g[None, :]
        if len(tape.activations) != len(self.weights):
            raise NumericError("tape does not match network depth")
        grads = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            if i < len(self.weights) - 1:
                act = tape.activations[i]
                g = g * (1.0 - act * act)  # through tanh
            grads[2 * i] = tape.inputs[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ self.weights[i].T
        return grads, (g[0] if squeeze else g)
