"""Affine coupling flow with an optional PCA head.

The generative direction is: base Gaussian sample -> coupling layers ->
de-standardize -> PCA embedding (if present). Densities are evaluated in
the opposite direction; the PCA step is an isometry and contributes exactly
zero to the log-density.
"""

from __future__ import annotations

import math
import os
import struct
import warnings

import numpy as np

from . import pca as pca_mod
from . import conditioner
from .conditioner import DenseNet
from .dataio import ScenarioSet
from .errors import ModelFormatError, ModelVersionError, NumericError, UsageError
from .pca import PcaMap

LOG_2PI = math.log(2.0 * math.pi)

# bound on the scale conditioner output; keeps exp() sane early in training
DEFAULT_S_CAP = 5.0

# floor for standardizer scales; exactly constant dimensions get scale 1
STD_FLOOR = 1e-12


class Standardizer:
    """Fixed per-dimension affine map with a constant log-det."""

    def __init__(self, shift, scale):
        self.shift = np.asarray(shift, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        if self.shift.shape != self.scale.shape or self.shift.ndim != 1:
            raise UsageError("shift and scale must be 1-D and equally long")
        if not (np.all(np.isfinite(self.shift)) and np.all(np.isfinite(self.scale))
                and np.all(self.scale > 0)):
            raise UsageError("standardizer shifts and scales must be finite, scales positive")
        # log-det of the standardizing (inverse-generative) direction
        self.log_det = -float(np.sum(np.log(self.scale)))

    @classmethod
    def from_data(cls, data):
        data = np.asarray(data, dtype=float)
        # data near the float64 limit overflows here; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            std = data.std(axis=0)
        if not np.all(np.isfinite(std)):  # also when the mean overflows
            raise NumericError("per-dimension variance overflows float64: rescale the data")
        scale = np.where(std > STD_FLOOR, std, 1.0)
        return cls(data.mean(axis=0), scale)

    @classmethod
    def identity(cls, dim):
        return cls(np.zeros(dim), np.ones(dim))

    def standardize(self, x):
        return (x - self.shift) / self.scale

    def destandardize(self, z):
        return z * self.scale + self.shift


class CouplingLayer:
    """RealNVP affine coupling layer.

    One block of coordinates passes through unchanged and conditions an
    element-wise affine map of the other block. ``swap`` selects which block
    is the identity one; the scale output is squashed to (-s_cap, s_cap).
    The s-net and the t-net have identical shapes, so training can evaluate
    them as one stack (``stacked_inverse``).
    """

    def __init__(self, dim, s_net: DenseNet, t_net: DenseNet, swap=False, s_cap=DEFAULT_S_CAP):
        id_dim = dim - dim // 2  # identity block keeps the extra dim when odd
        tr_dim = dim - id_dim
        if s_net.input_dim != id_dim or s_net.output_dim != tr_dim:
            raise UsageError(f"s_net must map {id_dim} -> {tr_dim}")
        if t_net.input_dim != id_dim or t_net.output_dim != tr_dim:
            raise UsageError(f"t_net must map {id_dim} -> {tr_dim}")
        if [p.shape for p in s_net.parameters()] != [p.shape for p in t_net.parameters()]:
            raise UsageError("s_net and t_net must have identical layer shapes")
        if not (s_cap > 0 and math.isfinite(s_cap)):
            raise UsageError(f"s_cap must be finite and positive, got {s_cap!r}")
        self.dim = dim
        self.id_dim = id_dim
        self.swap = bool(swap)
        self.s_net = s_net
        self.t_net = t_net
        self.s_cap = float(s_cap)
        # identity block first half normally, second half when swapped
        cut = tr_dim if self.swap else id_dim
        first, second = slice(None, cut), slice(cut, None)
        self._columns = (second, first) if self.swap else (first, second)

    def _split(self, v):
        ident, rest = self._columns
        return v[..., ident], v[..., rest]

    def _join(self, ident, transformed):
        if self.swap:
            return np.concatenate([transformed, ident], axis=-1)
        return np.concatenate([ident, transformed], axis=-1)

    def _cap(self, raw):
        # a subnormal s_cap overflows raw / s_cap to +-inf, which tanh maps to +-1
        with np.errstate(over="ignore"):
            return self.s_cap * np.tanh(raw / self.s_cap)

    def forward(self, z):
        """z -> x; returns (x, logdet) with logdet = sum of scale outputs."""
        z = np.asarray(z, dtype=float)
        ident, rest = self._split(z)
        s = self._cap(self.s_net.forward(ident)[0])
        t, _ = self.t_net.forward(ident)
        x_rest = np.exp(s) * rest + t
        if not np.all(np.isfinite(x_rest)):
            raise NumericError("non-finite coupling output")
        return self._join(ident, x_rest), s.sum(axis=-1)

    def inverse(self, x):
        """x -> z; returns (z, logdet_inv) with logdet_inv = -sum(s)."""
        z, logdet_inv, _ = self.inverse_with_tape(x)
        return z, logdet_inv

    def inverse_with_tape(self, x):
        """``inverse`` with the s-net and the t-net evaluated one at a time.

        Returns (z, logdet_inv, cache); the cache holds the scale outputs,
        exp(-s), the transformed block and the two nets' tapes.
        """
        ident, rest = self._split(np.asarray(x, dtype=float))
        raw, s_tape = self.s_net.forward(ident)
        t, t_tape = self.t_net.forward(ident)
        s = self._cap(raw)
        exp_neg_s = np.exp(-s)
        z_rest = (rest - t) * exp_neg_s
        if not np.isfinite(z_rest).all():
            raise NumericError("non-finite coupling inverse")
        return self._join(ident, z_rest), -s.sum(axis=-1), (s, exp_neg_s, z_rest, (s_tape, t_tape))

    def stacked_inverse(self, x, net):
        """``inverse_with_tape`` with both nets evaluated in one stacked pass.

        ``net`` is (weights, biases, weights_t): the two nets' arrays
        stacked, shaped (2, in, out) and (2, 1, out), and the weights with
        their last two axes swapped, as ``FlowModel`` views them. The cache
        is what ``backward_inverse`` takes. The caller runs it under
        ``np.errstate(over="ignore", invalid="ignore")``: an overflow leaves
        a non-finite value, which the checks report.
        """
        weights, biases, _ = net
        ident, rest = self._split(x)
        out, tape = conditioner.forward(weights, biases, ident)
        # -s for s = s_cap tanh(raw / s_cap), the bits of -_cap(raw); a
        # subnormal s_cap makes raw / s_cap +-inf, which tanh maps to +-1
        neg_s = np.divide(out[0], self.s_cap)
        np.tanh(neg_s, out=neg_s)
        neg_s *= -self.s_cap
        exp_neg_s = np.exp(neg_s)
        z_rest = rest - out[1]
        z_rest *= exp_neg_s
        if not conditioner.all_finite(z_rest):
            raise NumericError("non-finite coupling inverse")
        cache = (neg_s, exp_neg_s, z_rest, tape, net)
        return self._join(ident, z_rest), np.add.reduce(neg_s, -1), cache

    def backward_inverse(self, cache, g_out, grads, s_cotangent_extra=0.0, input_cotangent=True):
        """Backward pass through ``stacked_inverse``.

        ``g_out`` is the cotangent on the inverse output; a constant extra
        cotangent on each scale output (from the log-det term of the loss)
        can be folded in via ``s_cotangent_extra``. Both nets' parameter
        gradients are written into ``grads``, [dW0, db0, dW1, db1, ...]
        stacked like the weights. Returns the cotangent on the input, or
        None when ``input_cotangent`` is false.
        """
        neg_s, exp_neg_s, z_rest, tape, (weights, _, weights_t) = cache
        g_ident, g_rest_out = self._split(g_out)
        g_rest_in = g_rest_out * exp_neg_s
        cot = np.empty((2, *neg_s.shape))  # the cotangents on the s-net and t-net outputs
        cot_s = g_rest_out * z_rest
        np.subtract(s_cotangent_extra, cot_s, out=cot_s)
        slope = np.divide(neg_s, self.s_cap)  # of the tanh cap: 1 - (s / s_cap)^2
        np.square(slope, out=slope)
        np.subtract(1.0, slope, out=slope)
        np.multiply(cot_s, slope, out=cot[0])
        np.negative(g_rest_in, out=cot[1])
        g_nets = conditioner.backward(weights, tape, cot, grads, weights_t, input_cotangent)
        if g_nets is None:
            return None
        g_ident = g_ident + g_nets[0]
        g_ident += g_nets[1]
        return self._join(g_ident, g_rest_in)


class FlowModel:
    """Coupling-layer stack with standardizer and optional PCA embedding."""

    def __init__(self, layers, standardizer: Standardizer, pca: PcaMap | None = None,
                 interval_minutes=15, scaling="none", scale_min=None, scale_max=None):
        self.layers = list(layers)
        self.standardizer = standardizer
        self.pca = pca
        self.dim = len(standardizer.shift)
        if self.dim < 1:
            raise UsageError("flow dimension must be >= 1")
        self.interval_minutes = int(interval_minutes)
        if not 1 <= self.interval_minutes <= 24 * 60:  # as ScenarioSet requires
            raise UsageError(f"interval_minutes must lie in [1, 1440], got {interval_minutes}")
        self.scaling = scaling
        self.scale_min = scale_min
        self.scale_max = scale_max
        if pca is not None and pca.n_components != self.dim:
            raise UsageError("flow dimension must equal the PCA component count")
        for i, layer in enumerate(self.layers):
            if layer.dim != self.dim:
                raise UsageError("all coupling layers must act in the flow dimension")
            if i > 0 and layer.swap == self.layers[i - 1].swap:
                raise UsageError("coupling layer parities must alternate")
        # one flat vector holds every weight and bias; the nets keep views of it
        self.params = np.concatenate([p.ravel() for p in self.parameters()] or [np.zeros(0)])
        arrays, stacks = self._carve(self.params)
        views = iter(arrays)
        for layer in self.layers:
            for net in (layer.s_net, layer.t_net):
                for i in range(len(net.weights)):
                    net.weights[i], net.biases[i] = next(views), next(views)
        self._stacks = [(stack[0::2], stack[1::2], [w.swapaxes(-1, -2) for w in stack[0::2]])
                        for stack in stacks]
        self._grad_out = self._grad_views = None

    def _carve(self, flat):
        """Views into a vector laid out like ``params``.

        Returns the per-array views in ``parameters()`` order and, per layer,
        the list [W0, b0, W1, b1, ...] of its two nets' arrays stacked,
        shaped (2, in, out) and (2, 1, out). A layer's s-net and t-net have
        identical shapes and are stored one after the other, so its block is
        a (2, S) slab, S the size of one net, and each stacked array is a
        reshaped column range of the slab.
        """
        arrays, stacks = [], []
        start = 0
        for layer in self.layers:
            shapes = [p.shape for p in layer.s_net.parameters()]
            size = sum(math.prod(shape) for shape in shapes)
            slab = flat[start: start + 2 * size].reshape(2, size)
            stack, col = [], 0
            for shape in shapes:
                stack.append(slab[:, col: col + math.prod(shape)].reshape(2, -1, shape[-1]))
                col += math.prod(shape)
            arrays += [v[j].reshape(shape) for j in (0, 1) for v, shape in zip(stack, shapes)]
            stacks.append(stack)
            start += 2 * size
        return arrays, stacks

    def parameters(self):
        """Views [W0, b0, W1, b1, ...] into ``params`` of each s-net and t-net, layer by layer."""
        return [p for layer in self.layers for net in (layer.s_net, layer.t_net)
                for p in net.parameters()]

    # density ---------------------------------------------------------------

    def _to_latent(self, x):
        if self.pca is not None:
            return pca_mod.project(self.pca, x)
        if x.shape[-1] != self.dim:
            raise UsageError(f"expected dimension {self.dim}, got {x.shape[-1]}")
        return x

    # an overflow leaves a non-finite value, which the checks report
    @np.errstate(over="ignore", invalid="ignore")
    def log_prob(self, x):
        """Exact log-density at x; x is (D,) or (n, D)."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise NumericError("non-finite input to log_prob")
        squeeze = x.ndim == 1
        xb = x[None, :] if squeeze else x
        u = self.standardizer.standardize(self._to_latent(xb))
        total = np.full(u.shape[0], self.standardizer.log_det)
        for layer in reversed(self.layers):
            u, logdet_inv = layer.inverse(u)
            total = total + logdet_inv
        total = total - 0.5 * np.sum(u * u, axis=-1) - 0.5 * self.dim * LOG_2PI
        if not np.all(np.isfinite(total)):
            raise NumericError("non-finite log-density")
        return float(total[0]) if squeeze else total

    # an overflow leaves a non-finite value, which the checks report
    @np.errstate(over="ignore", invalid="ignore")
    def nll_and_grads(self, batch, out=None):
        """Mean NLL over the batch and its exact gradients.

        The gradients are written into ``out``, a float vector shaped like
        ``params`` (a new one when None). Returns (nll, views of it in
        ``parameters()`` order).
        """
        x = np.asarray(batch, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[0] == 0:
            raise UsageError("empty batch")
        if out is None:
            out = np.empty_like(self.params)
        if out is not self._grad_out:  # the training loop passes one vector every step
            if out.shape != self.params.shape or out.dtype != float or not out.flags.c_contiguous:
                raise UsageError("out must be a contiguous float vector shaped like params")
            self._grad_out, self._grad_views = out, self._carve(out)
        arrays, grad_stacks = self._grad_views
        n = x.shape[0]
        u = self.standardizer.standardize(self._to_latent(x))
        caches = []
        total = np.full(n, self.standardizer.log_det)
        for layer, net in zip(reversed(self.layers), reversed(self._stacks)):
            u, logdet_inv, cache = layer.stacked_inverse(u, net)
            caches.append(cache)
            total += logdet_inv
        total -= 0.5 * np.add.reduce(u * u, -1)
        total -= 0.5 * self.dim * LOG_2PI
        nll = -(float(np.add.reduce(total)) / n)  # the bits of -total.mean()
        if not math.isfinite(nll):
            bad = int(np.argmax(~np.isfinite(total)))
            raise NumericError(f"non-finite NLL (row {bad})")

        u /= n  # d nll / d z from the Gaussian term
        # walk back through the inverse evaluations, most recent first, which
        # visits the layers in order; nothing reads the last one's input cotangent
        g, last = u, len(caches) - 1
        for i, (layer, cache, grads) in enumerate(zip(self.layers, reversed(caches), grad_stacks)):
            g = layer.backward_inverse(cache, g, grads, s_cotangent_extra=1.0 / n,
                                       input_cotangent=i < last)
        return nll, arrays

    # sampling --------------------------------------------------------------

    # a layer's check reports an overflow, and ScenarioSet one in the output
    @np.errstate(over="ignore", invalid="ignore")
    def sample_array(self, n, seed):
        """n ambient-space samples as an (n, D) array."""
        if n < 1:
            raise UsageError("n must be >= 1")
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, self.dim))
        for layer in self.layers:
            u, _ = layer.forward(u)
        x = self.standardizer.destandardize(u)
        if self.pca is not None:
            x = pca_mod.embed(self.pca, x)
        return x

    def sample(self, n, seed) -> ScenarioSet:
        if n < 2:  # a ScenarioSet holds at least two scenarios
            raise UsageError(f"n must be >= 2 to draw a scenario set, got {n}")
        data = self.sample_array(n, seed)
        return ScenarioSet(data=data, period_length=data.shape[1],
                           interval_minutes=self.interval_minutes)


def build_flow(dim, n_layers=5, hidden_dims=None, seed=0, standardizer=None,
               pca: PcaMap | None = None, **model_kwargs) -> FlowModel:
    """Construct an untrained flow with alternating coupling parities.

    A one-dimensional flow cannot hold coupling layers; it degrades to the
    standardizer-only Gaussian with a warning.
    """
    if dim < 1:
        raise UsageError("flow dimension must be >= 1")
    if n_layers < 1:
        raise UsageError("need at least one coupling layer")
    if standardizer is None:
        standardizer = Standardizer.identity(dim)
    if hidden_dims is None:
        hidden_dims = (dim, dim)
    if any(width < 1 for width in hidden_dims):
        raise UsageError("hidden widths must be >= 1")

    layers = []
    if dim == 1:
        warnings.warn(
            "flow dimension 1: coupling layers cannot act; "
            "falling back to a standardizer-only Gaussian model",
            stacklevel=2,
        )
    else:
        rng = np.random.default_rng(seed)
        id_dim = dim - dim // 2
        tr_dim = dim - id_dim
        for k in range(n_layers):
            s_net = DenseNet.create(id_dim, tr_dim, hidden_dims, rng)
            t_net = DenseNet.create(id_dim, tr_dim, hidden_dims, rng)
            layers.append(CouplingLayer(dim, s_net, t_net, swap=bool(k % 2)))
    return FlowModel(layers, standardizer, pca=pca, **model_kwargs)


# model file format ----------------------------------------------------------
#
# Little-endian throughout, all floats are 8-byte IEEE doubles.
# Layout documented in docs/model_format.md.

MAGIC = b"PCFMODEL"
FORMAT_MAJOR = 1
FORMAT_MINOR = 0

_SCALING_CODE = {"none": 0, "capacity_factor": 1, "minmax": 2}
_SCALING_NAME = {v: k for k, v in _SCALING_CODE.items()}


def _write_array(fh, arr):
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read(fh, fmt):
    size = struct.calcsize(fmt)
    buf = fh.read(size)
    if len(buf) != size:
        raise ModelFormatError("truncated model file")
    return struct.unpack(fmt, buf)


def _read_array(fh, shape):
    # the declared size is checked before reading, so a corrupt header that
    # declares a huge array is a format error, not a huge allocation
    size = 8 * math.prod(shape)
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ModelFormatError(f"truncated model file: {shape} array runs past the end")
    return np.frombuffer(fh.read(size), dtype="<f8").astype(float).reshape(shape)


def _write_net(fh, net: DenseNet):
    fh.write(struct.pack("<I", len(net.weights)))
    for w, b in zip(net.weights, net.biases):
        fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        _write_array(fh, w)
        _write_array(fh, b)


def _read_net(fh) -> DenseNet:
    (depth,) = _read(fh, "<I")
    weights, biases = [], []
    for _ in range(depth):
        rows, cols = _read(fh, "<II")
        weights.append(_read_array(fh, (rows, cols)))
        biases.append(_read_array(fh, (cols,)))
    return DenseNet(weights, biases)


def save_model(model: FlowModel, path):
    """Serialize the model; round-trips are bit-exact on parameters."""
    nan = float("nan")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HH", FORMAT_MAJOR, FORMAT_MINOR))
        flags = 1 if model.pca is not None else 0
        fh.write(struct.pack("<I", flags))
        fh.write(struct.pack("<I", model.interval_minutes))
        fh.write(struct.pack("<B", _SCALING_CODE[model.scaling]))
        fh.write(struct.pack("<dd",
                             nan if model.scale_min is None else model.scale_min,
                             nan if model.scale_max is None else model.scale_max))
        if model.pca is not None:
            p = model.pca
            fh.write(struct.pack("<II", p.dim, p.n_components))
            _write_array(fh, p.mean)
            _write_array(fh, p.singular_values)
            _write_array(fh, p.components)
            fh.write(struct.pack("<d", p.cev))
        fh.write(struct.pack("<I", model.dim))
        _write_array(fh, model.standardizer.shift)
        _write_array(fh, model.standardizer.scale)
        fh.write(struct.pack("<I", len(model.layers)))
        for layer in model.layers:
            fh.write(struct.pack("<Bd", int(layer.swap), layer.s_cap))
            _write_net(fh, layer.s_net)
            _write_net(fh, layer.t_net)


def load_model(path) -> FlowModel:
    """Read a model file; any inconsistency in it raises ModelFormatError."""
    try:
        return _read_model(path)
    except (UsageError, NumericError) as exc:  # the constructors' shape and value checks
        raise ModelFormatError(f"{path}: inconsistent model file: {exc}") from None


def _read_model(path) -> FlowModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ModelFormatError(f"{path}: not a pcflow model file")
        major, _minor = _read(fh, "<HH")
        if major != FORMAT_MAJOR:
            raise ModelVersionError(f"{path}: format major version {major}, expected {FORMAT_MAJOR}")
        (flags,) = _read(fh, "<I")
        (interval_minutes,) = _read(fh, "<I")
        (scaling_code,) = _read(fh, "<B")
        if scaling_code not in _SCALING_NAME:
            raise ModelFormatError(f"unknown scaling code {scaling_code}")
        scale_min, scale_max = _read(fh, "<dd")
        scaling = _SCALING_NAME[scaling_code]
        if scaling == "minmax" and not -math.inf < scale_min < scale_max < math.inf:
            raise ModelFormatError(f"{path}: minmax scaling needs finite scale_min < scale_max, "
                                   f"got {scale_min!r} and {scale_max!r}")
        pca_map = None
        if flags & 1:
            d, m = _read(fh, "<II")
            mean = _read_array(fh, (d,))
            singular = _read_array(fh, (d,))
            components = _read_array(fh, (d, m))
            (cev,) = _read(fh, "<d")  # derived from the spectrum on load; only checked
            if not math.isfinite(cev):
                raise ModelFormatError(f"{path}: non-finite cev in the PCA block")
            pca_map = PcaMap(mean=mean, components=components, singular_values=singular)
        (dim,) = _read(fh, "<I")
        shift = _read_array(fh, (dim,))
        scale = _read_array(fh, (dim,))
        (n_layers,) = _read(fh, "<I")
        layers = []
        for k in range(n_layers):
            swap, s_cap = _read(fh, "<Bd")
            s_net = _read_net(fh)
            t_net = _read_net(fh)
            layers.append(CouplingLayer(dim, s_net, t_net, swap=bool(swap), s_cap=s_cap))
        if fh.read(1):
            raise ModelFormatError("trailing bytes in model file")
    return FlowModel(
        layers, Standardizer(shift, scale), pca=pca_map,
        interval_minutes=interval_minutes, scaling=scaling,
        scale_min=None if math.isnan(scale_min) else scale_min,
        scale_max=None if math.isnan(scale_max) else scale_max,
    )
