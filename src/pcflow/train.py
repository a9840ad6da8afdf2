"""Log-likelihood maximization with Adam and validation-based early stopping.

Randomness is split into named streams derived from one seed: parameter
initialization uses the seed itself, epoch shuffling uses seed + 1, and
sampling elsewhere uses seed + 2, so changing one stage never perturbs the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pca as pca_mod
from .dataio import ScenarioSet, as_rows, open_output, write_rows
from .errors import DivergedError, NumericError, UsageError
from .flow import FlowModel, Standardizer, build_flow

GRAD_CLIP_NORM = 100.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 50

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.early_stop_patience < 0:
            raise UsageError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")


@dataclass
class TrainLog:
    train_nll: list = field(default_factory=list)
    val_nll: list = field(default_factory=list)
    best_epoch: int = -1  # -1: no epoch completed, the initial parameters were kept
    diverged_epoch: int | None = None

    @property
    def diverged(self):
        return self.diverged_epoch is not None

    @property
    def epochs_completed(self):
        return len(self.train_nll)

    @property
    def kept(self):
        """Which parameters the model holds, as the outputs report it."""
        if self.best_epoch < 0:
            return "no epoch completed; initial parameters kept"
        return f"best checkpoint from epoch {self.best_epoch} kept"

    @property
    def best_epoch_text(self):
        """``best_epoch`` as trainlog.csv and metrics.txt write it."""
        return str(self.best_epoch) if self.best_epoch >= 0 else f"none ({self.kept})"

    def write_csv(self, path, header_comment=None):
        with open_output(path, header_comment) as fh:
            fh.write("epoch,train_nll,val_nll\n")
            write_rows(fh, zip(range(len(self.train_nll)), self.train_nll, self.val_nll))
            fh.write(f"# best_epoch={self.best_epoch_text}\n")
            if self.diverged:
                fh.write(f"# diverged_at_epoch={self.diverged_epoch}\n")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray  # (2, size) work space for adam_step's temporaries
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=np.zeros_like(params), v=np.zeros_like(params),
                   scratch=np.empty((2,) + params.shape))


def adam_step(params, grads, state: AdamState, config: TrainConfig):
    """One in-place Adam update of a flat parameter vector.

    The temporaries of m += (1 - b1) g, v += (1 - b2) g g and
    params -= lr (m / bc1) / (sqrt(v / bc2) + eps) go to state.scratch, in
    that expression's operation order.
    """
    if params.shape != grads.shape:
        raise UsageError("params/grads shape mismatch")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.t += 1
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    step, denom = state.scratch[0], state.scratch[1]
    state.m *= b1
    state.m += np.multiply(1.0 - b1, grads, out=step)
    state.v *= b2
    np.multiply(1.0 - b2, grads, out=step)
    state.v += np.multiply(step, grads, out=step)
    np.divide(state.m, bc1, out=step)
    np.multiply(config.learning_rate, step, out=step)
    np.divide(state.v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    params -= np.divide(step, denom, out=step)


def _clip_gradients(grads):
    """Rescale a flat gradient vector to Euclidean norm GRAD_CLIP_NORM if it is longer."""
    # einsum, not BLAS ddot: ddot's summation order follows the thread count
    total = math.sqrt(float(np.einsum("i,i", grads, grads)))
    if total > GRAD_CLIP_NORM:
        grads = grads * (GRAD_CLIP_NORM / total)
    return grads


# a step that overflows leaves a non-finite loss or activation, which the
# checks in nll_and_grads and log_prob report as a divergence
@np.errstate(over="ignore", invalid="ignore")
def _train_loop(model: FlowModel, train_rows, val_rows, config: TrainConfig):
    """Mini-batch Adam loop; leaves the model at its best-validation-epoch parameters.

    Returns the log. A non-finite loss ends the loop and is recorded in the
    log; if that happens in the first epoch, the initial parameters stay.
    """
    log = TrainLog()
    params = model.params
    if params.size == 0:
        # standardizer-only fallback has nothing to optimize
        log.train_nll.append(-float(np.mean(model.log_prob(train_rows))))
        log.val_nll.append(-float(np.mean(model.log_prob(val_rows))))
        log.best_epoch = 0
        return log

    state = AdamState.for_params(params)
    shuffle_rng = np.random.default_rng(config.seed + 1)
    n = train_rows.shape[0]
    best_val = math.inf
    best = params.copy()
    grads = np.empty_like(params)

    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_nll = 0.0
        try:
            for start in range(0, n, config.batch_size):
                batch = train_rows[perm[start: start + config.batch_size]]
                nll, _ = model.nll_and_grads(batch, out=grads)
                epoch_nll += nll * batch.shape[0]
                adam_step(params, _clip_gradients(grads), state, config)
        except NumericError:
            diverged = True  # the epoch is not logged
        else:
            try:
                val_nll = -float(np.mean(model.log_prob(val_rows)))
            except NumericError:
                val_nll = math.nan
            train_nll = epoch_nll / n
            log.train_nll.append(train_nll)
            log.val_nll.append(val_nll)
            diverged = not (math.isfinite(train_nll) and math.isfinite(val_nll))
        if diverged:
            log.diverged_epoch = epoch
            break

        if val_nll < best_val:
            best_val = val_nll
            best[:] = params
            log.best_epoch = epoch
        elif epoch - log.best_epoch > config.early_stop_patience:
            break

    params[:] = best
    return log


def fit_pcf(train_set, val_set, cev_target=None, n_components=None,
            n_layers=5, hidden_dims=None, config: TrainConfig | None = None):
    """Fit PCA on the training rows only, then train the flow in latent space.

    A non-finite loss raises DivergedError.
    """
    pca_target = (cev_target, n_components)
    model, log = _fit_flow(train_set, val_set, n_layers, hidden_dims, config, pca_target)
    if log.diverged:
        raise DivergedError("training loss became non-finite")
    return model, log


def fit_fsnf(train_set, val_set, n_layers=5, hidden_dims=None,
             config: TrainConfig | None = None):
    """Train the flow directly in the ambient dimension.

    On manifold data this is expected to misbehave; a non-finite loss is
    recorded in the log instead of raised.
    """
    return _fit_flow(train_set, val_set, n_layers, hidden_dims, config)


def _fit_flow(train_set, val_set, n_layers, hidden_dims, config, pca_target=None):
    """Build a flow on the training rows, behind a PCA truncated to
    ``pca_target`` (cev_target, n_components) if given, and train it."""
    config = config or TrainConfig()
    train_rows, val_rows = as_rows(train_set), as_rows(val_set)
    pca_map, latent = None, train_rows
    if pca_target is not None:
        pca_map = pca_mod.truncate(pca_mod.fit(train_rows), *pca_target)
        latent = pca_mod.project(pca_map, train_rows)
    provenance = ("interval_minutes", "scaling", "scale_min", "scale_max")
    model = build_flow(latent.shape[1], n_layers=n_layers, hidden_dims=hidden_dims,
                       seed=config.seed, standardizer=Standardizer.from_data(latent),
                       pca=pca_map, **{key: getattr(train_set, key) for key in provenance
                                       if isinstance(train_set, ScenarioSet)})
    return model, _train_loop(model, train_rows, val_rows, config)
