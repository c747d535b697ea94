"""Parameter-extraction network: a small fully connected regressor.

Four swish hidden layers map the 24 normalized curve features to the 14
min-max-normalized model parameters. Forward, backprop, and the
adaptive-moment update are written directly on numpy arrays. Training runs
in one Python thread, but the matrix products go to the BLAS library, which
may run them on several threads of its own (OpenBLAS does by default). The
numerics stay deterministic for a fixed seed: BLAS splits a product by
output blocks, so each element is summed in the same order on any thread
count.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Normalizer
from .errors import ConfigError, DataError, InvalidParameterError, TrainingDivergedError
from .features import N_FEATURES
from .params import PARAM_NAMES, ModelParams, ParamRanges

log = logging.getLogger(__name__)

MODEL_FORMAT = "fetfit-model"
MODEL_VERSION = 1

#: Default hidden layout: four layers, 340 neurons total.
DEFAULT_HIDDEN = (128, 96, 72, 44)


@dataclass(frozen=True)
class MLPConfig:
    """Network shape and initialization. ``widths`` runs input to output."""

    widths: tuple = (N_FEATURES, *DEFAULT_HIDDEN, len(PARAM_NAMES))
    activation: str = "swish"
    init: str = "he-normal"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise ConfigError(f"bad layer widths {self.widths}")
        if self.activation != "swish":
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.init != "he-normal":
            raise ConfigError(f"unsupported init scheme {self.init!r}")

    @property
    def n_hidden_neurons(self) -> int:
        return sum(self.widths[1:-1])


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings plus the refinement schedule.

    After the base run converges (early stop or epoch budget), training
    continues from the best checkpoint once per entry of ``refine_factors``
    with the learning rate scaled by that factor; each refinement stage gets
    half the epoch budget. Set ``refine_factors=()`` for a single-stage run.
    """

    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 400
    patience: int = 40
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    refine_factors: tuple = (0.1, 0.03)

    def __post_init__(self):
        object.__setattr__(self, "refine_factors",
                           tuple(float(f) for f in self.refine_factors))
        settings = (self.learning_rate, self.batch_size, self.max_epochs,
                    self.patience, self.beta1, self.beta2, self.eps)
        # NaN fails every comparison, so finiteness is checked first
        if not all(math.isfinite(v) for v in settings):
            raise ConfigError("all training settings must be finite")
        if min(settings) <= 0:
            raise ConfigError("all training settings must be positive")
        if not (self.beta1 < 1 and self.beta2 < 1):
            raise ConfigError(f"beta1 and beta2 must lie in (0, 1), got "
                              f"{self.beta1}, {self.beta2}")
        if self.patience >= self.max_epochs:
            raise ConfigError("patience must be smaller than max_epochs")
        if any(not 0 < f < 1 for f in self.refine_factors):
            raise ConfigError("refine_factors must lie in (0, 1)")


@dataclass
class MLPWeights:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    W: list
    b: list

    def copy(self) -> "MLPWeights":
        return MLPWeights([w.copy() for w in self.W], [v.copy() for v in self.b])

    @property
    def widths(self) -> tuple:
        return (self.W[0].shape[0], *[w.shape[1] for w in self.W])


def swish(x):
    """x * sigmoid(x)."""
    return x * _sigmoid(x)


def swish_grad(x):
    s = _sigmoid(x)
    return s + x * s * (1.0 - s)


def _sigmoid(x):
    # 1 / (1 + exp(-x)) rewritten as 0.5 * (1 + tanh(x / 2)): tanh saturates
    # at +-1 instead of overflowing, so one branch-free pass serves every x
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def init_weights(cfg: MLPConfig) -> MLPWeights:
    """Zero biases; weights from N(0, 2/fan_in) (suits swish's near-ReLU
    regime). Deterministic for a fixed config seed."""
    rng = np.random.default_rng(cfg.seed)
    W, b = [], []
    for fan_in, fan_out in zip(cfg.widths[:-1], cfg.widths[1:]):
        W.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        b.append(np.zeros(fan_out))
    return MLPWeights(W, b)


def forward(w: MLPWeights, x) -> np.ndarray:
    """Network output for a single feature vector or a batch (rows)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    z = x[None, :] if single else x
    n_layers = len(w.W)
    for i in range(n_layers - 1):
        z = swish(z @ w.W[i] + w.b[i])
    z = z @ w.W[-1] + w.b[-1]
    return z[0] if single else z


def loss_and_grad(w: MLPWeights, X, Y):
    """Mean-squared-error loss over all outputs and its gradients.

    Returns (loss, grads) with grads shaped like the weights; gradients are
    accumulated by reverse-mode passes through the layer inputs and the
    swish derivatives cached on the forward pass.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y need matching row counts")
    n_layers = len(w.W)
    acts = [X]
    dacts = []
    z = X
    for i in range(n_layers - 1):
        pre = z @ w.W[i]
        pre += w.b[i]
        s = _sigmoid(pre)
        z = pre * s
        d = 1.0 - s
        d *= z
        d += s  # swish_grad(pre) = s + pre*s*(1 - s)
        dacts.append(d)
        acts.append(z)
    out = z @ w.W[-1]
    out += w.b[-1]

    resid = out - Y
    loss = float(np.mean(resid ** 2))
    if not np.isfinite(loss):
        raise TrainingDivergedError("loss is non-finite")

    gW = [None] * n_layers
    gb = [None] * n_layers
    delta = 2.0 * resid / resid.size
    gW[-1] = acts[-1].T @ delta
    gb[-1] = delta.sum(axis=0)
    for i in range(n_layers - 2, -1, -1):
        delta = delta @ w.W[i + 1].T
        delta *= dacts[i]
        gW[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
    return loss, MLPWeights(gW, gb)


@dataclass
class TrainHistory:
    """Per-epoch losses plus run metadata."""

    epochs: list = field(default_factory=list)  # dicts: epoch, train_loss, val_loss, wall_seconds
    meta: dict = field(default_factory=dict)

    def val_losses(self) -> np.ndarray:
        return np.array([e["val_loss"] for e in self.epochs])


def train(ds: Dataset, norm: Normalizer, mcfg: MLPConfig | None = None,
          tcfg: TrainConfig | None = None, initial_weights: MLPWeights | None = None):
    """Mini-batch training with adaptive moments and early stopping.

    Returns (weights, history); the weights are the checkpoint with the best
    validation loss seen. Pass ``initial_weights`` to continue from an
    earlier run (e.g. a lower-learning-rate refinement stage). Aborts with
    TrainingDivergedError if the validation loss goes non-finite.
    """
    if mcfg is None:
        mcfg = MLPConfig()
    if tcfg is None:
        tcfg = TrainConfig()
    if mcfg.widths[0] != ds.X.shape[1] or mcfg.widths[-1] != ds.Y.shape[1]:
        raise ConfigError(
            f"network shape {mcfg.widths} does not match data "
            f"({ds.X.shape[1]} features, {ds.Y.shape[1]} targets)"
        )
    tr, va = ds.indices("train"), ds.indices("val")
    if len(tr) == 0 or len(va) == 0:
        raise ConfigError("dataset needs non-empty train and val splits")
    Xtr = norm.normalize_features(ds.X[tr])
    Ytr = norm.normalize_params(ds.Y[tr])
    Xva = norm.normalize_features(ds.X[va])
    Yva = norm.normalize_params(ds.Y[va])

    if initial_weights is not None:
        if initial_weights.widths != mcfg.widths:
            raise ConfigError(
                f"initial weights {initial_weights.widths} do not match config {mcfg.widths}"
            )
        w = initial_weights.copy()
    else:
        w = init_weights(mcfg)
    history = TrainHistory(meta={
        "deterministic": True,
        "mlp": {"widths": list(mcfg.widths), "activation": mcfg.activation,
                "init": mcfg.init, "seed": mcfg.seed},
        "train": {"learning_rate": tcfg.learning_rate, "batch_size": tcfg.batch_size,
                  "max_epochs": tcfg.max_epochs, "patience": tcfg.patience,
                  "beta1": tcfg.beta1, "beta2": tcfg.beta2, "eps": tcfg.eps,
                  "seed": tcfg.seed, "refine_factors": list(tcfg.refine_factors)},
    })
    t0 = time.perf_counter()
    stages = [(tcfg.learning_rate, tcfg.max_epochs)]
    stages += [(tcfg.learning_rate * f, max(tcfg.patience + 1, tcfg.max_epochs // 2))
               for f in tcfg.refine_factors]
    best_w, best_val = w, np.inf
    for stage_idx, (lr, epoch_budget) in enumerate(stages):
        rng = np.random.default_rng(tcfg.seed + stage_idx)
        best_w, best_val = _train_stage(
            best_w.copy(), Xtr, Ytr, Xva, Yva, lr, epoch_budget, tcfg, rng, history,
            t0, best_val)
    history.meta["best_val_loss"] = best_val
    history.meta["trained_epochs"] = len(history.epochs)
    return best_w, history


def _train_stage(w: MLPWeights, Xtr, Ytr, Xva, Yva, lr, epoch_budget,
                 tcfg: TrainConfig, rng, history: TrainHistory, t0, best_val_in):
    """One optimization stage with fresh moments; returns the best checkpoint
    seen so far (across stages)."""
    params = w.W + w.b  # updated in place, so these stay w's arrays
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    scratch = [np.empty_like(a) for a in params]
    best_val = best_val_in
    best_w = w.copy()
    stale = 0
    step = 0
    n_tr = len(Xtr)
    epoch_offset = len(history.epochs)
    for epoch in range(1, epoch_budget + 1):
        order = rng.permutation(n_tr)
        batch_losses = []
        for start in range(0, n_tr, tcfg.batch_size):
            idx = order[start:start + tcfg.batch_size]
            loss, g = loss_and_grad(w, Xtr[idx], Ytr[idx])
            batch_losses.append(loss)
            step += 1
            bc1 = 1.0 - tcfg.beta1 ** step
            bc2 = 1.0 - tcfg.beta2 ** step
            for p, mi, vi, gi, si in zip(params, m, v, g.W + g.b, scratch):
                _adam_update(p, mi, vi, gi, si, lr, bc1, bc2, tcfg)

        val_pred = forward(w, Xva)
        val_loss = float(np.mean((val_pred - Yva) ** 2))
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"validation loss non-finite at epoch {epoch_offset + epoch}")
        history.epochs.append({
            "epoch": epoch_offset + epoch,
            "train_loss": float(np.mean(batch_losses)),
            "val_loss": val_loss,
            "wall_seconds": time.perf_counter() - t0,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_w = w.copy()
            stale = 0
        else:
            stale += 1
            if stale >= tcfg.patience:
                log.info("stage stop at epoch %d (best val %.3e)",
                         epoch_offset + epoch, best_val)
                break
    return best_w, best_val


def _adam_update(p, m, v, g, tmp, lr, bc1, bc2, tcfg: TrainConfig):
    """One adaptive-moment step on parameter array ``p``, all in place:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps). Each product and quotient is
    formed in the expression's own order, so the result is bit-for-bit that
    of the expression. The gradient ``g`` is spent: its buffer holds the
    denominator."""
    m *= tcfg.beta1
    np.multiply(g, 1.0 - tcfg.beta1, out=tmp)
    m += tmp
    v *= tcfg.beta2
    np.multiply(g, g, out=g)
    g *= 1.0 - tcfg.beta2
    v += g
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += tcfg.eps
    np.divide(m, bc1, out=tmp)
    tmp *= lr
    tmp /= g
    p -= tmp


def predict_params(w: MLPWeights, norm: Normalizer, fv,
                   ranges: ParamRanges | None = None) -> ModelParams:
    """Map one feature vector to a clipped, valid parameter set."""
    fv = np.asarray(fv, dtype=float)
    if fv.shape != (N_FEATURES,):
        raise InvalidParameterError(f"feature vector must have shape ({N_FEATURES},)")
    if not np.all(np.isfinite(fv)):
        raise InvalidParameterError("feature vector contains non-finite values")
    out = forward(w, norm.normalize_features(fv))
    vec = norm.denormalize_params(out)
    if ranges is None:
        ranges = ParamRanges.from_dict(
            {n: [lo, hi] for n, lo, hi in zip(PARAM_NAMES, norm.param_lo, norm.param_hi)}
        )
    return ModelParams.from_vector(ranges.clip_vector(vec))


def save_model(path, w: MLPWeights, norm: Normalizer, mcfg: MLPConfig):
    """Single self-describing JSON document; float repr round-trips exactly,
    so a reloaded model reproduces predictions bit-for-bit."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mlp": {"widths": list(mcfg.widths), "activation": mcfg.activation,
                "init": mcfg.init, "seed": mcfg.seed},
        "normalizer": norm.to_dict(),
        "layers": [{"W": wi.tolist(), "b": bi.tolist()} for wi, bi in zip(w.W, w.b)],
    }
    text = json.dumps(doc)  # one call: json.dump to a file uses the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path):
    """Returns (weights, normalizer, config)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file: {exc}") from exc
    if doc.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: unrecognized format {doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(
            f"{path}: model version {doc.get('version')!r} unsupported "
            f"(expected {MODEL_VERSION})"
        )
    mcfg = MLPConfig(widths=tuple(doc["mlp"]["widths"]), activation=doc["mlp"]["activation"],
                     init=doc["mlp"]["init"], seed=int(doc["mlp"]["seed"]))
    norm = Normalizer.from_dict(doc["normalizer"])
    layers = doc["layers"]
    if len(layers) != len(mcfg.widths) - 1:
        raise DataError(f"{path}: expected {len(mcfg.widths) - 1} layers, got {len(layers)}")
    W = [np.array(l["W"], dtype=float) for l in layers]
    b = [np.array(l["b"], dtype=float) for l in layers]
    w = MLPWeights(W, b)
    if w.widths != mcfg.widths:
        raise DataError(f"{path}: layer shapes {w.widths} disagree with config {mcfg.widths}")
    return w, norm, mcfg


def write_history_csv(history: TrainHistory, path):
    lines = ["# meta " + json.dumps(history.meta, sort_keys=True),
             "epoch,train_loss,val_loss,wall_seconds"]
    for e in history.epochs:
        lines.append("%d,%.17g,%.17g,%.6f"
                     % (e["epoch"], e["train_loss"], e["val_loss"], e["wall_seconds"]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
