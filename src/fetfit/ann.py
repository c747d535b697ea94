"""Parameter-extraction network: a small fully connected regressor.

Four swish hidden layers map the 24 normalized curve features to the 14
min-max-normalized model parameters. Forward, backprop, and the
adaptive-moment update are written directly on numpy arrays. Training runs
in one Python thread, but the matrix products go to the BLAS library, which
may run them on several threads of its own (OpenBLAS does by default). The
numerics stay deterministic for a fixed seed: BLAS splits a product by
output blocks, so each element is summed in the same order on any thread
count.

A training step allocates no arrays. Each stage copies its start weights
into one flat float64 buffer, in ``W + b`` order, and trains an
``MLPWeights`` of views into it, so one adaptive-moment update on flat
moment buffers covers every parameter. The batch rows, the activations,
the swish derivatives, the sigmoid, the deltas and one flat gradient live
in a ``_Work`` buffer set built once per stage; a shorter last batch uses
leading-row views of it. The swish, its derivative, the residual and the
delta are formed in place, each in its own expression's operation order
(operands may swap, never regroup), so every weight and every loss is
bit-identical to the plain expressions.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import os
import reprlib
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataset import Dataset, Normalizer
from .errors import (ConfigError, DataError, InvalidParameterError, TrainingDivergedError,
                     read_json, require_int, require_number, require_numbers)
from .features import N_FEATURES
from .params import PARAM_NAMES, ModelParams

log = logging.getLogger(__name__)

MODEL_FORMAT = "fetfit-model"
MODEL_VERSION = 3

#: Default hidden layout: four layers, 340 neurons total.
DEFAULT_HIDDEN = (128, 96, 72, 44)

#: Largest width of any layer, input and output included. A 4096 x 4096
#: layer holds 128 MiB of weights, and training keeps several more arrays
#: of that size.
MAX_LAYER_WIDTH = 4096


@dataclass(frozen=True)
class MLPConfig:
    """Network shape and initialization. ``widths`` runs input to output,
    each an int from 1 to ``MAX_LAYER_WIDTH``."""

    widths: tuple = (N_FEATURES, *DEFAULT_HIDDEN, len(PARAM_NAMES))
    activation: str = "swish"
    init: str = "he-normal"
    seed: int = 0

    def __post_init__(self):
        widths = tuple(self.widths)
        for w in widths:
            require_int("layer width", w, minimum=1, maximum=MAX_LAYER_WIDTH)
        if len(widths) < 2:
            raise ConfigError(f"bad layer widths {widths}")
        object.__setattr__(self, "widths", tuple(map(int, widths)))  # numpy ints too
        if self.activation != "swish":
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.init != "he-normal":
            raise ConfigError(f"unsupported init scheme {self.init!r}")
        require_int("seed", self.seed, minimum=0)

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
        for name in ("learning_rate", "beta1", "beta2", "eps"):
            object.__setattr__(self, name, require_number(name, getattr(self, name)))
        object.__setattr__(self, "refine_factors", tuple(
            require_number("refine factor", f) for f in self.refine_factors))
        for name in ("batch_size", "max_epochs", "patience"):
            require_int(name, getattr(self, name))
        require_int("seed", self.seed, minimum=0)
        settings = (self.learning_rate, self.batch_size, self.max_epochs,
                    self.patience, self.beta1, self.beta2, self.eps)
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


def _sigmoid(x, out=None):
    # 1 / (1 + exp(-x)) rewritten as 0.5 * (1 + tanh(x / 2)): tanh saturates
    # at +-1 instead of overflowing, so one branch-free pass serves every x.
    # Formed in that order (0.5*x, tanh, +1, *0.5), so ``out`` moves no bit.
    x = np.asarray(x, dtype=float)
    out = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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
    for i in range(len(w.W) - 1):
        z = z @ w.W[i]
        z += w.b[i]
        z *= _sigmoid(z)  # swish(pre) = pre * sigmoid(pre)
    z = z @ w.W[-1]
    z += w.b[-1]
    return z[0] if single else z


def _views(flat: np.ndarray, widths) -> MLPWeights:
    """``MLPWeights`` of views into ``flat``, in ``W + b`` order."""
    shapes = [*zip(widths[:-1], widths[1:]), *((n,) for n in widths[1:])]
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(flat[start:start + size].reshape(shape))
        start += size
    return MLPWeights(arrays[:len(widths) - 1], arrays[len(widths) - 1:])


def _leading(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return flat[:rows * cols].reshape(rows, cols)


class _Work:
    """Buffers for ``loss_and_grad`` on batches of up to ``rows`` rows: the
    batch's X and Y, each hidden layer's activations and swish derivatives,
    two delta buffers used in turn (the forward pass keeps each layer's
    sigmoid in the first), and one flat gradient with ``g`` its per-layer
    views."""

    def __init__(self, widths, rows: int):
        self.X = np.empty((rows, widths[0]))
        self.Y = np.empty((rows, widths[-1]))
        self.acts = [np.empty((rows, n)) for n in widths[1:-1]]
        self.dacts = [np.empty((rows, n)) for n in widths[1:-1]]
        wide = rows * max(widths[1:])
        self.deltas = (np.empty(wide), np.empty(wide))
        self.grad = np.empty(sum((a + 1) * b for a, b in zip(widths[:-1], widths[1:])))
        self.g = _views(self.grad, widths)


def loss_and_grad(w: MLPWeights, X, Y, work: _Work | None = None):
    """Mean-squared-error loss over all outputs and its gradients.

    Returns (loss, grads) with grads shaped like the weights; gradients are
    accumulated by reverse-mode passes through the layer inputs and the
    swish derivatives cached on the forward pass.

    ``work`` is a ``_Work`` buffer set for at least ``len(X)`` rows that
    holds every intermediate; the grads returned are then views into its
    flat ``grad``, overwritten by the next call. Without it, fresh buffers
    are built, so the grads of two calls share no memory.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y need matching row counts")
    rows = len(X)
    if work is None:
        work = _Work(w.widths, rows)
    elif rows > len(work.X):
        raise ValueError(f"work buffers hold {len(work.X)} rows, the batch has {rows}")
    acts = [X] + [a[:rows] for a in work.acts]
    dacts = [d[:rows] for d in work.dacts]
    spare, delta_buf = work.deltas
    for i, (z, d) in enumerate(zip(acts[1:], dacts)):
        np.matmul(acts[i], w.W[i], out=z)
        z += w.b[i]
        s = _sigmoid(z, out=_leading(spare, *z.shape))
        z *= s
        np.subtract(1.0, s, out=d)
        d *= z
        d += s  # swish_grad(pre) = s + pre*s*(1 - s)

    delta = np.matmul(acts[-1], w.W[-1], out=_leading(delta_buf, rows, Y.shape[1]))
    delta += w.b[-1]
    delta -= Y  # the residual
    square = np.multiply(delta, delta, out=_leading(spare, *delta.shape))
    loss = float(np.mean(square))
    if not np.isfinite(loss):
        raise TrainingDivergedError("loss is non-finite")

    g = work.g
    delta *= 2.0
    delta /= delta.size  # 2 * resid / resid.size
    for i in range(len(w.W) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=g.W[i])
        np.sum(delta, axis=0, out=g.b[i])
        if i:
            spare, delta_buf = delta_buf, spare
            delta = np.matmul(delta, w.W[i].T, out=_leading(delta_buf, rows, w.W[i].shape[0]))
            delta *= dacts[i - 1]
    return loss, g


@dataclass
class TrainHistory:
    """Per-epoch losses plus run metadata."""

    epochs: list = field(default_factory=list)  # dicts: epoch, train_loss, val_loss, wall_seconds
    meta: dict = field(default_factory=dict)

    def val_losses(self) -> np.ndarray:
        return np.array([e["val_loss"] for e in self.epochs])


def train(ds: Dataset, norm: Normalizer, mcfg: MLPConfig | None = None,
          tcfg: TrainConfig | None = None):
    """Mini-batch training with adaptive moments and early stopping.

    Returns (weights, history); the weights are the checkpoint with the best
    validation loss seen. Aborts with TrainingDivergedError if the
    validation loss goes non-finite.
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

    w = init_weights(mcfg)
    history = TrainHistory(meta={"deterministic": True, "mlp": asdict(mcfg), "train": asdict(tcfg)})
    t0 = time.perf_counter()
    stages = [(tcfg.learning_rate, tcfg.max_epochs)]
    stages += [(tcfg.learning_rate * f, max(tcfg.patience + 1, tcfg.max_epochs // 2))
               for f in tcfg.refine_factors]
    best_w, best_val = w, np.inf
    for stage, (lr, epoch_budget) in enumerate(stages):
        best_w, best_val = _train_stage(
            best_w, Xtr, Ytr, Xva, Yva, lr, epoch_budget, tcfg, stage, history, t0, best_val)
    history.meta["best_val_loss"] = best_val
    history.meta["trained_epochs"] = len(history.epochs)
    return best_w, history


def _train_stage(start: MLPWeights, Xtr, Ytr, Xva, Yva, lr, epoch_budget,
                 tcfg: TrainConfig, stage: int, history: TrainHistory, t0, best_val_in):
    """One optimization stage with fresh moments, from the weights ``start``,
    which it leaves unchanged; returns the best checkpoint seen so far
    (across stages)."""
    params = np.concatenate([a.ravel() for a in start.W + start.b], dtype=float)
    w = _views(params, start.widths)  # updated in place through ``params``
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    scratch = np.empty_like(params)
    n_tr = len(Xtr)
    work = _Work(start.widths, min(tcfg.batch_size, n_tr))
    rng = np.random.default_rng(tcfg.seed + stage)
    best_val = best_val_in
    best_w = start
    stale = 0
    step = 0
    epoch_offset = len(history.epochs)
    for epoch in range(1, epoch_budget + 1):
        t_epoch = time.perf_counter()
        order = rng.permutation(n_tr)
        batch_losses = []
        for begin in range(0, n_tr, tcfg.batch_size):
            idx = order[begin:begin + tcfg.batch_size]
            # "clip" writes straight into ``out``; the indices are in range
            Xb = np.take(Xtr, idx, axis=0, out=work.X[:len(idx)], mode="clip")
            Yb = np.take(Ytr, idx, axis=0, out=work.Y[:len(idx)], mode="clip")
            loss, _ = loss_and_grad(w, Xb, Yb, work)
            batch_losses.append(loss)
            step += 1
            bc1 = 1.0 - tcfg.beta1 ** step
            bc2 = 1.0 - tcfg.beta2 ** step
            _adam_update(params, m, v, work.grad, scratch, lr, bc1, bc2, tcfg)
        step_seconds = (time.perf_counter() - t_epoch) / len(batch_losses)

        resid = forward(w, Xva)
        resid -= Yva
        resid *= resid
        val_loss = float(np.mean(resid))
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"validation loss non-finite at epoch {epoch_offset + epoch}")
        train_loss = float(np.mean(batch_losses))
        history.epochs.append({
            "epoch": epoch_offset + epoch,
            "train_loss": train_loss,
            "val_loss": val_loss,
            "wall_seconds": time.perf_counter() - t0,
        })
        if log.isEnabledFor(logging.DEBUG):
            log.debug("epoch %d (stage %d): train loss %.4e, val loss %.4e; %d steps, "
                      "%.3f ms per step", epoch_offset + epoch, stage, train_loss, val_loss,
                      len(batch_losses), 1e3 * step_seconds)
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


def predict_params(w: MLPWeights, norm: Normalizer, fv) -> ModelParams:
    """Map one feature vector to a valid parameter set, clipped to the
    model's box (``norm.param_ranges``)."""
    fv = np.asarray(fv, dtype=float)
    if fv.shape != (N_FEATURES,):
        raise InvalidParameterError(f"feature vector must have shape ({N_FEATURES},)")
    if not np.all(np.isfinite(fv)):
        raise InvalidParameterError("feature vector contains non-finite values")
    out = forward(w, norm.normalize_features(fv))
    return ModelParams.from_vector(norm.param_ranges.clip_vector(norm.denormalize_params(out)))


def save_model(path, w: MLPWeights, norm: Normalizer, mcfg: MLPConfig):
    """Single self-describing JSON document (format version 3). The shape,
    the settings and the normalizer, with the feature settings, are plain
    JSON; each layer's ``W`` and ``b`` is one base64 string of the array's
    little-endian float64 bytes in row-major order, its shape given by
    ``mlp.widths``. The bytes are the weights themselves, so a reloaded
    model reproduces predictions bit-for-bit."""
    t0 = time.perf_counter()
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mlp": asdict(mcfg),
        "normalizer": norm.to_dict(),
        "layers": [{"W": _encode(wi), "b": _encode(bi)} for wi, bi in zip(w.W, w.b)],
    }
    text = json.dumps(doc) + "\n"  # one call: json.dump to a file uses the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(text)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("saved model %s: %d bytes in %.3f ms", path, len(text),
                  1e3 * (time.perf_counter() - t0))


def _encode(array: np.ndarray) -> str:
    """The base64 text of ``array``'s little-endian float64 bytes, row-major."""
    return base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode(name: str, text, shape: tuple) -> np.ndarray:
    """The writable float64 array of ``shape`` that ``_encode`` wrote as
    ``text``. Raise DataError unless ``text`` is a base64 string of exactly
    that many values, each finite."""
    if not isinstance(text, str):
        raise DataError(f"{name} must be a base64 string, got {reprlib.repr(text)}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataError(f"{name} is not valid base64: {exc}") from exc
    n = math.prod(shape)
    if len(raw) != 8 * n:
        raise DataError(f"{name} must hold {n} float64 values of shape {shape} "
                        f"({8 * n} bytes), got {len(raw)} bytes")
    return require_numbers(name, np.frombuffer(raw, "<f8").reshape(shape).astype(float), shape)


def load_model(path):
    """Returns (weights, normalizer, config). A malformed file, its
    normalizer, the model's box, its feature settings and each layer's
    encoded arrays included, raises a DataError naming it. A file of another
    format version (a version-1 file held the weights as decimal lists, a
    version-2 file lacked the feature settings) is unsupported: retrain to
    get a version-3 file."""
    t0 = time.perf_counter()
    doc = read_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: unrecognized format {doc.get('format')!r}")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(
            f"{path}: model version {doc.get('version')!r} unsupported "
            f"(expected {MODEL_VERSION}); retrain the model"
        )
    missing = [key for key in ("mlp", "normalizer", "layers") if key not in doc]
    if missing:
        raise DataError(f"{path}: model file lacks {', '.join(map(repr, missing))}")
    try:
        mcfg = MLPConfig(**{f.name: doc["mlp"][f.name] for f in fields(MLPConfig)})
        norm = Normalizer.from_dict(doc["normalizer"])
        layers, widths = doc["layers"], mcfg.widths
        if len(layers) != len(widths) - 1:
            raise DataError(f"expected {len(widths) - 1} layers, got {len(layers)}")
        W, b = [], []
        for i, layer in enumerate(layers):
            W.append(_decode(f"layers[{i}].W", layer["W"], widths[i:i + 2]))
            b.append(_decode(f"layers[{i}].b", layer["b"], widths[i + 1:i + 2]))
    except (AttributeError, ConfigError, DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from exc
    if log.isEnabledFor(logging.DEBUG):
        log.debug("loaded model %s: %d bytes in %.3f ms", path, os.path.getsize(path),
                  1e3 * (time.perf_counter() - t0))
    return MLPWeights(W, b), norm, mcfg


def write_history_csv(history: TrainHistory, path):
    lines = ["# meta " + json.dumps(history.meta, sort_keys=True),
             "epoch,train_loss,val_loss,wall_seconds"]
    for e in history.epochs:
        lines.append("%d,%.17g,%.17g,%.6f"
                     % (e["epoch"], e["train_loss"], e["val_loss"], e["wall_seconds"]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
