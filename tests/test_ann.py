"""Network tests: activation, init, forward, gradients, training, model I/O."""

import hashlib
import math

import numpy as np
import pytest

from fetfit.ann import (
    DEFAULT_HIDDEN,
    _adam_update,
    _sigmoid,
    MLPConfig,
    MLPWeights,
    TrainConfig,
    forward,
    init_weights,
    load_model,
    loss_and_grad,
    predict_params,
    save_model,
    swish,
    swish_grad,
    train,
)
from fetfit.dataset import Dataset, Normalizer, build_dataset, fit_normalizer
from fetfit.errors import ConfigError, DataError, InvalidParameterError
from fetfit.params import DEFAULT_RANGES, PARAM_NAMES


def small_weights(widths, seed=0):
    return init_weights(MLPConfig(widths=widths, seed=seed))


def finite_diff_grads(w, X, Y, h=1e-5):
    """Central-difference gradients, the independent oracle for backprop."""
    gW = [np.zeros_like(a) for a in w.W]
    gb = [np.zeros_like(a) for a in w.b]
    for arrs, grads in ((w.W, gW), (w.b, gb)):
        for k, arr in enumerate(arrs):
            flat = arr.reshape(-1)
            gflat = grads[k].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp, _ = loss_and_grad(w, X, Y)
                flat[j] = orig - h
                lm, _ = loss_and_grad(w, X, Y)
                flat[j] = orig
                gflat[j] = (lp - lm) / (2 * h)
    return MLPWeights(gW, gb)


def max_rel_grad_error(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic.W + analytic.b, numeric.W + numeric.b):
        denom = np.maximum(np.abs(ga) + np.abs(gn), 1e-6)
        worst = max(worst, float(np.max(np.abs(ga - gn) / denom)))
    return worst


def test_swish_values():
    assert swish(0.0) == 0.0
    assert abs(swish(20.0) - 20.0) < 1e-7
    assert swish(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)  # ~0.731059


def test_swish_grad_matches_finite_difference():
    h = 1e-6
    for x in (-3.0, -0.5, 0.0, 0.7, 4.0):
        fd = (swish(x + h) - swish(x - h)) / (2 * h)
        assert swish_grad(x) == pytest.approx(fd, abs=1e-8)


def test_activations_finite_at_extremes():
    x = np.array([-1e4, -710.0, -40.0, 0.0, 40.0, 710.0, 1e4])
    with np.errstate(all="raise"):
        s = _sigmoid(x)
        sw = swish(x)
        dsw = swish_grad(x)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.isfinite(sw)) and np.all(np.isfinite(dsw))
    assert sw[-1] == 1e4 and sw[0] == 0.0


def test_init_deterministic_and_scaled():
    cfg = MLPConfig(seed=42)
    a = init_weights(cfg)
    b = init_weights(cfg)
    for wa, wb in zip(a.W, b.W):
        assert np.array_equal(wa, wb)
    for bias in a.b:
        assert np.all(bias == 0.0)
    # empirical std of the widest layer within 10% of sqrt(2/fan_in)
    w0 = a.W[0]
    assert np.std(w0) == pytest.approx(np.sqrt(2.0 / w0.shape[0]), rel=0.10)


def test_default_config_shape_contract():
    cfg = MLPConfig()
    assert cfg.widths[0] == 24 and cfg.widths[-1] == 14
    assert len(cfg.widths) == 6  # four hidden layers
    assert cfg.n_hidden_neurons == 340
    assert tuple(cfg.widths[1:-1]) == DEFAULT_HIDDEN


def test_forward_zero_weights_zero_output():
    w = small_weights((4, 3, 2))
    for arr in w.W:
        arr[:] = 0.0
    out = forward(w, np.ones(4))
    assert np.all(out == 0.0)


def test_forward_hand_computed_single_unit():
    # 1 -> 1 -> 1 network evaluated by hand:
    # pre = 2*0.3 + 0.5 = 1.1; swish(1.1) = 1.1*sigmoid(1.1); out = -1*h + 0.25
    w = MLPWeights([np.array([[2.0]]), np.array([[-1.0]])],
                   [np.array([0.5]), np.array([0.25])])
    sig = 1.0 / (1.0 + math.exp(-1.1))
    expected = -(1.1 * sig) + 0.25
    assert forward(w, np.array([0.3]))[0] == pytest.approx(expected, rel=1e-14)


def test_forward_batch_equals_per_row():
    w = small_weights((5, 7, 3), seed=1)
    X = np.random.default_rng(2).normal(size=(6, 5))
    batch = forward(w, X)
    rows = np.stack([forward(w, x) for x in X])
    assert np.allclose(batch, rows, rtol=0, atol=1e-14)


def test_loss_zero_at_exact_fit():
    w = small_weights((4, 5, 2), seed=3)
    X = np.random.default_rng(4).normal(size=(8, 4))
    Y = forward(w, X)
    loss, g = loss_and_grad(w, X, Y)
    assert loss == 0.0
    for arr in g.W + g.b:
        assert np.all(arr == 0.0)


def test_loss_scales_quadratically():
    w = small_weights((3, 4, 2), seed=5)
    X = np.random.default_rng(6).normal(size=(10, 3))
    Y = forward(w, X) + 0.1
    l1, _ = loss_and_grad(w, X, Y)
    Y2 = forward(w, X) + 0.2
    l2, _ = loss_and_grad(w, X, Y2)
    assert l2 == pytest.approx(4.0 * l1, rel=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(3):
        widths = (3, rng.integers(2, 5), rng.integers(2, 5), 2)
        w = small_weights(tuple(int(v) for v in widths), seed=trial)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(4, 2))
        _, g = loss_and_grad(w, X, Y)
        fd = finite_diff_grads(w, X, Y)
        assert max_rel_grad_error(g, fd) < 1e-4


def test_adam_update_matches_reference_expression():
    rng = np.random.default_rng(21)
    tcfg = TrainConfig()
    p, m, v, g = (rng.normal(size=(7, 5)) for _ in range(4))
    v = np.abs(v)
    lr, bc1, bc2 = 3e-3, 1.0 - tcfg.beta1 ** 4, 1.0 - tcfg.beta2 ** 4
    m_ref = tcfg.beta1 * m + (1.0 - tcfg.beta1) * g
    v_ref = tcfg.beta2 * v + (1.0 - tcfg.beta2) * g ** 2
    p_ref = p - lr * (m_ref / bc1) / (np.sqrt(v_ref / bc2) + tcfg.eps)
    _adam_update(p, m, v, g, np.empty_like(p), lr, bc1, bc2, tcfg)
    assert np.array_equal(m, m_ref)
    assert np.array_equal(v, v_ref)
    assert np.array_equal(p, p_ref)


def tiny_dataset(n=200, seed=12):
    """Small synthetic regression problem shaped like the real one."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 24))
    W_true = rng.normal(size=(24, 14)) * 0.3
    Y01 = 1.0 / (1.0 + np.exp(-(X @ W_true)))  # targets in (0, 1)
    lo, hi = DEFAULT_RANGES.lo_vector(), DEFAULT_RANGES.hi_vector()
    Y = lo + Y01 * (hi - lo)
    split = np.array(["train"] * int(0.8 * n) + ["val"] * int(0.1 * n)
                     + ["test"] * (n - int(0.8 * n) - int(0.1 * n)), dtype=object)
    return Dataset(X=X, Y=Y, split=split, seed=seed, ranges=DEFAULT_RANGES)


def identity_norm(ds):
    return Normalizer(
        feat_mean=np.zeros(24), feat_std=np.ones(24),
        param_lo=ds.ranges.lo_vector(), param_hi=ds.ranges.hi_vector(),
    )


def test_train_overfits_toy_dataset():
    ds = tiny_dataset()
    norm = identity_norm(ds)
    mcfg = MLPConfig(widths=(24, 64, 48, 14), seed=0)
    tcfg = TrainConfig(learning_rate=3e-3, batch_size=32, max_epochs=600,
                       patience=600 - 1, seed=0, refine_factors=())
    w, hist = train(ds, norm, mcfg, tcfg)
    final_train = hist.epochs[-1]["train_loss"]
    assert final_train < 1e-4


def test_train_reproducible_and_checkpoint_monotone():
    ds = tiny_dataset(n=150, seed=13)
    norm = identity_norm(ds)
    mcfg = MLPConfig(widths=(24, 16, 14), seed=1)
    tcfg = TrainConfig(max_epochs=30, patience=29, seed=2)
    w1, h1 = train(ds, norm, mcfg, tcfg)
    w2, h2 = train(ds, norm, mcfg, tcfg)
    for a, b in zip(w1.W, w2.W):
        assert np.array_equal(a, b)
    assert h1.val_losses().tolist() == h2.val_losses().tolist()
    # returned weights realize the best validation loss in the history
    va = ds.indices("val")
    val_pred = forward(w1, norm.normalize_features(ds.X[va]))
    val_loss = float(np.mean((val_pred - norm.normalize_params(ds.Y[va])) ** 2))
    assert val_loss <= h1.val_losses().min() + 1e-15


def test_full_batch_order_invariance():
    ds = tiny_dataset(n=120, seed=14)
    norm = identity_norm(ds)
    n_train = len(ds.indices("train"))
    mcfg = MLPConfig(widths=(24, 12, 14), seed=3)
    tcfg1 = TrainConfig(batch_size=n_train, max_epochs=5, patience=4, seed=10)
    tcfg2 = TrainConfig(batch_size=n_train, max_epochs=5, patience=4, seed=99)
    _, h1 = train(ds, norm, mcfg, tcfg1)
    _, h2 = train(ds, norm, mcfg, tcfg2)
    # different shuffles, but full-batch gradients: same loss trajectory
    np.testing.assert_allclose(h1.val_losses(), h2.val_losses(), rtol=1e-12)


def test_train_rejects_shape_mismatch():
    ds = tiny_dataset(n=120, seed=15)
    with pytest.raises(ConfigError):
        train(ds, identity_norm(ds), MLPConfig(widths=(10, 5, 14)), TrainConfig(max_epochs=2, patience=1))


@pytest.mark.parametrize("setting", [
    {"learning_rate": float("nan")},
    {"eps": float("nan")},
    {"eps": float("inf")},
    {"beta1": float("nan")},
    {"beta1": 1.0},
    {"beta2": 1.5},
    {"beta2": 0.0},
], ids=["lr-nan", "eps-nan", "eps-inf", "beta1-nan", "beta1-one", "beta2-above-one",
        "beta2-zero"])
def test_train_config_rejects_bad_settings(setting):
    with pytest.raises(ConfigError):
        TrainConfig(**setting)


def test_predict_params_clips_to_ranges():
    ds = tiny_dataset(n=120, seed=16)
    norm = identity_norm(ds)
    w = init_weights(MLPConfig(seed=4))
    for arr in w.W:
        arr *= 30.0  # force wild outputs
    fv = np.random.default_rng(17).normal(size=24) * 5
    p = predict_params(w, norm, fv)
    assert DEFAULT_RANGES.contains(p)
    assert p.CGGMIN + 0.1 <= p.CGGMAX
    # purity
    assert predict_params(w, norm, fv) == p


def test_predict_params_rejects_bad_input():
    norm = identity_norm(tiny_dataset(n=120, seed=18))
    w = init_weights(MLPConfig(seed=5))
    with pytest.raises(InvalidParameterError):
        predict_params(w, norm, np.full(24, np.nan))
    with pytest.raises(InvalidParameterError):
        predict_params(w, norm, np.zeros(7))


def test_model_save_load_bit_exact(tmp_path):
    ds = build_dataset(120, seed=19)
    norm = fit_normalizer(ds)
    mcfg = MLPConfig(seed=6)
    tcfg = TrainConfig(max_epochs=3, patience=2, seed=7)
    w, _ = train(ds, norm, mcfg, tcfg)
    path = tmp_path / "model.json"
    save_model(path, w, norm, mcfg)
    w2, norm2, mcfg2 = load_model(path)
    assert mcfg2 == mcfg
    fv = ds.X[0]
    assert predict_params(w, norm, fv) == predict_params(w2, norm2, fv)


# sha256 of save_model's bytes for the model below; pins the model file
# format (recorded with a json.dump writer, before the one-call json.dumps).
GOLDEN_MODEL_SHA256 = "89dc3635019be7108ffaccb4022ac1b22072f0057ab6ecb3926404abffb78bee"


def test_model_bytes_golden(tmp_path):
    mcfg = MLPConfig(seed=3)
    w = init_weights(mcfg)
    for i, b in enumerate(w.b):
        b[:] = np.linspace(-1.0, 1.0, b.size) * (i + 1) / 7.0
    rng = np.random.default_rng(11)
    norm = Normalizer(feat_mean=rng.normal(size=24), feat_std=rng.uniform(0.5, 2.0, size=24),
                      param_lo=DEFAULT_RANGES.lo_vector(), param_hi=DEFAULT_RANGES.hi_vector())
    path = tmp_path / "model.json"
    save_model(path, w, norm, mcfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256


def test_model_load_rejects_bad_files(tmp_path):
    ds = tiny_dataset(n=120, seed=20)
    norm = identity_norm(ds)
    w = init_weights(MLPConfig(seed=8))
    path = tmp_path / "model.json"
    save_model(path, w, norm, MLPConfig(seed=8))

    import json
    doc = json.loads(path.read_text())
    doc["version"] = 99
    bad = tmp_path / "bad_version.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(bad)

    truncated = tmp_path / "truncated.json"
    truncated.write_text(path.read_text()[:200])
    with pytest.raises(DataError):
        load_model(truncated)
