"""Activations, losses, layer gradients and the Adam optimizer.

Every frozen constant here is a hand calculation (ln 2 for an even coin,
|0.2| + |-0.5| averaged, the bias-corrected first Adam step) and the
analytic gradients are compared against central finite differences.
"""

import math

import numpy as np
import pytest

from xdboost import kernels, nn
from xdboost.data import ClassWeights
from xdboost.errors import ConfigError, UsageError

LN2 = math.log(2.0)


def test_activation_values():
    assert nn.activation_apply("sigmoid", [0.0]) == pytest.approx([0.5], abs=0)
    assert nn.activation_apply("tanh", [0.0]) == pytest.approx([0.0], abs=0)
    assert np.array_equal(nn.activation_apply("relu", [-2.0, 3.0]), [0.0, 3.0])
    assert np.array_equal(nn.activation_apply("identity", [-2.0, 3.0]), [-2.0, 3.0])


def test_unknown_activation_is_a_config_error():
    with pytest.raises(ConfigError):
        nn.activation_apply("softplus", [0.0])
    with pytest.raises(ConfigError):
        nn.activation_grad_from_output("softplus", np.zeros(1))


def test_sigmoid_tanh_ranges_are_strict():
    # tanh saturates to exactly 1.0 in float64 near |x| ~ 19, sigmoid near 37;
    # the strict open-interval claim is about the non-saturated region
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2000) * 4.0
    s = nn.activation_apply("sigmoid", x)
    t = nn.activation_apply("tanh", x)
    assert np.all((s > 0.0) & (s < 1.0))
    assert np.all((t > -1.0) & (t < 1.0))


def test_activation_grads_match_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, size=200)
    x = x[np.abs(x) > 1e-3]  # keep clear of the relu kink
    h = 1e-6
    for kind in ("relu", "identity"):
        out = nn.activation_apply(kind, x)
        grad = nn.activation_grad_from_output(kind, out)
        fd = (nn.activation_apply(kind, x + h) - nn.activation_apply(kind, x - h)) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-6


def test_relu_subgradient_at_zero_is_zero():
    out = nn.activation_apply("relu", np.array([0.0]))
    assert nn.activation_grad_from_output("relu", out)[0] == 0.0


def test_bce_even_coin_is_ln2():
    loss = nn.weighted_bce_loss([0.5], [1.0], (1.0, 1.0))
    assert abs(loss - LN2) < 1e-12


def test_bce_click_weight_scales_the_click_term():
    loss = nn.weighted_bce_loss([0.5], [1.0], (1.0, 4.0))
    assert abs(loss - 4.0 * LN2) < 1e-12


def test_bce_two_confident_rows():
    loss = nn.weighted_bce_loss([0.9, 0.1], [1.0, 0.0])
    assert abs(loss - (-math.log(0.9))) < 1e-12


def test_bce_all_weights_one_equals_unweighted_exactly():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        p = rng.uniform(0.0, 1.0, size=n)
        y = rng.integers(0, 2, size=n).astype(np.float64)
        assert (nn.weighted_bce_loss(p, y, (1.0, 1.0))
                == nn.weighted_bce_loss(p, y, None))


def test_bce_clips_probabilities():
    exact = nn.weighted_bce_loss([0.0, 1.0], [0.0, 1.0])
    nearly = nn.weighted_bce_loss([1e-12, 1.0 - 1e-12], [0.0, 1.0])
    assert exact == nearly
    assert math.isfinite(nn.weighted_bce_loss([0.0], [1.0]))


def test_bce_shape_mismatch_is_a_usage_error():
    with pytest.raises(UsageError):
        nn.weighted_bce_loss([0.5, 0.5], [1.0])
    with pytest.raises(UsageError):
        nn.weighted_bce_loss([0.5], [1.0], np.ones(3))


@pytest.mark.parametrize("weights", [{0: 1.0, 1: 2.0}, (1.0,), (1.0, 2.0, 3.0), "12",
                                     ("1", "2"), (True, False), [[1.0], [1.0, 2.0]]])
def test_class_weights_that_are_not_a_pair_of_numbers_are_a_usage_error(weights):
    with pytest.raises(UsageError, match="pair of numbers"):
        nn.weighted_bce_loss([0.5], [1.0], weights)
    with pytest.raises(UsageError, match="pair of numbers"):
        nn.bce_dlogit_of_terms(np.array([0.5]), nn.bce_terms(np.array([1.0]), weights))


@pytest.mark.parametrize("label", [-1.0, 2.0, 0.5, math.nan])
def test_bce_loss_refuses_a_label_other_than_0_or_1(label):
    """Indexing the class weights by label -1 would weigh it as a click."""
    with pytest.raises(UsageError, match="labels must be 0 or 1"):
        nn.weighted_bce_loss([0.5, 0.5], [1.0, label], (1.0, 4.0))


@pytest.mark.parametrize("label", [-1.0, 2.0, 0.5, math.nan])
def test_bce_dlogit_refuses_a_label_other_than_0_or_1(label):
    with pytest.raises(UsageError, match="labels must be 0 or 1"):
        nn.bce_dlogit_of_terms(np.array([0.5, 0.5]), nn.bce_terms(np.array([1.0, label]), (1.0, 4.0)))


def test_class_weights_are_indexed_by_label():
    p, y = np.array([0.3, 0.6, 0.8]), np.array([0.0, 1.0, 1.0])
    for pair in (ClassWeights(1.0, 2.5), (1.0, 2.5), [1, 2.5], np.array([1.0, 2.5])):
        assert nn.weighted_bce_loss(p, y, pair) == nn.weighted_bce_loss(p, y, (1.0, 2.5))
        assert np.array_equal(nn.bce_dlogit_of_terms(p, nn.bce_terms(y, pair)),
                              nn.bce_dlogit_of_terms(p, nn.bce_terms(y, (1.0, 2.5))))
    assert nn.weighted_bce_loss(p, y, (2.0, 1.0)) != nn.weighted_bce_loss(p, y, (1.0, 2.0))


def test_bce_dlogit_fused_form_and_clip_mask():
    grad = nn.bce_dlogit_of_terms(np.array([0.7]), nn.bce_terms(np.array([1.0])))
    assert abs(grad[0] - (0.7 - 1.0)) < 1e-15
    grad = nn.bce_dlogit_of_terms(np.array([0.7, 0.2]),
                                  nn.bce_terms(np.array([1.0, 0.0]), (1.0, 3.0)))
    assert abs(grad[0] - 3.0 * (0.7 - 1.0) / 2) < 1e-15
    assert abs(grad[1] - (0.2 - 0.0) / 2) < 1e-15
    # where the clip is active the loss is flat, so the gradient is zero
    clipped = nn.bce_dlogit_of_terms(np.array([1e-9, 1.0 - 1e-9]),
                                     nn.bce_terms(np.array([1.0, 0.0])))
    assert np.array_equal(clipped, [0.0, 0.0])


def test_bce_dlogit_matches_finite_differences_through_sigmoid():
    rng = np.random.default_rng(9)
    z = rng.uniform(-4.0, 4.0, size=25)
    y = rng.integers(0, 2, size=25).astype(np.float64)
    w = (1.0, 2.5)
    grad = nn.bce_dlogit_of_terms(nn.activation_apply("sigmoid", z), nn.bce_terms(y, w))
    h = 1e-6
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd = (nn.weighted_bce_loss(nn.activation_apply("sigmoid", zp), y, w)
              - nn.weighted_bce_loss(nn.activation_apply("sigmoid", zm), y, w)) / (2 * h)
        assert abs(fd - grad[j]) < 1e-7


def test_mae_values():
    assert nn.mae_loss([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert abs(nn.mae_loss([0.5], [-0.5]) - 1.0) < 1e-12
    assert abs(nn.mae_loss([0.2, -0.4], [0.0, 0.1]) - 0.35) < 1e-12
    with pytest.raises(UsageError):
        nn.mae_loss([0.0], [0.0, 0.0])


def test_mae_dlogit_uses_symmetric_subgradient_at_the_kink():
    grad = nn.mae_dlogit_tanh(np.array([0.3]), np.array([0.3]))
    assert grad[0] == 0.0


def test_mae_dlogit_matches_finite_differences_through_tanh():
    rng = np.random.default_rng(10)
    z = rng.uniform(-2.0, 2.0, size=25)
    t = rng.uniform(-0.9, 0.9, size=25)
    keep = np.abs(np.tanh(z) - t) > 1e-3
    z, t = z[keep], t[keep]
    grad = nn.mae_dlogit_tanh(np.tanh(z), t)
    h = 1e-6
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd = (nn.mae_loss(np.tanh(zp), t) - nn.mae_loss(np.tanh(zm), t)) / (2 * h)
        assert abs(fd - grad[j]) < 1e-7


def test_glorot_uniform_bounds_and_determinism():
    limit = math.sqrt(6.0 / (20 + 30))
    draws = nn.glorot_uniform(np.random.default_rng(2), (200, 50), 20, 30)
    again = nn.glorot_uniform(np.random.default_rng(2), (200, 50), 20, 30)
    assert draws.shape == (200, 50)
    assert np.max(np.abs(draws)) <= limit
    assert np.array_equal(draws, again)


def _dense(in_dim, out_dim, kind, rng):
    return nn.DenseLayer(np.empty((out_dim, in_dim)), np.zeros(out_dim), kind, rng)


def test_dense_layer_forward_and_errors():
    layer = _dense(3, 2, "relu", np.random.default_rng(0))
    limit = math.sqrt(6.0 / (3 + 2))
    assert (layer.in_dim, layer.out_dim) == (3, 2)
    assert np.array_equal(layer.weights,
                          nn.glorot_uniform(np.random.default_rng(0), (2, 3), 3, 2))
    assert np.max(np.abs(layer.weights)) <= limit
    out, cache = layer.forward(np.ones((4, 3)))
    assert out.shape == (4, 2)
    assert np.array_equal(out, np.maximum(np.ones((4, 3)) @ layer.weights.T + layer.bias, 0.0))
    with pytest.raises(UsageError):
        layer.forward(np.ones((4, 5)))
    with pytest.raises(UsageError):
        layer.backward(None, np.ones((4, 2)))
    with pytest.raises(UsageError):
        layer.backward(cache, np.ones((4, 3)))
    with pytest.raises(ConfigError):
        _dense(3, 2, "softmax", np.random.default_rng(0))
    with pytest.raises(ConfigError):  # a head's derivative lives in its loss's
        _dense(3, 2, "tanh", np.random.default_rng(0))


def test_dense_layer_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    for kind in ("identity", "relu"):
        layer = _dense(4, 3, kind, rng)
        x = rng.uniform(0.1, 1.0, size=(5, 4))
        # resample until every preactivation is far from the relu kink,
        # otherwise a finite-difference step could cross it
        while np.min(np.abs(x @ layer.weights.T + layer.bias)) < 1e-2:
            x = rng.uniform(0.1, 1.0, size=(5, 4))
        direction = rng.standard_normal((5, 3))
        out, cache = layer.forward(x)
        dx, dw, db = layer.backward(cache, direction)

        def total(x=x, layer=layer):
            return float((layer.forward(x)[0] * direction).sum())

        h = 1e-6
        for arr, grad in ((layer.weights, dw), (layer.bias, db), (x, dx)):
            flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = total()
                flat[j] = orig - h
                down = total()
                flat[j] = orig
                assert abs((up - down) / (2 * h) - gflat[j]) < 1e-6


def test_adam_zero_gradients_leave_parameters_unchanged():
    param = np.array([1.0, -2.0, 3.0])
    opt = nn.Adam(param, 1e-2)
    before = param.copy()
    for _ in range(5):
        opt.step(param, np.zeros(3))
    assert np.array_equal(param, before)


def test_adam_first_step_size_is_the_learning_rate():
    param = np.array([1.0])
    opt = nn.Adam(param, 1e-4)
    opt.step(param, np.array([1.0]))
    # bias correction makes mhat = vhat = 1 on the first step
    assert abs((1.0 - param[0]) - 1e-4) < 1e-10


def test_adam_two_identical_steps_are_within_one_percent():
    param = np.array([1.0])
    opt = nn.Adam(param, 1e-4)
    opt.step(param, np.array([1.0]))
    first = 1.0 - param[0]
    before = param[0]
    opt.step(param, np.array([1.0]))
    second = before - param[0]
    assert abs(second - first) < 0.01 * first


def test_adam_is_deterministic():
    rng = np.random.default_rng(12)
    grads = [rng.standard_normal(4) for _ in range(10)]
    results = []
    for _ in range(2):
        param = np.arange(4, dtype=np.float64)
        opt = nn.Adam(param, 3e-3)
        for g in grads:
            opt.step(param, g.copy())
        results.append(param.copy())
    assert np.array_equal(results[0], results[1])


def test_adam_state_roundtrip_resumes_identically():
    rng = np.random.default_rng(14)
    grads = [rng.standard_normal(3) for _ in range(6)]
    param = np.zeros(3)
    opt = nn.Adam(param, 1e-2)
    for g in grads[:3]:
        opt.step(param, g)
    saved_param = param.copy()
    saved_state = opt.state_copy()
    for g in grads[3:]:
        opt.step(param, g)
    finished = param.copy()

    param[...] = saved_param
    opt.load_state(saved_state)
    for g in grads[3:]:
        opt.step(param, g)
    assert np.array_equal(param, finished)


def test_adam_rejects_mismatched_gradients():
    param = np.zeros(3)
    opt = nn.Adam(param, 1e-2)
    with pytest.raises(UsageError):
        opt.step(param, np.zeros((2, 3)))
    with pytest.raises(UsageError):
        opt.step(param, np.zeros(4))
    with pytest.raises(UsageError):
        opt.step(np.zeros(4), np.zeros(4))


def test_adam_flat_step_equals_per_tensor_steps_bitwise():
    """One step over concatenated tensors lands on the same bits as one
    kernel call per tensor."""
    rng = np.random.default_rng(15)
    shapes = [(5, 3), (5,), (1,), (4, 7), (4,)]
    tensors = [rng.standard_normal(s) for s in shapes]
    flat = np.concatenate([t.reshape(-1) for t in tensors])
    opt = nn.Adam(flat, 1e-2)
    ms = [np.zeros_like(t) for t in tensors]
    vs = [np.zeros_like(t) for t in tensors]
    for t in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        opt.step(flat, np.concatenate([g.reshape(-1) for g in grads]))
        for p, g, m, v in zip(tensors, grads, ms, vs):
            kernels.adam_update(p, g, m, v, 1e-2, 0.9, 0.999, 1e-8, t)
        for name, got, want in (("param", flat, tensors), ("m", opt.m, ms), ("v", opt.v, vs)):
            assert np.array_equal(got, np.concatenate([a.reshape(-1) for a in want])), name
