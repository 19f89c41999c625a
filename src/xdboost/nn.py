"""Differentiable building blocks: activations, losses, dense layers and
Adam. Everything is float64 and single-threaded; gradients are analytic
and checked against finite differences in the tests.
"""

import numpy as np

from . import kernels
from .errors import ConfigError, UsageError

DENSE_ACTIVATIONS = ("relu", "identity")  # the heads' derivatives live in their losses'

# Probabilities are clipped to [P_CLIP, 1 - P_CLIP] before any log.
P_CLIP = 1e-7


def activation_apply(kind, x):
    """Apply an activation elementwise. Unknown kinds are a config error."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        # exp overflow on very negative logits saturates to exactly 0.0,
        # which is the intended limit, so the warning carries no information
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-x))
    if kind == "tanh":
        return np.tanh(x)
    if kind == "identity":
        return x
    raise ConfigError(f"unknown activation kind: {kind!r}")


def activation_grad_from_output(kind, out):
    """Derivative of a dense layer's activation through its own output.

    For relu the subgradient at 0 is taken as 0 (out == 0 gives 0).
    """
    if kind == "relu":
        return (out > 0.0).astype(np.float64)
    if kind == "identity":
        return np.ones_like(out)
    raise ConfigError(f"unknown activation kind: {kind!r}")


def _label_weights(y, class_weights):
    """Each float64 label's class weight, from a pair (weight of label 0,
    weight of label 1) such as data.ClassWeights, or unit weights for None.
    Another class_weights, or a label other than 0 or 1, is a UsageError."""
    binary = (y == 0.0) | (y == 1.0)
    if not binary.all():
        raise UsageError(f"labels must be 0 or 1, got {y[~binary][0]}")
    try:
        w = np.asarray((1.0, 1.0) if class_weights is None else class_weights)
    except ValueError:  # a ragged sequence
        w = np.empty(0)
    if w.shape != (2,) or w.dtype.kind not in "iuf":
        raise UsageError("class weights must be a pair of numbers (weight of label 0, "
                         f"weight of label 1), got {class_weights!r}")
    return w.astype(np.float64, copy=False)[y.astype(np.int64)]


def bce_terms(y, class_weights=None):
    """The label terms of the class-weighted binary cross-entropy: (y, each
    row's class weight, -y, 1 - y), for labels y as float64. A label other
    than 0 or 1, or class weights other than a pair of numbers, is a
    UsageError. A fit derives them once per batch and reuses them."""
    return y, _label_weights(y, class_weights), -y, 1.0 - y


def weighted_bce_loss(p, y, class_weights=None):
    """Mean class-weighted binary cross-entropy.

    Probabilities are clipped to [P_CLIP, 1 - P_CLIP]; each instance is
    weighted by the weight of its true class, so a label must be 0 or 1.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise UsageError(f"length mismatch: {p.shape} vs {y.shape}")
    return bce_loss_of_terms(p, bce_terms(y, class_weights))


def bce_loss_of_terms(p, terms):
    """weighted_bce_loss of float64 probabilities p from their labels' bce_terms."""
    _, w, neg_y, one_minus_y = terms
    pc = np.clip(p, P_CLIP, 1.0 - P_CLIP)
    per = neg_y * np.log(pc) - one_minus_y * np.log(1.0 - pc)
    return float(np.mean(w * per))


def bce_dlogit_of_terms(p, terms):
    """Gradient of weighted_bce_loss w.r.t. the pre-sigmoid logit, for
    float64 probabilities p from their labels' bce_terms.

    Exact for the clipped loss: zero where the clip is active, otherwise
    the usual fused form w * (p - y) / n.
    """
    y, w = terms[:2]
    inside = (p > P_CLIP) & (p < 1.0 - P_CLIP)
    return w * (p - y) * inside / p.shape[0]


def mae_loss(yhat, target):
    """Mean absolute error."""
    yhat = np.asarray(yhat, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if yhat.shape != target.shape:
        raise UsageError(f"length mismatch: {yhat.shape} vs {target.shape}")
    return float(np.mean(np.abs(yhat - target)))


def mae_dlogit_tanh(yhat, target):
    """Gradient of mae_loss w.r.t. the pre-tanh logit.

    sign(0) = 0, i.e. the symmetric subgradient at the kink.
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return np.sign(yhat - target) * (1.0 - yhat * yhat) / yhat.shape[0]


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    """Fully connected layer out = act(x @ W.T + b), W is (out_dim, in_dim).

    The layer computes with the weight and bias arrays it is given, which
    may be views into a larger buffer; construction Glorot-initializes the
    weights in place and leaves the bias as it is. forward returns a cache
    consumed by backward, so prediction can run concurrently without
    mutating the layer.
    """

    def __init__(self, weights, bias, activation, rng):
        if activation not in DENSE_ACTIVATIONS:
            raise ConfigError(f"unknown dense layer activation: {activation!r}")
        self.out_dim, self.in_dim = weights.shape
        self.activation = activation
        self.weights = weights
        self.bias = bias
        weights[...] = glorot_uniform(rng, weights.shape, self.in_dim, self.out_dim)

    def forward(self, x):
        if x.shape[1] != self.in_dim:
            raise UsageError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        out = activation_apply(self.activation, x @ self.weights.T + self.bias)
        return out, (x, out)

    def backward(self, cache, dout):
        """Return (dx, dweights, dbias) for the cached forward pass."""
        if cache is None:
            raise UsageError("backward called before forward")
        x, out = cache
        if dout.shape != out.shape:
            raise UsageError(f"gradient shape {dout.shape} does not match output {out.shape}")
        dz = dout * activation_grad_from_output(self.activation, out)
        return dz @ self.weights, dz.T @ x, dz.sum(axis=0)


class Adam:
    """Bias-corrected Adam over one flat parameter vector.

    step() mutates the vector in place with a single fused update and
    advances the step counter by exactly 1. The m/v accumulators are
    vectors of the same length.
    """

    def __init__(self, params, learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params, grads):
        if params.shape != self.m.shape or grads.shape != params.shape:
            raise UsageError(f"adam step on shapes {params.shape} and {grads.shape}, "
                             f"optimizer state is {self.m.shape}")
        self.t += 1
        kernels.adam_update(params, grads, self.m, self.v, self.learning_rate,
                            self.beta1, self.beta2, self.epsilon, self.t)

    def state_copy(self):
        return (self.t, self.m.copy(), self.v.copy())

    def load_state(self, state):
        self.t = state[0]
        self.m[...] = state[1]
        self.v[...] = state[2]
