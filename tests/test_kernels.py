"""The numpy kernels: the categorical scatter must add in index order, bit
for bit, and the forward and backward passes built on prepared batches
must equal the per-field and broadcast formulations they replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import broadcast_backward, broadcast_forward, make_matrix, make_schema
from xdboost import kernels, nn
from xdboost.models import BaseNet, BaseNetConfig

# Values of both signs spanning sixteen orders of magnitude, so a changed
# summation order would show up in the rounding.
VALUES = (st.floats(min_value=1e-8, max_value=1e8)
          | st.floats(min_value=-1e8, max_value=-1e-8))


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_scatter_add_rows_accumulates_duplicates():
    """Rows scatter through the scalar kernel one column at a time, the
    way the backward pass fills the stacked embedding tables."""
    out = np.zeros((2, 2))
    idx = np.array([1, 1, 0], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    for c in range(2):
        kernels.scatter_add_scalars(out[:, c], idx, rows[:, c])
    assert np.array_equal(out, [[5.0, 6.0], [4.0, 6.0]])


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 8), data=st.data())
def test_scatter_add_scalars_equals_an_in_order_loop(size, data):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, size - 1), VALUES), max_size=60))
    expected = [0.0] * size
    for i, value in pairs:
        expected[i] += value
    out = np.zeros(size)
    kernels.scatter_add_scalars(out, np.array([i for i, _ in pairs], dtype=np.int64),
                                np.array([value for _, value in pairs], dtype=np.float64))
    assert out.tobytes() == np.array(expected).tobytes()


def _per_field_forward(net, cat, cont):
    """The forward pass as it was before prepared batches: one gather per
    table and ``V.sum(axis=1)``. Returns (outputs, V, total)."""
    n = cat.shape[0]
    k = net.config.embedding_dim
    V = np.empty((n, net.n_fields, k))
    for j, table in enumerate(net.embeddings):
        V[:, j, :] = table[cat[:, j]]
    if net.n_cont:
        V[:, net.n_cat:, :] = cont[:, :, None] * net.cont_proj[None, :, :]
    total = V.sum(axis=1)
    fm = 0.5 * ((total * total).sum(axis=1) - (V * V).sum(axis=(1, 2)))
    linear = np.full(n, net.bias[0])
    for j, w in enumerate(net.lin_cat):
        linear += w[cat[:, j]]
    if net.n_cont:
        linear += cont @ net.lin_cont
    h = V.reshape(n, net.n_fields * k)
    for layer in net.layers:
        h, _ = layer.forward(h)
    return nn.activation_apply(net.config.head, h[:, 0] + fm + linear), V, total


@settings(max_examples=120, deadline=None)
@given(vocab_sizes=st.sampled_from([(3, 2, 1), (1,), (), (4, 3, 2, 2, 2, 2, 2, 2, 2)]),
       n_cont=st.sampled_from([0, 2]), n_placeholders=st.sampled_from([0, 1]),
       n_rows=st.integers(0, 48), k=st.integers(1, 64), hidden=st.sampled_from([(), (5,)]),
       head=st.sampled_from(["sigmoid", "tanh"]), seed=st.integers(0, 2 ** 32 - 1))
@example(vocab_sizes=(4, 3, 2, 2, 2, 2, 2, 2, 2), n_cont=2, n_placeholders=1, n_rows=30,
         k=1, hidden=(), head="sigmoid", seed=1)
@example(vocab_sizes=(3, 2, 1), n_cont=0, n_placeholders=0, n_rows=0, k=64, hidden=(5,),
         head="tanh", seed=2)
def test_forward_equals_the_per_field_gather(vocab_sizes, n_cont, n_placeholders, n_rows,
                                             k, hidden, head, seed):
    """Every parameter, the zero-initialized ones too, is drawn over eight
    orders of magnitude below 1, so a changed summation order shows in the
    bits while the head stays unsaturated; nine categorical fields reach
    numpy's pairwise summation of the fields at k == 1."""
    if not vocab_sizes and not n_cont + n_placeholders:
        n_cont = 1
    schema = make_schema(vocab_sizes, n_cont=n_cont, n_placeholders=n_placeholders)
    config = BaseNetConfig(embedding_dim=k, hidden_layers=hidden, head=head)
    net = BaseNet(schema, config, seed=seed)
    rng = np.random.default_rng(seed)
    net.flat[...] = rng.standard_normal(net.flat.size) * 10.0 ** rng.integers(-8, 1, net.flat.size)
    X = make_matrix(rng, schema, n_rows, zero_placeholders=False)
    out, (V, total, _, _) = net._forward(net._batch(X.cat, X.cont), want_cache=True)
    expected = _per_field_forward(net, X.cat, X.cont)
    assert out.tobytes() == expected[0].tobytes()
    assert V.tobytes() == expected[1].tobytes()
    assert total.tobytes() == expected[2].tobytes()
    assert net._forward(net._batch(X.cat, X.cont), want_cache=False)[0].tobytes() == out.tobytes()


@settings(max_examples=40, deadline=None)
@given(vocab_sizes=st.sampled_from([(3, 2, 1), (1,), ()]), n_rows=st.integers(0, 48),
       k=st.integers(1, 4), hidden=st.sampled_from([(), (5,)]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-8, 1.0, 1e8]))
def test_backward_equals_the_per_field_scatter(vocab_sizes, n_rows, k, hidden, seed, scale):
    """Small vocabularies repeat tokens across rows; ``()`` has no
    categorical field at all."""
    schema = make_schema(vocab_sizes, n_cont=2)
    net = BaseNet(schema, BaseNetConfig(embedding_dim=k, hidden_layers=hidden), seed=seed)
    rng = np.random.default_rng(seed)
    X = make_matrix(rng, schema, n_rows)
    _, cache = net._forward(net._batch(X.cat, X.cont), want_cache=True)
    dlogit = scale * rng.standard_normal(n_rows)
    got = net._backward(cache, dlogit)
    assert got.tobytes() == broadcast_backward(net, X.cat, cache, dlogit).tobytes()


@settings(max_examples=150, deadline=None)
@given(vocab_sizes=st.sampled_from([(), (1,), (3, 2, 1)]), n_cont=st.integers(0, 3),
       n_rows=st.sampled_from([1, 1, 2, 7, 40]), k=st.sampled_from([1, 2, 3, 8, 9]),
       hidden=st.sampled_from([(), (5,)]), head=st.sampled_from(["sigmoid", "tanh"]),
       seed=st.integers(0, 2 ** 32 - 1), zero_share=st.sampled_from([0.0, 0.3]))
@example(vocab_sizes=(3, 2, 1), n_cont=0, n_rows=1, k=9, hidden=(), head="sigmoid", seed=3,
         zero_share=0.3)
@example(vocab_sizes=(), n_cont=2, n_rows=1, k=8, hidden=(5,), head="tanh", seed=4,
         zero_share=0.3)
def test_passes_equal_the_broadcast_lines(vocab_sizes, n_cont, n_rows, k, hidden, head,
                                          seed, zero_share):
    """The forward outputs and the backward gradient vector equal the k-wide
    broadcast forms byte for byte; a share of the parameters, continuous
    inputs and logit gradients is -0.0, whose sign a product keeps."""
    if not vocab_sizes and not n_cont:
        n_cont = 1
    schema = make_schema(vocab_sizes, n_cont=n_cont)
    config = BaseNetConfig(embedding_dim=k, hidden_layers=hidden, head=head)
    net = BaseNet(schema, config, seed=seed)
    rng = np.random.default_rng(seed)
    net.flat[...] = rng.standard_normal(net.flat.size) * 10.0 ** rng.integers(-8, 1, net.flat.size)
    net.flat[rng.random(net.flat.size) < zero_share] = -0.0
    X = make_matrix(rng, schema, n_rows)
    X.cont[rng.random(X.cont.shape) < zero_share] = -0.0
    out, cache = net._forward(net._batch(X.cat, X.cont), want_cache=True)
    for got, expected in zip((out, *cache[:2]), broadcast_forward(net, X.cat, X.cont)):
        assert got.tobytes() == expected.tobytes()
    dlogit = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 9, n_rows)
    dlogit[rng.random(n_rows) < zero_share] = -0.0
    expected = broadcast_backward(net, X.cat, cache, dlogit)
    assert net._backward(cache, dlogit).tobytes() == expected.tobytes()


def test_adam_update_rejects_non_contiguous_params():
    base = np.zeros((4, 4))
    view = base[:, ::2]
    grad = np.zeros_like(view)
    try:
        kernels.adam_update(view, grad, np.zeros_like(view), np.zeros_like(view),
                            1e-3, 0.9, 0.999, 1e-8, 1)
    except ValueError:
        return
    raise AssertionError("expected ValueError for non-contiguous parameters")
