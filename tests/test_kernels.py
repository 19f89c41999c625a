"""The compiled kernels and the numpy fallbacks must agree bit for bit,
and the environment override must force the fallback."""

import os
import subprocess
import sys

import numpy as np

from xdboost import kernels


def test_backend_is_reported():
    assert kernels.BACKEND in ("native", "numpy")


def test_scatter_add_rows_matches_fallback_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(60):
        v = int(rng.integers(1, 9))
        k = int(rng.integers(1, 6))
        n = int(rng.integers(0, 40))
        out_active = rng.standard_normal((v, k))
        out_numpy = out_active.copy()
        idx = rng.integers(0, v, size=n)
        rows = rng.standard_normal((n, k))
        kernels.scatter_add_rows(out_active, idx, rows)
        kernels._scatter_add_rows_np(out_numpy, idx, rows)
        assert np.array_equal(out_active, out_numpy)


def test_scatter_add_rows_accumulates_duplicates():
    out = np.zeros((2, 2))
    idx = np.array([1, 1, 0], dtype=np.int64)
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    kernels.scatter_add_rows(out, idx, rows)
    assert np.array_equal(out, [[5.0, 6.0], [4.0, 6.0]])


def test_scatter_add_scalars_matches_fallback_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(60):
        v = int(rng.integers(1, 12))
        n = int(rng.integers(0, 50))
        out_active = rng.standard_normal(v)
        out_numpy = out_active.copy()
        idx = rng.integers(0, v, size=n)
        vals = rng.standard_normal(n)
        kernels.scatter_add_scalars(out_active, idx, vals)
        kernels._scatter_add_scalars_np(out_numpy, idx, vals)
        assert np.array_equal(out_active, out_numpy)


def test_adam_update_matches_fallback_bitwise():
    rng = np.random.default_rng(13)
    for t in range(1, 25):
        shape = tuple(int(s) for s in rng.integers(1, 7, size=int(rng.integers(1, 3))))
        param_active = rng.standard_normal(shape)
        grad = rng.standard_normal(shape)
        m_active = np.abs(rng.standard_normal(shape)) * 0.1
        v_active = np.abs(rng.standard_normal(shape)) * 0.01
        param_numpy = param_active.copy()
        m_numpy, v_numpy = m_active.copy(), v_active.copy()

        kernels.adam_update(param_active, grad, m_active, v_active,
                            1e-3, 0.9, 0.999, 1e-8, t)
        bc1 = 1.0 - 0.9 ** t
        bc2 = 1.0 - 0.999 ** t
        kernels._adam_update_np(param_numpy.reshape(-1), grad.reshape(-1),
                                m_numpy.reshape(-1), v_numpy.reshape(-1),
                                1e-3, 0.9, 0.999, 1e-8, bc1, bc2)
        assert np.array_equal(param_active, param_numpy)
        assert np.array_equal(m_active, m_numpy)
        assert np.array_equal(v_active, v_numpy)


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


def test_force_numpy_env_var_selects_fallback():
    env = dict(os.environ, XDBOOST_FORCE_NUMPY="1")
    code = "from xdboost import kernels; print(kernels.BACKEND)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "numpy"


# A stub stands in for the compiled extension, so the parse is exercised
# whether or not the extension was built.
_PARSE_SNIPPET = """
import importlib, os, sys, types
sys.modules["xdboost._native"] = types.ModuleType("xdboost._native")
import xdboost
from xdboost import kernels
print(xdboost.BACKEND)
for value in sys.argv[1:]:
    os.environ["XDBOOST_FORCE_NUMPY"] = value
    print(importlib.reload(kernels).BACKEND)
"""


def test_force_numpy_env_var_is_parsed_as_a_boolean():
    values = {"0": "native", "false": "native", "no": "native", "": "native",
              "1": "numpy", "true": "numpy", "YES": "numpy", " True ": "numpy"}
    env = dict(os.environ, XDBOOST_FORCE_NUMPY="0")
    proc = subprocess.run([sys.executable, "-c", _PARSE_SNIPPET, *values], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["native", *values.values()]


_TRAIN_SNIPPET = """
import hashlib
import numpy as np
from xdboost.data import DesignMatrix, FeatureSchema
from xdboost.models import BaseNet, BaseNetConfig

schema = FeatureSchema(["f0"], {"f0": {"a": 0, "b": 1}}, ["x0"],
                       {"x0": (0.0, 1.0, 0.5)}, 0, "f0", None, False)
config = BaseNetConfig(embedding_dim=3, hidden_layers=(4,), epochs=3,
                       patience=3, batch_size=16, learning_rate=1e-2)
rng = np.random.default_rng(5)
cat = rng.integers(0, 3, size=(48, 1)).astype(np.int64)
cont = rng.uniform(0, 1, size=(48, 1))
X = DesignMatrix(cat, cont, 0)
y = rng.integers(0, 2, size=48).astype(np.float64)
net = BaseNet(schema, config, seed=9)
net.fit(X, y)
print(hashlib.sha256(net.predict_matrix(X).tobytes()).hexdigest())
"""


def test_training_is_bit_identical_across_backends():
    """A short fit must land on the same parameters under either backend."""
    digests = []
    for force in (None, "1"):
        env = dict(os.environ)
        env.pop("XDBOOST_FORCE_NUMPY", None)
        if force:
            env["XDBOOST_FORCE_NUMPY"] = force
        proc = subprocess.run([sys.executable, "-c", _TRAIN_SNIPPET], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
